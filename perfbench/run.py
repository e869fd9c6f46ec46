"""Benchmark of the multiport simulator, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload transfer_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One caller runs ops in a closed loop, single process and single thread,
for whole rounds until ``--seconds`` have passed (see ``workloads``), and
checks every output.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs every op untraced and traced, and prints the
per-layer metrics measured by ``tracing`` plus the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts the ops that failed unexpectedly; ops that exit 3
where the known non-convergence defect is predicted are counted on the
``#`` lines and lower ``ok_ratio`` instead.

Set-up time is measured in fresh interpreters: ``--probe`` imports the
package, generates the first round of inputs and runs one warm-up op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MODE_ENV = "MULTIPORT_NUMERIC_MODE"
PROBES = 9
TAIL_BEYOND = 10
NAMES = ("transfer_sweep", "exact_gate", "walk_lattice")


def pin_environment():
    """One BLAS thread, and no numeric mode from the environment (every
    op passes ``--mode``).  Must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop(MODE_ENV, None)


def require_source():
    if not (SRC / "multiport" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source under {SRC}")


def import_package() -> float:
    """Import ``multiport`` from this checkout's ``src``; seconds taken."""
    require_source()
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import multiport
    import multiport.cli  # noqa: F401  (the CLI is what most ops call)
    elapsed = perf_counter() - start
    if Path(multiport.__file__).resolve().parent != SRC / "multiport":
        raise SystemExit(f"benchmark: imported multiport from {multiport.__file__}")
    return elapsed


def machine() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def run_op(op, tracer=None):
    """(kind, seconds, outcome, work) for one op; an escaped exception or
    a check that cannot read the output is a failure."""
    from workloads import BAD, OK

    if op.prepare is not None:
        op.prepare()
    start = perf_counter()
    try:
        raw = tracer.op(op.kind, op.call) if tracer else op.call()
    except Exception:  # the op failed; the run goes on
        return op.kind, perf_counter() - start, BAD, 0
    elapsed = perf_counter() - start
    try:
        outcome = op.check(raw)
    except Exception:  # malformed output
        outcome = BAD
    return op.kind, elapsed, outcome, op.work if outcome == OK else 0


def run_rounds(rounds, seconds, tracer=None):
    """Run whole rounds until ``seconds`` have passed.

    With a tracer, every op runs twice, untraced and traced, in
    alternating order, so that both runs see the same input and the same
    machine.  Returns the untraced records, the traced records and the
    number of rounds.
    """
    records, traced = [], []
    played = 0
    start = perf_counter()
    for ops in rounds:
        for op in ops:
            if tracer is None:
                records.append(run_op(op))
            elif len(records) % 2:
                records.append(run_op(op))
                traced.append(run_traced(op, tracer))
            else:
                traced.append(run_traced(op, tracer))
                records.append(run_op(op))
        played += 1
        if perf_counter() - start >= seconds:
            break
    return records, traced, played


def run_traced(op, tracer):
    tracer.install()
    try:
        return run_op(op, tracer)
    finally:
        tracer.uninstall()


def probe(workload: str, seed: int, toy: bool) -> dict:
    """Set-up of one fresh interpreter: import, inputs, one warm-up op."""
    import_s = import_package()
    from workloads import OK, WORKLOADS

    workdir = make_workdir()
    try:
        start = perf_counter()
        wl = WORKLOADS[workload](seed, workdir, toy)
        warm = wl.warmup()
        next(wl.rounds())
        generate_s = perf_counter() - start
        start = perf_counter()
        _kind, _t, outcome, _w = run_op(warm)
        warmup_s = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"import_s": import_s, "generate_s": generate_s, "warmup_s": warmup_s,
            "warmup_ok": outcome == OK}


def run_probes(workload: str, seed: int, toy: bool) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload,
           "--seed", str(seed)] + (["--toy"] if toy else [])
    results = []
    for _ in range(PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed:\n{done.stderr}")
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def make_workdir() -> Path:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(durations):
    """(value, percentile, beyond): the highest percentile with at least
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def summarize(records):
    from workloads import BAD, KNOWN, OK

    durations = [r[1] for r in records]
    busy = sum(durations)
    outcomes = [r[2] for r in records]
    ok = outcomes.count(OK)
    tail_s, pct, beyond = tail(durations)
    kinds = {}
    for kind, seconds, _outcome, _work in records:
        kinds.setdefault(kind, []).append(seconds)
    return {
        "attempted": len(records),
        "ok": ok,
        "known": outcomes.count(KNOWN),
        "bad": outcomes.count(BAD),
        "busy_s": busy,
        "ops_per_s": ok / busy,
        "op_p50_ms": 1000 * statistics.median(durations),
        "op_tail_ms": 1000 * tail_s,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "vertex_steps_per_s": sum(r[3] for r in records) / busy,
        "kinds": kinds,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Set up, warm up, run and summarize one workload."""
    probes = run_probes(workload, seed, toy)
    import_package()
    from workloads import WORKLOADS

    workdir = make_workdir()
    try:
        wl = WORKLOADS[workload](seed, workdir, toy)
        run_op(wl.warmup())
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer()
        records, traced, played = run_rounds(wl.rounds(), seconds, tracer)
        result = {"summary": summarize(records)}
        if trace:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{workload}-seed{seed}.csv"
            tracer.write_spans(spans_path)
            result.update(traced=summarize(traced), tracer=tracer, spans_path=spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        rounds=played,
        probes=probes,
        setup_s=statistics.median(sum(p[k] for k in ("import_s", "generate_s", "warmup_s"))
                                  for p in probes),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        machine=machine(),
    )
    return result


def end_to_end(result) -> dict:
    s = result["summary"]
    return {
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "op_p50_ms": (s["op_p50_ms"], "ms"),
        "op_tail_ms": (s["op_tail_ms"], "ms"),
        "ok_ratio": (s["ok"] / s["attempted"], "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (result["setup_s"], "s"),
    }


def per_layer(result) -> dict:
    tracer = result["tracer"]
    untraced, traced = result["summary"], result["traced"]
    metrics = tracer.layer_metrics()
    metrics["cli.import_s"] = (statistics.median(p["import_s"] for p in result["probes"]), "s")
    # Self times of every span, op roots included, add up to the traced op
    # time; set against the same ops untraced they show what tracing cost.
    self_times = tracer.self_times()
    self_sum = sum(self_times.values())
    layer_sum = sum(v for k, v in self_times.items() if not k.startswith("op."))
    metrics.update({
        "trace.untraced_ops_per_s": (untraced["ops_per_s"], "1/s"),
        "trace.traced_ops_per_s": (traced["ops_per_s"], "1/s"),
        "trace.overhead": (traced["busy_s"] / untraced["busy_s"] - 1.0, "ratio"),
        "trace.self_over_untraced": (self_sum / untraced["busy_s"], "ratio"),
        "trace.layer_share": (layer_sum / traced["busy_s"], "ratio"),
        "trace.spans_dropped": (tracer.dropped, "count"),
    })
    return metrics


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def report(result, trace: bool) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    s = result["summary"]
    print(f"# workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {int(trace)}  rounds {result['rounds']}")
    print("# machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"# ops attempted {s['attempted']}  ok {s['ok']}  known-defect failures {s['known']}"
          f"  other failures {s['bad']}")
    print(f"# fail_ratio {(s['known'] + s['bad']) / s['attempted']!r} ratio")
    print(f"# op_tail_ms is p{s['tail_percentile']:.2f} of {s['attempted']} ops "
          f"({s['tail_beyond']} beyond)")
    if result["workload"] == "walk_lattice":
        print(f"# vertex_steps_per_s {s['vertex_steps_per_s']!r} 1/s")
    for kind, times in sorted(s["kinds"].items()):
        print(f"#   {kind:24s} n {len(times):5d}  median {1000 * statistics.median(times):9.3f} ms"
              f"  max {1000 * max(times):9.3f} ms")
    probes = result["probes"]
    print("# setup probes " + json.dumps(probes))
    if trace:
        metrics = per_layer(result)
        print(f"# spans written to {result['spans_path'].relative_to(ROOT)}")
    else:
        metrics = end_to_end(result)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value!r} {unit}")
    summaries = [s] + ([result["traced"]] if trace else [])
    return {
        "correct": all(x["bad"] == 0 for x in summaries) and all(p["warmup_ok"] for p in probes),
        "attempted": sum(x["attempted"] for x in summaries),
        # An op on which the known defect shows exits as predicted, so it
        # is not a failure of the run; ``ok_ratio`` and the ``#`` lines above
        # still count it.
        "failed": sum(x["bad"] for x in summaries),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, toy: bool) -> dict:
    """Every workload in its own interpreter; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd + (["--toy"] if toy else []), cwd=ROOT,
                              capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            raise SystemExit(f"benchmark: workload {name} failed:\n{done.stderr}")
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_source()
    pin_environment()
    if args.probe:
        print(json.dumps(probe(args.workload, args.seed, args.toy)))
        return 0
    if args.workload == "all":
        final = run_all(args.seed, args.seconds, args.toy)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
        final = report(result, bool(args.trace))
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
