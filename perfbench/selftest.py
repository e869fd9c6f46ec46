"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

For each workload at toy size it runs ``run.py`` untraced and traced and
asserts that every metric BENCHMARK.json declares is printed by name with
its unit and that every output check passed.  Then it corrupts outputs
of the package, at least one per workload, and asserts that each run
counts the op as a failure and reports the result as not correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_script(workload: str, trace: int):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--toy"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload: str):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        text, final = run_script(workload, trace)
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        printed = {name: m["unit"] for name, m in final["metrics"].items()}
        assert printed == declared, (workload, trace, set(printed) ^ set(declared))
        for name, unit in declared.items():
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in text), (
                workload, name)
        assert final["correct"] and final["failed"] == 0, (workload, trace)
        assert final["attempted"] >= 1
        assert set(final) == {"correct", "attempted", "failed", "metrics"}


def corruptions():
    """Wrong outputs as (workload, owner, attr, corrupt): a long-time
    matrix scaled off the unit circle, a heterogeneous device that does
    not converge (exit 3 where it is not the known defect), a gate
    probability 1% high, a walk that loses 1e-6 of its probability."""
    from multiport import bell, device, network

    def scaled_matrix(fn):
        def wrong(*args, **kwargs):
            result = fn(*args, **kwargs)
            result.matrix = result.matrix.scaled(1.01)
            return result
        return wrong

    def unconverged_heterogeneous(fn):
        def wrong(spec, *args, **kwargs):
            result = fn(spec, *args, **kwargs)
            if isinstance(spec.r, (list, tuple)):
                result.converged = False
            return result
        return wrong

    def high_probability(fn):
        def wrong(*args, **kwargs):
            outcome = fn(*args, **kwargs)
            outcome.probability *= 1.01
            return outcome
        return wrong

    def leaky_walk(fn):
        def wrong(*args, **kwargs):
            result = fn(*args, **kwargs)
            result.steps[-1].internal_probability -= 1e-6
            return result
        return wrong

    return [
        ("transfer_sweep", device, "steady_state", scaled_matrix),
        ("transfer_sweep", device, "steady_state", unconverged_heterogeneous),
        ("exact_gate", bell, "process", high_probability),
        ("walk_lattice", network.WalkEngine, "run", leaky_walk),
    ]


def check_corruption_counted(workload: str, owner, attr, corrupt):
    original = getattr(owner, attr)
    setattr(owner, attr, corrupt(original))
    try:
        result = run.measure(workload, 7, 0.5, False, toy=True)
    finally:
        setattr(owner, attr, original)
    with contextlib.redirect_stdout(io.StringIO()):
        final = run.report(result, False)
    assert result["summary"]["bad"] >= 1, workload
    assert final["failed"] == result["summary"]["bad"]
    assert not final["correct"], workload


def main() -> int:
    for workload in run.NAMES:
        check_metrics(workload)
        print(f"ok  {workload}: every metric printed with its unit, all outputs correct")
    run.pin_environment()
    run.import_package()
    for workload, owner, attr, corrupt in corruptions():
        check_corruption_counted(workload, owner, attr, corrupt)
        print(f"ok  {workload}: {corrupt.__name__} counts as a failure")
    return 0


if __name__ == "__main__":
    sys.exit(main())
