"""Command-line surface: every simulator result as deterministic JSON/CSV.

Data goes to stdout, diagnostics to stderr.  Output is byte-stable for
identical configuration: no timestamps, sorted keys, metadata separated
from the data payload under a versioned schema.  Exit codes: 1 config
parse error, 2 invalid device/graph spec, 3 non-convergence, 4 internal
invariant violation, 141 (128 + SIGPIPE) stdout closed before all of the
output was written, as when a long output is piped into ``head -1``.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import bell, device, exact, feasibility, network
from .errors import (
    ConfigError,
    ConvergenceError,
    InvariantViolation,
    SpecError,
)
from .matrices import Matrix
from .states import port_index, port_label

SCHEMA = "multiport/1"
MODE_ENV = "MULTIPORT_NUMERIC_MODE"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# Value parsing and encoding
# ---------------------------------------------------------------------------


def parse_complex(text) -> complex:
    """Accept 're+imi' (e.g. '0.5+0.5i', '-i', '0.3i', 'inf') or 'mag@phase'."""
    if isinstance(text, (int, float)):
        return complex(text)
    if isinstance(text, (list, tuple)) and len(text) == 2:
        return complex(float(text[0]), float(text[1]))
    if not isinstance(text, str):
        raise ConfigError(f"cannot read complex value from {text!r}")
    s = text.strip().replace(" ", "")
    if "@" in s:
        mag, _, phase = s.partition("@")
        try:
            return float(mag) * cmath.exp(1j * float(phase))
        except ValueError as err:
            raise ConfigError(f"bad mag@phase value {text!r}") from err
    if s.endswith("i"):  # the imaginary unit; 'inf' and 'nan' keep theirs
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError as err:
        raise ConfigError(f"bad complex value {text!r}") from err


# JSON names of an exact scalar part's (rational, sqrt2, sqrt3, sqrt6) coefficients.
_NAMES = ("rational", "sqrt2", "sqrt3", "sqrt6")


def _frac_pair(f: Fraction):
    return [f.numerator, f.denominator]


def encode_real(value, mode: str):
    if mode == "exact":
        out = {n: _frac_pair(c) for n, c in zip(_NAMES, value.re_coefficients) if c}
        if not out:
            out["rational"] = [0, 1]
        out["approx"] = complex(value).real
        return out
    return float(value)


def encode_scalar(value, mode: str):
    if mode == "exact":
        re = {n: _frac_pair(c) for n, c in zip(_NAMES, value.re_coefficients) if c}
        im = {n: _frac_pair(c) for n, c in zip(_NAMES, value.im_coefficients) if c}
        z = complex(value)
        return {"re": re, "im": im, "approx": [z.real, z.imag], "text": str(value)}
    z = complex(value)
    return [z.real, z.imag]


def encode_matrix(m: Matrix):
    return [[encode_scalar(v, m.mode) for v in row] for row in m.rows]


def _re_im(value) -> list:
    """A scalar's real and imaginary parts as CSV cells."""
    z = complex(value)
    return [repr(z.real), repr(z.imag)]


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} line {err.lineno}: {err.msg}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def resolve_mode(args, cfg) -> str:
    mode = args.mode or cfg.get("numeric_mode") or os.environ.get(MODE_ENV) or "float"
    if mode not in ("exact", "float"):
        raise ConfigError(f"numeric mode must be 'exact' or 'float', got {mode!r}")
    return mode


def _read(convert, value, what):
    """``convert(value)`` for a flag or config value; a value of the wrong
    type or form is a config error."""
    try:
        return convert(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {what}: {value!r}") from err


def _read_int(value, what):
    """An integer flag or config value.  ``int()`` would truncate a float,
    so a non-integral or non-finite one is a config error."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"bad {what}: {value!r}")
    return _read(int, value, what)


def _each(convert, value):
    """``convert(value)``, or ``convert`` of each item when ``value`` is a list."""
    return [convert(v) for v in value] if isinstance(value, list) else convert(value)


def _phase_list(value):
    """One phase, or a list of phases, as floats: from a flag ('0.5' or
    '0,0.5,1') or a config value (a number or a list)."""
    if value is None:
        return None
    if isinstance(value, str) and "," in value:
        value = value.split(",")
    return _each(lambda p: _read(float, p, "phase"), value)


# The keys of a config ``device`` section, which are also the device flags.
_DEVICE_KEYS = ("n", "r", "t", "mirror_phase", "edge_phase", "max_steps")


def _multiport_kwargs(section: dict, keys, mode, what) -> dict:
    """``MultiportSpec`` arguments from a section holding only ``keys``:
    ``r``, ``t`` and ``mirror_phase`` are one value or one per vertex."""
    get = _only_keys(section, keys, what).get
    kwargs = {}
    if "n" in section:
        kwargs["n"] = _read_int(section["n"], "port count")
    if get("max_steps") is not None:
        kwargs["max_steps"] = _read_int(section["max_steps"], "max_steps")
    r, t = get("r"), get("t")
    if r is not None or t is not None:
        if mode == "exact":
            raise ConfigError("exact mode supports only the default r/t amplitudes")
        if r is None or t is None:
            raise ConfigError("override r and t together")
        kwargs["r"] = _each(parse_complex, r)
        kwargs["t"] = _each(parse_complex, t)
    phases = _phase_list(get("mirror_phase"))
    if phases is not None:
        kwargs["mirror_factor"] = _each(exact.field(mode).phase, phases)
    edge = _phase_list(get("edge_phase"))
    if edge is not None:
        kwargs["edge_phases"] = edge
    return kwargs


def device_spec(args, cfg) -> device.MultiportSpec:
    section = _read(dict, cfg.get("device", {}), "device section")  # a copy
    flags = {key: getattr(args, key) for key in _DEVICE_KEYS}
    section.update((key, v) for key, v in flags.items() if v is not None)
    mode = resolve_mode(args, cfg)
    kwargs = _multiport_kwargs(section, _DEVICE_KEYS, mode, "the device section")
    return device.MultiportSpec(mode=mode, **kwargs)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_exits(args, cfg):
    spec = device_spec(args, cfg)
    record = device.exit_record(spec, port_index(args.input), args.steps)
    rows = []
    for step in record.steps:
        rows.append(
            {
                "n": step.n,
                "amplitudes": [encode_scalar(a, record.mode) for a in step.amplitudes],
                "step_probability": encode_real(step.step_probability, record.mode),
                "cumulative_probability": encode_real(
                    step.cumulative_probability, record.mode
                ),
            }
        )
    data = {
        "ports": [port_label(i) for i in range(record.n_ports)],
        "input": port_label(record.input_port),
        "rows": rows,
        "conservation_dev": record.conservation_dev,
    }
    header = ("n", "port", "re", "im", "step_probability", "cumulative_probability")
    table = (
        [
            step.n,
            port_label(i),
            *_re_im(a),
            repr(float(step.step_probability)),
            repr(float(step.cumulative_probability)),
        ]
        for step in record.steps
        for i, a in enumerate(step.amplitudes)
    )
    return data, header, table


def cmd_paths(args, cfg):
    spec = device_spec(args, cfg)
    paths = device.enumerate_paths(
        spec, port_index(args.input), port_index(args.exit), args.length
    )
    total = sum((p.amplitude for p in paths), exact.field(spec.mode).zero)
    data = {
        "input": args.input.upper(),
        "exit": args.exit.upper(),
        "length": args.length,
        "paths": [
            {
                "symbols": p.symbol_string,
                "annotated": p.annotated,
                "amplitude": encode_scalar(p.amplitude, spec.mode),
                "bs_encounters": p.bs_encounters,
                "mirror_count": p.mirror_count,
            }
            for p in paths
        ],
        "amplitude_sum": encode_scalar(total, spec.mode),
    }
    header = ("symbols", "re", "im", "bs_encounters", "mirror_count")
    table = (
        [p.symbol_string, *_re_im(p.amplitude), p.bs_encounters, p.mirror_count] for p in paths
    )
    return data, header, table


def cmd_unitary(args, cfg):
    spec = device_spec(args, cfg)
    result = device.long_time_matrix(spec, tol=args.tol)
    data = {
        "matrix": encode_matrix(result.matrix),
        "method": result.method,
        "residual": result.residual,
        "reachable_dim": result.reachable_dim,
        "trapped_modes": result.trapped_modes,
        "unitarity_dev": result.unitarity_dev,
        "converged": True,
    }
    table = (
        [port_label(i), port_label(j), *_re_im(a)]
        for i, row in enumerate(result.matrix.rows)
        for j, a in enumerate(row)
    )
    return data, ("row", "col", "re", "im"), table


def cmd_family(args, cfg):
    if args.phi_sweep:
        try:
            start, stop, count = args.phi_sweep.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError as err:
            raise ConfigError("--phi-sweep wants start:stop:count") from err
        if count < 1:
            raise ConfigError(f"--phi-sweep count must be at least 1, got {count}")
        phis = [start + k * (stop - start) / max(count - 1, 1) for k in range(count)]
    else:
        phis = [args.phi]
    rows = []
    for phi in phis:
        m = device.symmetric_unitary(args.phi_a, phi)
        alpha, beta = device.family_coefficients(phi)
        rows.append(
            {
                "phi_a": args.phi_a,
                "phi": phi,
                "alpha": alpha,
                "beta": beta,
                "matrix": encode_matrix(m),
                "unitarity_dev": m.unitarity_dev(),
            }
        )
    header = ("phi_a", "phi", "alpha", "beta", "unitarity_dev")
    return {"rows": rows}, header, ([repr(r[k]) for k in header] for r in rows)


def cmd_bell_table(args, cfg):
    mode = resolve_mode(args, cfg)
    rows = [asdict(r) for r in bell.full_truth_table(mode=mode).rows]
    data = {"rows": rows, "input_pair": "AB", "control_pair": "AC", "output_pair": "BC"}
    header = ("input", "control", "out_s", "out_o", "prob_s", "prob_o")
    return data, header, ([r[k] for k in header] for r in rows)


def cmd_group_table(args, cfg):
    mode = resolve_mode(args, cfg)
    table = bell.group_table(args.condition, mode=mode)
    data = {
        "condition": args.condition,
        "elements": list(table.elements),
        "table": table.as_grid(),
        "axioms": asdict(table.axioms),
    }
    grid = ([a] + row for a, row in zip(table.elements, table.as_grid()))
    return data, [""] + list(table.elements), grid


def cmd_cnot(args, cfg):
    mode = resolve_mode(args, cfg)
    rows = bell.cnot_table(mode=mode)
    data = {
        "encoding": {"0": "+ symmetry", "1": "- symmetry"},
        "rows": [asdict(r) for r in rows],
    }
    header = ("input_bit", "control_bit", "output_bit", "input", "control", "output")
    return data, header, ([getattr(r, k) for k in header] for r in rows)


def _config_coin(coin, dim, mode) -> Matrix:
    """A named coin ('grover', 'identity') or, in float mode, explicit rows.

    A named coin's ``dim`` is bounded like a multiport's port count, by
    ``device._MAX_PORTS``, before the coin is built."""
    if coin in ("grover", "identity"):
        dim = _read_int(dim, "coin dimension")
        if dim > device._MAX_PORTS:
            raise SpecError(f"a coin has at most {device._MAX_PORTS} channels, got {dim}")
        return device.grover_coin(dim, mode) if coin == "grover" else Matrix.identity(dim, mode)
    if mode == "exact":
        raise ConfigError("exact mode supports named coins only")
    if not isinstance(coin, list):
        raise ConfigError(f"coin must be 'grover', 'identity' or a list of rows, got {coin!r}")
    return Matrix([[parse_complex(x) for x in row] for row in coin], "float")


def _only_keys(entry: dict, read, what) -> dict:
    """``entry``, refused when it holds a key that is never read from it."""
    unread = sorted(entry.keys() - set(read))
    if unread:
        raise ConfigError(f"{what} has unknown keys: {', '.join(unread)}")
    return entry


def _vertex_ref(value, what) -> int:
    """A vertex named in the config: an integer (the graph checks the range)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer vertex index, got {value!r}")
    return value


def _graph_from_config(gcfg, mode) -> network.GraphSpec:
    try:
        vertices = []
        for v in gcfg["vertices"]:
            if not isinstance(v, dict):
                raise ConfigError(f"vertex must be an object, got {v!r}")
            if "coin" in v:
                _only_keys(v, ("coin", "dim"), "a coin vertex")
                vertices.append(network.IdealVertex(_config_coin(v["coin"], v.get("dim"), mode)))
            elif "multiport" in v:
                d = _only_keys(v, ("multiport",), "a multiport vertex")["multiport"]
                if not isinstance(d, dict):
                    raise ConfigError(f"multiport entry must be an object, got {d!r}")
                keys = ("n", "mirror_phase", "r", "t", "edge_phase")
                kwargs = _multiport_kwargs(d, keys, mode, "a multiport entry")
                vertices.append(network.PhysicalVertex(device.MultiportSpec(mode=mode, **kwargs)))
            else:
                raise ConfigError("vertex needs a 'coin' or 'multiport' entry")
        edges = [
            (_vertex_ref(u, "edge end"), _vertex_ref(w, "edge end"))
            for u, w in gcfg.get("edges", [])
        ]
        leads = [_vertex_ref(v, "lead") for v in gcfg.get("leads", [])]
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad walk configuration: {err}") from err
    return network.GraphSpec(vertices=vertices, edges=edges, leads=leads, mode=mode)


def _schedule_from_config(scfg, graph_mode) -> network.Schedule:
    if not isinstance(scfg, dict):
        raise ConfigError("schedule must map steps to per-vertex overrides")
    overrides = {}
    try:
        for step, per_vertex in scfg.items():
            if not isinstance(per_vertex, dict):
                raise ConfigError(f"schedule step {step}: overrides must map vertices")
            inner = {}
            for v, ov in per_vertex.items():
                if not isinstance(ov, dict):
                    raise ConfigError(f"schedule step {step}: override must be an object")
                if "coin" in ov:
                    _only_keys(ov, ("coin", "dim"), f"schedule step {step}: a coin override")
                    inner[int(v)] = _config_coin(ov["coin"], ov.get("dim"), graph_mode)
                    continue
                inner[int(v)] = _multiport_kwargs(
                    ov, ("r", "t", "mirror_phase"), graph_mode, f"schedule step {step}: an override"
                )
            overrides[int(step)] = inner
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad walk schedule: {err}") from err
    return network.Schedule(overrides)


def cmd_walk(args, cfg):
    mode = resolve_mode(args, cfg)
    gcfg = cfg.get("walk")
    if not isinstance(gcfg, dict):
        raise ConfigError("walk needs a config file with a 'walk' section")
    engine = network.build_network(_graph_from_config(gcfg, mode))
    schedule = None
    if "schedule" in gcfg:
        schedule = _schedule_from_config(gcfg["schedule"], mode)
    result = engine.run(args.input_lead, args.steps, schedule)
    steps = []
    for s in result.steps:
        steps.append(
            {
                "index": s.index,
                "edges": {
                    f"{e}->{v}": p for (e, v), p in sorted(s.edge_probabilities.items())
                },
                "lead_step_amplitudes": [
                    encode_scalar(a, mode) for a in s.lead_step_amplitudes
                ],
                "lead_cumulative_probability": list(s.lead_cumulative_probability),
                "internal_probability": s.internal_probability,
            }
        )
    data = {
        "leads": engine.lead_count,
        "steps": steps,
        "conservation_dev": result.steps[-1].conservation_dev,
    }
    header = ("step", "lead", "step_re", "step_im", "cumulative_probability")
    table = (
        [s.index, l, *_re_im(a), repr(s.lead_cumulative_probability[l])]
        for s in result.steps
        for l, a in enumerate(s.lead_step_amplitudes)
    )
    return data, header, table


def cmd_feasibility(args, cfg):
    fcfg = _read(dict, cfg.get("feasibility", {}), "feasibility section")
    keys = ("d", "refractive_index", "pulse_duration", "spectral_width", "detector_time")
    _only_keys(fcfg, keys, "the feasibility section")

    def value(flag, key, default=None):
        v = flag if flag is not None else fcfg.get(key, default)
        return None if v is None else _read(float, v, key)

    d = value(args.d, "d")
    if d is None:
        raise ConfigError("feasibility needs --d (edge length, meters)")
    budget = feasibility.assess(
        d,
        refractive_index=value(args.index, "refractive_index", 1.0),
        pulse_duration=value(args.dt, "pulse_duration"),
        spectral_width=value(args.dnu, "spectral_width"),
        detector_time=value(args.td, "detector_time"),
    )
    data = asdict(budget)
    header = sorted(k for k in data if k != "violations")
    return data, header, ([data[k] for k in header],)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="multiport", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_device=False, max_steps_help="encounter limit of the device"):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--mode", choices=["exact", "float"], help="numeric mode")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        if with_device:
            p.add_argument("--n", type=int, help="port count")
            p.add_argument("--r", help="reflection amplitude, 're+imi' or 'mag@phase'")
            p.add_argument("--t", help="transmission amplitude")
            p.add_argument("--mirror-phase", dest="mirror_phase", type=float)
            p.add_argument("--edge-phase", dest="edge_phase")
            p.add_argument("--max-steps", dest="max_steps", type=int, help=max_steps_help)

    p = sub.add_parser("exits", help="per-encounter exit amplitude table")
    common(p, True)
    p.add_argument("--input", default="A")
    p.add_argument("--steps", type=int, default=10)
    p.set_defaults(fn=cmd_exits)

    p = sub.add_parser(
        "paths",
        help="enumerate paths between two ports",
        description="List every path between two ports with the given number of "
        "beam-splitter encounters. At most 65536 paths are listed; the cap bounds "
        "their count, not the time: in exact mode 43690 paths at length 34 take "
        "about 5 s, 2 s to list and the rest to print.",
    )
    common(p, True)
    p.add_argument("--input", default="A")
    p.add_argument("--exit", default="B")
    p.add_argument("--length", type=int, required=True, help="beam-splitter encounters")
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser(
        "unitary",
        help="long-time transition matrix",
        description="The long-time transition matrix U = C (I - A)^-1 B, solved on the "
        "internal modes the inputs reach (method 'resolvent').",
    )
    common(p, True, max_steps_help="not used: the matrix is solved, not summed "
           "encounter by encounter (it must still be at least 2)")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="bound on the residual, the largest column norm of "
                   "(I - A) X - B; above it the exit code is 3")
    p.set_defaults(fn=cmd_unitary)

    p = sub.add_parser("family", help="symmetric transition-matrix family")
    common(p)
    p.add_argument("--phi-a", dest="phi_a", type=float, default=-math.pi / 2)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--phi-sweep", dest="phi_sweep", help="start:stop:count")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("bell-table", help="16-row Bell gate truth table")
    common(p)
    p.set_defaults(fn=cmd_bell_table)

    p = sub.add_parser("group-table", help="Klein group table and axiom report")
    common(p)
    p.add_argument("--condition", choices=["s", "o"], default="s")
    p.set_defaults(fn=cmd_group_table)

    p = sub.add_parser("cnot", help="CNOT bit table from the gate")
    common(p)
    p.set_defaults(fn=cmd_cnot)

    p = sub.add_parser("walk", help="scattering walk on a multiport network")
    common(p)
    p.add_argument("--input-lead", dest="input_lead", type=int, default=0)
    p.add_argument("--steps", type=int, default=10)
    p.set_defaults(fn=cmd_walk)

    p = sub.add_parser("feasibility", help="timing and coherence budget")
    common(p)
    p.add_argument("--d", type=float, help="edge length in meters")
    p.add_argument("--index", type=float, help="refractive index")
    p.add_argument("--dt", type=float, help="pulse duration in seconds")
    p.add_argument("--dnu", type=float, help="spectral width in Hz")
    p.add_argument("--td", type=float, help="detector response time in seconds")
    p.set_defaults(fn=cmd_feasibility)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        mode = resolve_mode(args, cfg)
        data, header, table = args.fn(args, cfg)
        if args.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(header)
            writer.writerows(table)
            text = buf.getvalue()
        else:
            payload = {
                "schema": SCHEMA,
                "command": args.command,
                "mode": mode,
                "data": data,
            }
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except SpecError as err:
        print(f"invalid spec: {err}", file=sys.stderr)
        return 2
    except ConvergenceError as err:
        print(f"not converged: {err}", file=sys.stderr)
        return 3
    except InvariantViolation as err:
        print(f"internal invariant violated: {err}", file=sys.stderr)
        return 4
    try:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except BrokenPipeError:
        # As the Python docs advise for SIGPIPE: send what is left to
        # devnull, so the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return 0


if __name__ == "__main__":
    sys.exit(main())
