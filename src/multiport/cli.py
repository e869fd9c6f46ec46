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
import itertools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

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
    """A parse error is a config error."""

    commands: dict  # on the full parser: each command's name and its own parser

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


class _ExactReal(tuple):
    """(value,): the real part of an exact scalar, as a payload value."""


def encode_real(value, mode: str):
    """A float, or in exact mode the real part, which ``to_json`` writes as
    {"approx": float, "rational": [num, den], ...} ("rational": [0, 1] for 0)."""
    return _ExactReal((value,)) if mode == "exact" else float(value)


def encode_scalar(value, mode: str):
    """[re, im], or in exact mode the scalar itself, which ``to_json``
    writes as {"approx": [re, im], "im": {...}, "re": {...}, "text": ...}."""
    if mode == "exact":
        return value
    z = complex(value)
    return [z.real, z.imag]


def encode_matrix(m: Matrix):
    """A float matrix as its complex array (written as rows of [re, im]
    pairs), an exact one as its rows of scalars."""
    return m.to_numpy() if m.mode == "float" else m.rows


_json_str = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    if -math.inf < x < math.inf:
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# The scalar writers by exact type.  Subclasses (np.float64, say) take the
# isinstance tests of ``to_json``, in the order ``json`` makes them.
_SCALARS = {str: _json_str, int: int.__repr__, float: _json_float,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


@functools.lru_cache(maxsize=64)
def _array_layout(shape: tuple, level: int, hole: str = "%r") -> str:
    """The indented JSON text of nested lists of ``shape``, ``hole`` per number."""
    if not shape:
        return hole
    if not shape[0]:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    items = ("," + pad).join([_array_layout(shape[1:], level + 1, hole)] * shape[0])
    return "[" + pad + items + "\n" + "  " * level + "]"


@functools.lru_cache(maxsize=64)
def _exit_row_layout(ports: int, mode: str, level: int) -> str:
    """% format of one ``exits`` row, a dict at indent ``level``.  Holes:
    the amplitudes (float: re and im of each, '%r'; exact: each scalar's
    text), the cumulative probability, n ('%d'), the step probability."""
    pad = "\n" + "  " * (level + 1)
    if mode == "float":
        amplitudes, real = _array_layout((ports, 2), level + 1), "%r"
    else:
        amplitudes, real = _array_layout((ports,), level + 1, "%s"), "%s"
    return ("{" + pad + '"amplitudes": ' + amplitudes + "," + pad + '"cumulative_probability": '
            + real + "," + pad + '"n": %d,' + pad + '"step_probability": ' + real + pad[:-2] + "}")


def _exit_rows_json(record: device.ExitRecord, level: int) -> str:
    """An exit record's rows as the list of {"amplitudes", "cumulative_probability",
    "n", "step_probability"} dicts ``cmd_exits`` writes, at indent ``level``:
    one row format per step, filled from the record's arrays."""
    row = _exit_row_layout(record.n_ports, record.mode, level + 1)
    counts, amplitudes = itertools.count(1), record.amplitudes
    steps, cumulative = record.step_probabilities, record.cumulative_probabilities
    if record.mode == "float":
        cells = np.ascontiguousarray(amplitudes).view(float)
        if not (np.isfinite(cells).all() and np.isfinite(steps + cumulative).all()):  # nan, inf
            keys = ("amplitudes", "step_probability", "cumulative_probability", "n")
            return to_json([dict(zip(keys, r)) for r in zip(amplitudes, steps, cumulative, counts)],
                           level)
        texts = [row % (*a, c, k, p)
                 for a, c, k, p in zip(cells.tolist(), cumulative, counts, steps)]
    else:
        def real(x):
            return _exact_json(_ExactReal((x,)), level + 2)

        texts = [row % (*[_exact_json(x, level + 3) for x in a], real(c), k, real(p))
                 for a, c, k, p in zip(amplitudes.tolist(), cumulative, counts, steps)]
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(texts) + pad[:-2] + "]" if texts else "[]"


# JSON names of an exact scalar part's (rational, sqrt2, sqrt3, sqrt6) coefficients.
_NAMES = ("rational", "sqrt2", "sqrt3", "sqrt6")


@functools.lru_cache(maxsize=64)
def _exact_layout(level: int) -> tuple:
    """% formats at indent ``level``: an exact scalar's dict (holes: approx
    re and im, "im", "re", "text"), its parts' pieces (open, separator,
    close) and members; the texts of zero as a scalar and as a real."""
    p1, p2, p3 = ("\n" + "  " * (level + k) for k in (1, 2, 3))
    scalar = ("{" + p1 + '"approx": [' + p2 + "%s," + p2 + "%s" + p1 + "]," + p1 + '"im": %s,'
              + p1 + '"re": %s,' + p1 + '"text": %s' + p1[:-2] + "}")
    member = '"%s": [' + p3 + "%d," + p3 + "%d" + p2 + "]"
    zeros = (scalar % ("0.0", "0.0", "{}", "{}", '"0"'),
             "{" + p2 + '"approx": 0.0,' + p2 + member % ("rational", 0, 1) + p1 + "}")
    return scalar, ("{" + p2, "," + p2, p1 + "}"), member, zeros


def _exact_json(obj, level: int) -> str:
    """An exact scalar, or an ``_ExactReal`` (a dict like a scalar's parts,
    one level up), written from its integers."""
    real = type(obj) is _ExactReal
    scalar, (open_, sep, close), member, zeros = _exact_layout(level - real)
    value = obj[0] if real else obj
    if value.is_zero():
        return zeros[real]
    pairs, z = value.lowest_terms(), complex(value)
    re = [member % (name, num, den) for name, (num, den) in zip(_NAMES, pairs[:4]) if num]
    if real:
        re = re or [member % ("rational", 0, 1)]
        return open_ + '"approx": ' + _json_float(z.real) + sep + sep.join(re) + close
    im = [member % (name, num, den) for name, (num, den) in zip(_NAMES, pairs[4:]) if num]
    im, re = (open_ + sep.join(items) + close if items else "{}" for items in (im, re))
    text = _json_str(exact.scalar_text(pairs))
    return scalar % (_json_float(z.real), _json_float(z.imag), im, re, text)


def to_json(obj, level: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys.  A float or complex ndarray is written as
    ``json.dumps`` writes its ``tolist()``, each complex entry as [re, im],
    one float repr at a time; an exact scalar as the dict of ``encode_scalar``
    or ``encode_real``; an ExitRecord as the list of its rows."""
    write = _SCALARS.get(type(obj))
    if write is not None:
        return write(obj)
    if type(obj) in (exact.ExactComplex, _ExactReal):
        return _exact_json(obj, level)
    if type(obj) is device.ExitRecord:
        return _exit_rows_json(obj, level)
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "fc":
        a = obj
        if a.dtype.kind == "c":  # one trailing axis of (re, im)
            a = np.ascontiguousarray(a).reshape(-1).view(a.real.dtype).reshape(a.shape + (2,))
        text = _array_layout(a.shape, level) % tuple(a.ravel().tolist())
        return to_json(a.tolist(), level) if "n" in text else text  # nan, inf
    get, items, pad = _SCALARS.get, [], "\n" + "  " * (level + 1)
    if isinstance(obj, (list, tuple)):
        for v in obj:
            write = get(type(v))
            items.append(write(v) if write else to_json(v, level + 1))
        return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]" if items else "[]"
    if isinstance(obj, dict):
        for key, v in sorted(obj.items()):
            write = get(type(v))
            value = write(v) if write else to_json(v, level + 1)
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_json_str(key) + ": " + value)
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}" if items else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _re_im(value) -> list:
    """A scalar's real and imaginary parts as CSV cells."""
    z = complex(value)
    return [repr(z.real), repr(z.imag)]


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def load_config(path):
    """The config file's JSON object, {} without a file.  Its bytes are
    decoded once, with the newline translation of a text-mode read; a file
    that cannot be read, decoded or parsed is a config error."""
    if path is None:
        return {}
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        cfg = json.loads(text)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {path} is not UTF-8: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} line {err.lineno}: {err.msg}") from err
    except RecursionError as err:
        raise ConfigError(f"config file {path} is nested too deeply to read") from err
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


def _section(cfg, name) -> dict:
    """A copy of config section ``name``, {} when absent; a section that is
    not a JSON object is a config error."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"the {name} section must be a JSON object, got {section!r}")
    return dict(section)


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
            raise ConfigError(f"{what} must set r and t together")
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
    section = _section(cfg, "device")
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
    data = {
        "ports": [port_label(i) for i in range(record.n_ports)],
        "input": port_label(record.input_port),
        "rows": record,  # written by ``to_json`` from the record's arrays
        "conservation_dev": record.conservation_dev,
    }
    header = ("n", "port", "re", "im", "step_probability", "cumulative_probability")
    table = (
        [k, port_label(i), *_re_im(a), repr(float(p)), repr(float(c))]
        for k, row, p, c in zip(itertools.count(1), record.amplitudes.tolist(),
                                record.step_probabilities, record.cumulative_probabilities)
        for i, a in enumerate(row)
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
    amplitudes = [s.lead_step_amplitudes for s in result.steps]  # exact scalars as they are
    if mode == "float":
        amplitudes = np.array(amplitudes, dtype=complex)
    steps = [
        {
            "index": s.index,
            "edges": {f"{e}->{v}": p for (e, v), p in sorted(s.edge_probabilities.items())},
            "lead_step_amplitudes": amps,
            "lead_cumulative_probability": list(s.lead_cumulative_probability),
            "internal_probability": s.internal_probability,
        }
        for s, amps in zip(result.steps, amplitudes)
    ]
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
    fcfg = _section(cfg, "feasibility")
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
        "their count, not the time: in exact mode 43691 paths at length 34 take "
        "2-3 s, under half of it to list and the rest to print.",
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

    parser.commands = sub.choices
    return parser


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``.  A command's arguments are read
    by that command's own parser alone; anything else (no command,
    ``--help``, an unknown word) goes through the full parser, which gives
    the usage text, errors and exit codes."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv=None) -> int:
    try:
        args = _parse(argv)
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
            text = to_json(payload) + "\n"
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
