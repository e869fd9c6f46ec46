"""The benchmark's workloads: seeded inputs, the ops that run them, checks.

A workload yields rounds: lists of ops with a fixed mix of kinds whose
inputs come from the seed.  The runner measures whole rounds, so every run
sees the same mix.  The package receives only the generated configs and
specs; every output is checked (see ``checks``).

* ``transfer_sweep`` solves for long-time transition matrices through the
  CLI, the device solve that a resolvent would replace.  Identical-vertex
  devices draw their splitting angle from a golden-ratio sequence with a
  seeded offset: the devices closest to 50/50 converge slowest (those
  within about 0.0207 rad of pi/4 not within 50000 steps), and the
  sequence gives every seed, and every prefix of the op stream, the same
  share of them.  Which ops may exit 3 is decided when they are made,
  from the benchmark's own model of the device (``checks``).
* ``exact_gate`` is exact Q(sqrt2, sqrt3, i) work: Bell-gate tables, single
  gate calls, exact exit tables, paths and long-time matrices.
* ``walk_lattice`` runs scattering walks through the package API on rings
  of 3-ports (every vertex has a lead, so amplitude drains fast) and
  square grids of 4-ports (leads only on the boundary, so it survives),
  with physical multiports and again with ideal Grover coins.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random

from multiport import bell, cli, device, network

import checks

OK, KNOWN, BAD = "ok", "known", "bad"

GOLDEN = (math.sqrt(5) - 1) / 2
THETA = (0.1, math.pi / 2 - 0.1)  # splitting angles, as in criterion 10
EIGHTH = math.pi / 4
MAX_STEPS, TOL = 50000, 1e-11  # the random devices' limits, as in criterion 10
DEFAULT_MAX_STEPS, DEFAULT_TOL = 100, 1e-12  # the package's defaults


class Op:
    """One call into the package, its untimed preparation and its check.

    ``check`` maps the call's return value to OK, KNOWN (the documented
    non-convergence exit of the iterated long-time sum, on an op where it
    is expected) or BAD.  ``work`` is the op's vertex-steps, for walks.
    """

    __slots__ = ("kind", "call", "check", "prepare", "work")

    def __init__(self, kind, call, check, prepare=None, work=0):
        self.kind = kind
        self.call = call
        self.check = check
        self.prepare = prepare
        self.work = work


def cli_op(kind, argv, check_data, config=None, path=None, known_exit3=False) -> Op:
    """``multiport <argv>`` in-process, stdout captured; ``config`` is
    written to ``path`` before the timed call.  Exit 3 is KNOWN only when
    ``known_exit3`` says this op's device is not expected to converge."""

    def prepare():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def check(raw):
        rc, text = raw
        if rc == 3 and known_exit3:
            return KNOWN
        if rc != 0:
            return BAD
        return OK if check_data(json.loads(text)["data"]) else BAD

    return Op(kind, call, check, prepare if config is not None else None)


def splitter(theta: float, gamma: float):
    """A lossless beam splitter (r, t) with splitting angle theta."""
    return (
        1j * cmath.exp(1j * gamma) * math.sin(theta),
        cmath.exp(1j * gamma) * math.cos(theta),
    )


def random_splitter(rng):
    return splitter(rng.uniform(*THETA), rng.uniform(0, 2 * math.pi))


def complex_text(z: complex) -> str:
    sign = "+" if math.copysign(1.0, z.imag) > 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def port(p: int) -> str:
    return chr(ord("A") + p)


# ---------------------------------------------------------------------------
# transfer_sweep
# ---------------------------------------------------------------------------


class TransferSweep:
    """Rounds of ten CLI ops: four identical-vertex and four heterogeneous
    random devices (``unitary --config``, n = 3..8, max_steps 50000, tol
    1e-11), one ``unitary --n k`` at package defaults and one float
    ``exits``, with k and n cycling through 3..8.  ``toy`` changes
    nothing: one round is already small."""

    def __init__(self, seed: int, workdir, toy: bool = False):
        self.rng = random.Random(seed)
        self.theta_offset = self.rng.random()
        self.workdir = workdir

    def warmup(self) -> Op:
        return self._default_op(0)

    def rounds(self):
        cycle = 0
        while True:
            yield [self._device_op(4 * cycle + j, identical=True, slot=j) for j in range(4)] + [
                self._device_op(4 * cycle + j, identical=False, slot=4 + j) for j in range(4)
            ] + [self._default_op(cycle), self._exits_op(cycle)]
            cycle += 1

    def _device_op(self, index: int, identical: bool, slot: int) -> Op:
        rng = self.rng
        n = 3 + index % 6
        if identical:
            frac = (self.theta_offset + index * GOLDEN) % 1.0
            r, t = splitter(THETA[0] + frac * (THETA[1] - THETA[0]), rng.uniform(0, 2 * math.pi))
            params = {"r": r, "t": t, "mirror_phase": rng.uniform(0, 2 * math.pi),
                      "edge_phase": 0.0}
            dev = dict(params, r=complex_text(r), t=complex_text(t))
        else:
            pairs = [random_splitter(rng) for _ in range(n)]
            params = {
                "r": [r for r, _t in pairs],
                "t": [t for _r, t in pairs],
                "mirror_phase": [rng.uniform(0, 2 * math.pi) for _ in range(n)],
                "edge_phase": [rng.uniform(0, 2 * math.pi) for _ in range(n)],
            }
            dev = dict(params, r=[[r.real, r.imag] for r in params["r"]],
                       t=[[t.real, t.imag] for t in params["t"]])
        dev.update(n=n, max_steps=MAX_STEPS)
        path = str(self.workdir / f"device{slot}.json")
        return cli_op(
            "unitary.identical" if identical else "unitary.heterogeneous",
            ["unitary", "--config", path, "--tol", repr(TOL), "--mode", "float"],
            lambda data: checks.long_time_matrix_ok(data, n, identical, False),
            {"device": dev},
            path,
            known_exit3=checks.may_not_converge(n, MAX_STEPS, TOL, **params),
        )

    def _default_op(self, cycle: int) -> Op:
        n = 3 + cycle % 6
        return cli_op(
            "unitary.default",
            ["unitary", "--n", str(n), "--mode", "float"],
            lambda data: checks.long_time_matrix_ok(data, n, True, True),
            known_exit3=checks.may_not_converge(n, DEFAULT_MAX_STEPS, DEFAULT_TOL,
                                                **checks.REFERENCE),
        )

    def _exits_op(self, cycle: int) -> Op:
        n = 3 + cycle % 6
        start = self.rng.randrange(n)
        steps = self.rng.randint(10, 100)
        return cli_op(
            "exits.float",
            ["exits", "--n", str(n), "--input", port(start), "--steps", str(steps),
             "--mode", "float"],
            lambda data: checks.exits_ok(data, n, start, [0] * n, "float", True),
        )


# ---------------------------------------------------------------------------
# exact_gate
# ---------------------------------------------------------------------------


class ExactGate:
    """Rounds of 47 exact-mode ops in seeded order: ``bell-table``,
    ``group-table`` s and o, ``cnot``, ``unitary`` of the reference n = 3,
    4, 6 ports, 24 ``bell.process`` calls on seeded pairs and conditions,
    and 8 ``exits`` and 8 ``paths``, half on the reference 3-port and half
    on pi/4-phased devices."""

    def __init__(self, seed: int, workdir, toy: bool = False):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.toy = toy
        self.slot = 0
        self._models = {}

    def model(self, *key):
        if key not in self._models:
            self._models[key] = checks.gate_model(*key)
        return self._models[key]

    def canonical_models(self):
        return {
            (a, b, cond): self.model(a, (0, 1), b, (0, 2), cond)
            for a in checks.BELL for b in checks.BELL for cond in "so"
        }

    def warmup(self) -> Op:
        return self._process_op("Psi+", 1, 0, "Psi+", 2, "o")

    def rounds(self):
        toy = self.toy
        while True:
            self.slot = 0
            ops = [
                cli_op("bell-table", ["bell-table", "--mode", "exact"],
                       lambda data: checks.truth_table_ok(data, self.canonical_models())),
                cli_op("cnot", ["cnot", "--mode", "exact"], checks.cnot_ok),
            ]
            for cond in ("s",) if toy else ("s", "o"):
                ops.append(cli_op(
                    "group-table",
                    ["group-table", "--condition", cond, "--mode", "exact"],
                    lambda data, cond=cond: checks.group_table_ok(data, cond),
                ))
            for n in (3, 4) if toy else (3, 4, 6):
                ops.append(cli_op(
                    "unitary.exact",
                    ["unitary", "--n", str(n), "--mode", "exact"],
                    lambda data, n=n: checks.long_time_matrix_ok(data, n, True, True),
                ))
            rng = self.rng
            for _ in range(4 if toy else 24):
                herald = rng.randrange(3)
                a, b = rng.sample([p for p in range(3) if p != herald], 2)
                ops.append(self._process_op(
                    rng.choice(checks.BELL), a, herald, rng.choice(checks.BELL), b,
                    rng.choice("so"),
                ))
            for j in range(4 if toy else 16):
                ops.append(self._device_op("exits" if j % 2 else "paths", j % 4 < 2))
            rng.shuffle(ops)
            yield ops

    def _process_op(self, in_label, in_other, herald, ctrl_label, ctrl_other, cond) -> Op:
        in_pair = tuple(sorted((herald, in_other)))
        ctrl_pair = tuple(sorted((herald, ctrl_other)))
        label_in = bell.parse_bell_short(in_label, in_pair)
        label_ctrl = bell.parse_bell_short(ctrl_label, ctrl_pair)
        key = (in_label, in_pair, ctrl_label, ctrl_pair, cond)
        return Op(
            "process",
            lambda: bell.process(label_in, label_ctrl, cond, None, "exact"),
            lambda out: OK if checks.gate_ok(out, *key, self.model(*key)) else BAD,
        )

    def _device_op(self, command: str, reference: bool) -> Op:
        """``exits`` or ``paths`` on the reference 3-port, or on a device
        with seeded per-vertex mirror and per-edge phases at multiples of
        pi/4 (the phases exact mode supports)."""
        rng = self.rng
        n = 3 if reference else rng.randint(3, 6 if command == "exits" else 5)
        edge_k = [0] * n if reference else [rng.randrange(8) for _ in range(n)]
        start = rng.randrange(n)
        argv = [command, "--mode", "exact", "--input", port(start)]
        config = path = None
        if reference:
            argv += ["--n", "3"]
        else:
            config = {"device": {
                "n": n,
                "mirror_phase": [rng.randrange(8) * EIGHTH for _ in range(n)],
                "edge_phase": [k * EIGHTH for k in edge_k],
            }}
            path = str(self.workdir / f"device{self.slot}.json")
            self.slot += 1
            argv += ["--config", path]
        if command == "exits":
            steps = rng.randint(8, 24)
            argv += ["--steps", str(steps)]
            check = lambda data: checks.exits_ok(data, n, start, edge_k, "exact", reference)
        else:
            length = rng.choice((6, 8, 10))
            argv += ["--exit", port(rng.randrange(n)), "--length", str(length)]
            check = lambda data: checks.paths_ok(data, length)
        return cli_op(f"{command}.exact", argv, check, config, path)


# ---------------------------------------------------------------------------
# walk_lattice
# ---------------------------------------------------------------------------


def ring(size: int):
    """Edges and leads of a ring where every vertex has one lead."""
    return [(v, (v + 1) % size) for v in range(size)], list(range(size))


def grid(width: int):
    """Edges of a square grid, and boundary leads up to degree 4."""
    edges = []
    for x in range(width):
        for y in range(width):
            v = x * width + y
            if x + 1 < width:
                edges.append((v, v + width))
            if y + 1 < width:
                edges.append((v, v + 1))
    degree = [0] * (width * width)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return edges, [v for v, d in enumerate(degree) for _ in range(4 - d)]


class WalkLattice:
    """Rounds of eight walks, ``build_network`` + ``run`` through the API:
    a ring of 36 3-ports (100 steps) and a 6x6 grid of 4-ports (80
    steps), each with reference vertices and with seeded per-vertex
    parameters, each with a seeded schedule; then the same four with
    Grover coins, run four times as many steps so that an ideal walk
    costs about as much as a physical one."""

    def __init__(self, seed: int, workdir, toy: bool = False):
        self.rng = random.Random(seed)
        self.shapes = (("ring", 6, 10), ("grid", 3, 10)) if toy else (
            ("ring", 36, 100), ("grid", 6, 80))

    def warmup(self) -> Op:
        return self._walk("ring", 6, 10, False, False)

    def rounds(self):
        while True:
            yield [
                self._walk(shape, size, steps * (4 if ideal else 1), ideal, hetero)
                for ideal in (False, True)
                for shape, size, steps in self.shapes
                for hetero in (False, True)
            ]

    def _walk(self, shape, size, steps, ideal, hetero) -> Op:
        rng = self.rng
        edges, leads = ring(size) if shape == "ring" else grid(size)
        count = size if shape == "ring" else size * size
        degree = 3 if shape == "ring" else 4
        if ideal:
            vertices = [network.IdealVertex(self._coin(degree, hetero)) for _ in range(count)]
        else:
            vertices = [network.PhysicalVertex(self._device(degree, hetero)) for _ in range(count)]
        overrides = {}
        for step in rng.sample(range(1, steps + 1), 3):
            overrides[step] = {
                v: self._coin(degree, True) if ideal else self._override()
                for v in rng.sample(range(count), 2)
            }
        graph = network.GraphSpec(vertices=vertices, edges=edges, leads=leads)
        schedule = network.Schedule(overrides)
        lead = rng.randrange(len(leads))

        def call():
            engine = network.build_network(graph)
            return engine.run(lead, steps, schedule)

        return Op(
            f"walk.{shape}.{'ideal' if ideal else 'physical'}",
            call,
            lambda result: OK if checks.walk_ok(result, steps) else BAD,
            work=count * steps,
        )

    def _coin(self, degree, hetero):
        coin = device.grover_coin(degree)
        return coin.scaled(cmath.exp(1j * self.rng.uniform(0, 2 * math.pi))) if hetero else coin

    def _device(self, degree, hetero):
        if not hetero:
            return device.MultiportSpec(n=degree)
        rng = self.rng
        pairs = [random_splitter(rng) for _ in range(degree)]
        return device.MultiportSpec(
            n=degree,
            r=[r for r, _t in pairs],
            t=[t for _r, t in pairs],
            mirror_factor=[cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(degree)],
            edge_phases=[rng.uniform(0, 2 * math.pi) for _ in range(degree)],
        )

    def _override(self):
        r, t = random_splitter(self.rng)
        return {"r": r, "t": t, "mirror_factor": cmath.exp(1j * self.rng.uniform(0, 2 * math.pi))}


WORKLOADS = {
    "transfer_sweep": TransferSweep,
    "exact_gate": ExactGate,
    "walk_lattice": WalkLattice,
}
