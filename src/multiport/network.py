"""Scattering walks on undirected graphs of unbiased multiports.

Two vertex models share one engine.  Ideal mode scatters the amplitudes
arriving on a vertex's channels through an n x n coin each step and
immediately translates them one edge.  Physical mode expands every vertex
into its full multiport (beam splitters, mirror stubs, internal polygon
edges); a step then advances every segment of the whole network at once,
so inter-vertex edges cost one step exactly like the segments inside a
vertex.

Channel ordering at a vertex is its incident edges in edge-list order
followed by its leads in lead-list order; coin dimension (ideal) or port
count (physical) must equal that degree.  Leads are absorbing: amplitude
that crosses onto a lead is accumulated and never re-enters.

A walk is compiled once, by ``build_network``, into a fixed fan-in gather.
The state vector x holds the directed-edge modes, then (physical mode)
the cw, ccw and mirror modes of every vertex, then one input slot per
lead, then one slot that always holds zero.  A step computes
``out[i] = sum_j W[i, j] * x[S[i, j]]`` for every output: the next
state's modes followed by one amplitude per lead.  Each physical output
is one beam-splitter arm and combines exactly two inputs; each ideal
output combines its vertex's incoming channels, padded with the zero slot
up to the largest degree.  The build works on whole arrays: the channel
maps come from one stable sort of the edge ends and leads, and the
distinct vertices of each degree are tabulated in one pass (a multiport
stack by one ``device.gather_table``, coins as one array with one
unitarity check), then scattered into S and W.  A run tabulates all its
overrides in one more pass and rebuilds their rows in a copy of W per
scheduled step.  It steps one history array through
``device.gather_steps``, the kernel that also steps exit records, and
builds a step's WalkStep from its arrays when the step is first read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import exact
from .device import _MAX_RECORD_AMPLITUDES, MultiportSpec, compile_spec
from .device import gather_steps, gather_table, grover_coin, step_record
from .errors import SpecError
from .matrices import Matrix

_COIN_TOL = 1e-12


@dataclass
class IdealVertex:
    """Vertex scattered by an explicit coin matrix."""

    coin: Matrix


@dataclass
class PhysicalVertex:
    """Vertex expanded into a full multiport."""

    spec: MultiportSpec


VertexSpec = Union[IdealVertex, PhysicalVertex]


@dataclass
class GraphSpec:
    vertices: Sequence[VertexSpec]
    edges: Sequence[Tuple[int, int]]
    leads: Sequence[int]
    mode: str = "float"
    allow_disconnected: bool = False


@dataclass
class Schedule:
    """Per-step parameter overrides, keyed by step index then vertex.

    Ideal vertices take a replacement coin Matrix; physical vertices take
    a dict with any of r, t, mirror_factor, edge_phases.  Overrides apply
    only on their step; the base parameters return afterwards.  A step is
    an integer >= 1 (step 1 is the first); a step beyond a run's last is
    allowed and never applies.  Every vertex named must be in the graph.
    """

    overrides: Dict[int, Dict[int, object]] = field(default_factory=dict)


@dataclass
class WalkStep:
    index: int
    edge_probabilities: Dict[Tuple[int, int], float]
    lead_step_amplitudes: tuple
    lead_cumulative_probability: tuple
    internal_probability: float
    conservation_dev: float


class _StepRecords:
    """A run's WalkSteps, read like a list: ``build(k)`` makes step k's
    record on its first access, and later accesses return that object."""

    def __init__(self, build, count: int):
        self._build, self._records = build, [None] * count

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        if self._records[k] is None:
            self._records[k] = self._build(operator.index(k) % len(self))
        return self._records[k]


@dataclass
class WalkResult:
    steps: Sequence[WalkStep]

    def cumulative_exit(self, step_index: int) -> float:
        return float(sum(step_record(self.steps, step_index).lead_cumulative_probability))


def _vertex_index(value, count: int, what: str) -> int:
    try:
        v = operator.index(value)
    except TypeError:
        raise SpecError(f"{what} must name a vertex by integer index, got {value!r}") from None
    if not 0 <= v < count:
        raise SpecError(f"{what} names vertex {v}, outside the graph's {count} vertices")
    return v


def _graph_ends(g: GraphSpec, count: int):
    """The edges as an (E, 2) array of vertex pairs and the leads as an
    array of vertices; the first bad edge or lead raises SpecError."""
    pairs = []
    for e, edge in enumerate(g.edges):
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise SpecError(f"edge {e} must be a pair of vertices, got {edge!r}") from None
        pairs.append((_vertex_index(u, count, f"edge {e}"), _vertex_index(v, count, f"edge {e}")))
        if pairs[-1][0] == pairs[-1][1]:
            raise SpecError("self-loop edges are not supported")
    leads = [_vertex_index(v, count, f"lead {l}") for l, v in enumerate(g.leads)]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2), np.array(leads, dtype=np.intp)


def _connected(count: int, edges) -> bool:
    adj: List[list] = [[] for _ in range(count)]
    for u, v in edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    frontier = [0]
    for x in frontier:  # grows while new vertices are seen
        new = set(adj[x]) - seen
        seen |= new
        frontier += new
    return len(seen) == count


def _share_key(params):
    """Equal keys tabulate once: a coin's mode and rows, or a spec's values
    with their types (exact mode takes r = 1, not 1.0).  A float spec that
    holds a list has no key (None), so it tabulates on its own: its key
    would cost about as much as its table.  0.0 and -0.0 may share: a
    gather's sums start from +0, losing the sign."""
    if isinstance(params, Matrix):
        return params.mode, params.rows
    values = tuple(vars(params).values())
    if params.mode == "exact":  # a sequence by its values and their types
        values = tuple((*x, *map(type, x)) if type(x) in (list, tuple) else x for x in values)
    elif list in map(type, values):
        return None
    return values, tuple(map(type, values))


def _amplitude(F: exact.Field, value):
    """``value`` in the mode's scalar type.  F.scalar keeps an exact int
    or Fraction as it is; adding zero makes it an ExactComplex."""
    amp = F.scalar(value) + F.zero
    if not isinstance(amp, type(F.zero)):
        raise TypeError(f"{value!r} is not an amplitude")
    return amp


class WalkEngine:
    """Compiled walk over a GraphSpec; each run owns its state history."""

    def __init__(self, g: GraphSpec):
        F = exact.field(g.mode)
        if not g.vertices:
            raise SpecError("graph needs at least one vertex")
        if not all(isinstance(vert, (IdealVertex, PhysicalVertex)) for vert in g.vertices):
            raise SpecError("every vertex must be an IdealVertex or a PhysicalVertex")
        count = len(g.vertices)
        edges, leads = _graph_ends(g, count)
        if not (g.allow_disconnected or _connected(count, edges)):
            raise SpecError("graph is disconnected (set allow_disconnected to permit)")
        self.graph = g
        self.mode = g.mode
        self.kind = "ideal" if isinstance(g.vertices[0], IdealVertex) else "physical"
        ideal = self.kind == "ideal"
        model = IdealVertex if ideal else PhysicalVertex
        if not all(isinstance(vert, model) for vert in g.vertices):
            raise SpecError("all vertices must share one vertex model")
        edge_modes, self.lead_count = 2 * len(edges), len(leads)
        ports = edge_modes + self.lead_count  # each with 3 own modes at a physical vertex
        slots = ports if ideal else 4 * ports
        if slots > _MAX_RECORD_AMPLITUDES:
            raise SpecError(
                f"a walk state holds at most {_MAX_RECORD_AMPLITUDES} amplitudes; "
                f"this graph has {slots}"
            )
        self._dtype = object if self.mode == "exact" else complex
        self.inter_vertex_mode_count = edge_modes
        # Per physical vertex, CompiledMultiport.inter_vertex_mode_count +
        # mirror_stub_mode_count = 4n: 2n polygon-edge modes (cw, ccw) and
        # 2n mirror-stub modes (into and back out of each stub).  The state
        # vector below folds each mirror round trip into one mode, so it
        # holds 3n per vertex.
        self.intra_vertex_mode_count = 0 if ideal else 4 * ports

        # State layout: directed edge e = (u, w) is mode 2e toward w and
        # 2e + 1 toward u; physical vertex v then owns its cw, ccw and
        # mirror modes; lead l's input slot and output row are both
        # _modes + l; the last slot stays zero.  Port p < 2E is edge p // 2
        # at its end p % 2, whose input is mode p ^ 1 and output mode p;
        # port 2E + l is lead l.  Sorted by vertex, stably, the ports give
        # each vertex's channels in order: its edges, then its leads.
        self._modes = modes = slots - self.lead_count
        ends = np.concatenate([edges.ravel(), leads])
        order = np.argsort(ends, kind="stable")
        self._degree = degree = np.bincount(ends, minlength=count)
        start = np.cumsum(degree) - degree
        edge_ports, lead_slots = np.arange(edge_modes), np.arange(modes, modes + self.lead_count)
        outputs = np.concatenate([edge_ports, lead_slots])[order]
        inputs = np.concatenate([edge_ports.reshape(-1, 2)[:, ::-1].ravel(), lead_slots])[order]
        self._edge_keys = list(zip((edge_ports // 2).tolist(), edges[:, ::-1].ravel().tolist()))

        # Column-major, so that the sum over the short fan-in axis runs as
        # k whole-column adds (about 3x faster than row-major here).
        fan_in = int(degree.max()) if ideal else 2
        self._S = np.full((slots, fan_in), slots, dtype=np.intp, order="F")
        self._W = np.full((slots, fan_in), F.zero, dtype=self._dtype, order="F")
        # A vertex's local sources are its own modes, then its ports, then the
        # zero slot; its rows of S and W (self._rows) are its own modes, then
        # its ports, the order of an override's rows too.
        self._rows = {}
        params = [vert.coin if ideal else vert.spec for vert in g.vertices]
        for members, S, W in self._tabulate(list(enumerate(params))):
            d, k = int(degree[members[0]]), len(members)
            channels = start[members, None] + np.arange(d)
            own = edge_modes + 3 * start[members, None] + np.arange(0 if ideal else 3 * d)
            rows = np.hstack([own, outputs[channels]])
            sources = np.hstack([own, inputs[channels], np.full((k, 1), slots)])
            self._S[rows] = sources[np.arange(k)[:, None, None], S]
            self._W[rows] = W
            self._rows.update(zip(members.tolist(), rows))

    # -- compiling -------------------------------------------------------

    def _override(self, v: int, override):
        """The coin or MultiportSpec of vertex v under ``override``."""
        if self.kind == "ideal":
            return override
        keys = ["edge_phases", "mirror_factor", "r", "t"]  # the MultiportSpec fields it may set
        if not (isinstance(override, dict) and override.keys() <= set(keys)):
            raise SpecError(f"vertex {v}: an override may set only {keys}, got {override!r}")
        return replace(self.graph.vertices[v].spec, **override)

    def _tabulate(self, items, param=lambda _v, p: p) -> list:
        """Per degree class of the (vertex, x) ``items``, x a coin or
        MultiportSpec as ``param(vertex, x)`` gives it: its indices into
        items, its local S and its members' W rows.  Its distinct parameters
        are checked and tabulated in one pass; if anything fails, the items
        are tabulated one by one, so that the error names the first bad one."""
        try:
            groups, seen = {}, {}  # degree: (members, index into distinct of each, distinct)
            degrees = self._degree[[v for v, _x in items]].tolist()
            for i, ((v, x), d) in enumerate(zip(items, degrees)):
                p = param(v, x)
                members, which, distinct = groups.setdefault(d, ([], [], []))
                key = _share_key(p)
                try:
                    j = len(distinct) if key is None else seen.setdefault((d, key), len(distinct))
                except TypeError:  # any other unhashable parameter tabulates on its own
                    j = len(distinct)
                if j == len(distinct):
                    distinct.append(p)
                members.append(i)
                which.append(j)
            return [
                (np.array(members), *self._class_table(d, distinct, which))
                for d, (members, which, distinct) in groups.items()
            ]
        except Exception:
            for v, x in items:
                self._class_table(int(self._degree[v]), [param(v, x)], [0], v)
            raise

    def _class_table(self, d: int, params, which, v=None):
        """Local S, and W rows for degree-d vertices with the params[which];
        an error names v, the vertex when there is one."""
        for p in params:
            if self.kind == "physical":
                if p.n != d:
                    raise SpecError(f"vertex {v}: multiport has {p.n} ports, degree is {d}")
                if p.mode != self.mode:
                    raise SpecError(f"vertex {v}: multiport numeric mode differs from graph")
            elif d == 0:
                raise SpecError(f"vertex {v} has no edges or leads")
            elif not isinstance(p, Matrix):
                raise SpecError(f"vertex {v}: an ideal vertex takes a coin Matrix")
            elif p.dim != d:
                raise SpecError(f"vertex {v}: coin dimension {p.dim} != degree {d}")
            elif p.mode != self.mode:
                raise SpecError(f"vertex {v}: coin numeric mode differs from graph")
        if self.kind == "physical":
            S, W = gather_table(*map(compile_spec, params))
            return S, W.reshape(-1, *S.shape)[which]
        coins = np.array([c.rows for c in params], dtype=self._dtype)
        a = coins.astype(complex, copy=False)
        deviation = np.abs(a @ a.conj().transpose(0, 2, 1) - np.eye(d)).max(axis=(1, 2))
        if not (deviation <= _COIN_TOL).all():  # NaN fails too
            raise SpecError(f"vertex {v}: coin is not unitary")
        S = np.minimum(np.arange(self._S.shape[1]), d)[None].repeat(d, axis=0)
        W = np.full((len(which), d, S.shape[1]), exact.field(self.mode).zero, dtype=self._dtype)
        W[:, :, :d] = coins[which]
        return S, W

    def _weights(self, schedule: dict, steps: int) -> list:
        """W for each of ``steps`` steps: the base W, or on a scheduled step
        a copy with its overridden vertices' rows rebuilt."""
        weights, at, count = [self._W] * steps, [], len(self.graph.vertices)
        for k, by_vertex in schedule.items():
            if not (hasattr(k, "__index__") and operator.index(k) >= 1):
                raise SpecError(f"a schedule step must be an integer >= 1, got {k!r}")
            at += [
                (operator.index(k), _vertex_index(v, count, "schedule override"), x)
                for v, x in by_vertex.items()
            ]
        at = sorted((a for a in at if a[0] <= steps), key=lambda a: a[0])
        for k in {k for k, _v, _x in at}:
            weights[k - 1] = self._W.copy(order="F")
        for index, _S, W in self._tabulate([(v, x) for _k, v, x in at], self._override):
            for i, w in zip(index.tolist(), W):
                weights[at[i][0] - 1][self._rows[at[i][1]]] = w
        return weights

    # -- the run ---------------------------------------------------------

    def run(
        self,
        input_lead: Union[int, Dict[int, object]],
        steps: int,
        schedule: Optional[Schedule] = None,
    ) -> WalkResult:
        if steps < 1:
            raise SpecError("steps must be >= 1")
        slots = self._S.shape[0]  # the next state's modes, then one output per lead
        if steps * slots > _MAX_RECORD_AMPLITUDES:
            raise SpecError(
                f"a walk records at most {_MAX_RECORD_AMPLITUDES} amplitudes; "
                f"{steps} steps x {slots} slots is {steps * slots}"
            )
        F = exact.field(self.mode)
        try:
            pairs = {input_lead: F.one} if hasattr(input_lead, "__index__") else dict(input_lead)
            injection = {operator.index(l): _amplitude(F, amp) for l, amp in pairs.items()}
        except (TypeError, ValueError):
            raise SpecError(
                f"an injection is a lead or maps leads to amplitudes, got {input_lead!r}"
            ) from None
        for l in injection:
            if not 0 <= l < self.lead_count:
                raise SpecError(f"no lead {l}")
        try:
            injected_prob = sum(float(exact.abs_sq(a)) for a in injection.values())
        except OverflowError:  # an exact |a|^2 beyond the float range
            injected_prob = math.inf
        if not math.isfinite(injected_prob):
            raise SpecError(f"an injection's summed |a|^2 must be finite, got {injected_prob}")
        weights = self._weights(schedule.overrides if schedule else {}, steps)

        # Row k of the history is the state before step k + 1: the modes,
        # then (row 0) the injection or (later rows) the exits, then zero.
        modes = self._modes
        hist = np.full((steps + 1, slots + 1), F.zero, dtype=self._dtype)
        for l, amp in injection.items():
            hist[0, modes + l] = amp
        gather_steps(self._S, weights, hist, modes)

        lead_amps = hist[1:, modes:slots].copy()
        # probs is |out|^2 in floats; nonzero is nonzero where out is.
        if self.mode == "exact":
            nonzero = hist.astype(bool)
            probs = np.zeros(hist.shape)
            probs[nonzero] = [a.abs_sq() for a in hist[nonzero]]
        else:
            # |a|^2 as re^2 + im^2, with im^2 written over im.
            nonzero = probs = hist.real * hist.real
            probs += np.multiply(hist.imag, hist.imag, out=hist.imag)
        del hist
        # The lead columns of probs become their running sums in place.
        lead_cum = np.cumsum(probs[1:, modes:slots], axis=0, out=probs[1:, modes:slots])
        internal = probs[1:, :modes].sum(axis=1)
        deviation = np.maximum.accumulate(np.abs(internal + lead_cum.sum(axis=1) - injected_prob))
        keys, live = self._edge_keys, None
        edge_probs = probs[1:, : len(keys)]
        if self.kind == "ideal":
            # A step lists only the out-edges of vertices that held
            # amplitude; an ideal vertex's rows each gather all its inputs,
            # and leads hold none after step 1.
            held = nonzero.astype(bool)
            held[1:, modes:slots] = False
            live = held[:-1][:, self._S[: len(keys)]].any(axis=2)

        def record(k: int) -> WalkStep:
            edges = zip(keys, edge_probs[k].tolist())
            edges = dict(edges if live is None else compress(edges, live[k].tolist()))
            amps, cum = tuple(lead_amps[k].tolist()), tuple(lead_cum[k].tolist())
            return WalkStep(k + 1, edges, amps, cum, float(internal[k]), float(deviation[k]))

        return WalkResult(_StepRecords(record, steps))


def build_network(g: GraphSpec) -> WalkEngine:
    return WalkEngine(g)


def run_walk(
    engine: WalkEngine,
    input_lead: Union[int, Dict[int, object]],
    steps: int,
    schedule: Optional[Schedule] = None,
) -> WalkResult:
    return engine.run(input_lead, steps, schedule)


def grover_vertex(degree: int, mode: str = "float") -> IdealVertex:
    return IdealVertex(grover_coin(degree, mode))


@dataclass
class CoherenceBudget:
    """How many mutually coherent device traversals a source supports."""

    max_steps: Optional[int]
    unbounded: bool
    ratio: float
    coherence_time: float
    decay_time: float


def coherence_budget(coherence_time: float, decay_time: float) -> CoherenceBudget:
    """floor(coherence_time / decay_time), with the raw ratio attached."""
    if decay_time <= 0:
        raise SpecError("decay time must be positive")
    if coherence_time <= 0:
        raise SpecError("coherence time must be positive")
    if math.isinf(coherence_time):
        return CoherenceBudget(None, True, math.inf, coherence_time, decay_time)
    ratio = coherence_time / decay_time
    return CoherenceBudget(int(math.floor(ratio)), False, ratio, coherence_time, decay_time)
