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
up to the largest degree.  Each distinct vertex is tabulated once (a
multiport by ``device.gather_table``), and every vertex's rows are
placed into S and W by two index maps.  A scheduled override rebuilds
only its vertex's rows, in a copy of W.  A run steps one history array
through ``device.gather_steps``, the kernel that also steps exit
records, and builds a step's WalkStep from its arrays when the step is
first read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import exact
from .device import _MAX_RECORD_AMPLITUDES, MultiportSpec, compile_spec, grover_coin
from .device import gather_steps, gather_table, step_record
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
    only on their step; the base parameters return afterwards.  Every
    vertex named must be in the graph.
    """

    overrides: Dict[int, Dict[int, object]] = field(default_factory=dict)

    def for_step(self, step: int) -> Dict[int, object]:
        return self.overrides.get(step, {})


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


def _vertex_channels(g: GraphSpec):
    """The edges as vertex pairs, and channels[v] = ordered list of
    ('edge', e) / ('lead', l) descriptors."""
    count = len(g.vertices)
    edges: List[Tuple[int, int]] = []
    channels: List[List[Tuple[str, int]]] = [[] for _ in range(count)]
    for e, edge in enumerate(g.edges):
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise SpecError(f"edge {e} must be a pair of vertices, got {edge!r}") from None
        u = _vertex_index(u, count, f"edge {e}")
        v = _vertex_index(v, count, f"edge {e}")
        if u == v:
            raise SpecError("self-loop edges are not supported")
        edges.append((u, v))
        channels[u].append(("edge", e))
        channels[v].append(("edge", e))
    for l, v in enumerate(g.leads):
        channels[_vertex_index(v, count, f"lead {l}")].append(("lead", l))
    return edges, channels


def _check_connected(count: int, edges, allow_disconnected: bool):
    adj: List[set] = [set() for _ in range(count)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    if len(seen) != count and not allow_disconnected:
        raise SpecError("graph is disconnected (set allow_disconnected to permit)")


def _abs_sq(amps: np.ndarray) -> np.ndarray:
    """|a|^2 per entry, in the entries' own scalar type."""
    if amps.dtype == object:
        return np.array([a.abs_sq() for a in amps], dtype=object)
    return amps.real * amps.real + amps.imag * amps.imag


def _share_key(values) -> tuple:
    """Vertex parameters as a key, each value with its type: exact mode
    takes r = 1 but refuses 1.0.  A list becomes a tuple."""
    return tuple(
        (tuple(x), tuple(map(type, x))) if isinstance(x, (list, tuple)) else (x, type(x))
        for x in values
    )


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
        edges, self.channels = _vertex_channels(g)
        _check_connected(len(g.vertices), edges, g.allow_disconnected)
        self.graph = g
        self.mode = g.mode
        self.kind = "ideal" if isinstance(g.vertices[0], IdealVertex) else "physical"
        ideal = self.kind == "ideal"
        model = IdealVertex if ideal else PhysicalVertex
        if not all(isinstance(vert, model) for vert in g.vertices):
            raise SpecError("all vertices must share one vertex model")
        ports = 2 * len(edges) + len(g.leads)  # each with 3 own modes at a physical vertex
        slots = ports if ideal else 4 * ports
        if slots > _MAX_RECORD_AMPLITUDES:
            raise SpecError(
                f"a walk state holds at most {_MAX_RECORD_AMPLITUDES} amplitudes; "
                f"this graph has {slots}"
            )
        self._dtype = object if self.mode == "exact" else complex
        fan_in = max(map(len, self.channels)) if ideal else 2
        # Distinct vertices compile, check and tabulate once.  0.0 and -0.0 may
        # share a key: a gather's sums start from +0, so the sign is lost.
        tables, keys = {}, []
        for v, vert in enumerate(g.vertices):
            degree = len(self.channels[v])
            if ideal:
                if degree == 0:
                    raise SpecError(f"vertex {v} has no edges or leads")
                c = vert.coin
                key = (degree, c.mode, c.rows) if isinstance(c, Matrix) else v
            else:
                if vert.spec.n != degree:
                    raise SpecError(
                        f"vertex {v}: multiport has {vert.spec.n} ports, degree is {degree}"
                    )
                if vert.spec.mode != g.mode:
                    raise SpecError(f"vertex {v}: multiport numeric mode differs from graph")
                key = _share_key(vars(vert.spec).values())
            try:
                shared = key in tables
            except TypeError:  # an unhashable parameter compiles on its own
                key, shared = v, False
            if not shared:
                params = self._checked_coin(v, vert.coin) if ideal else compile_spec(vert.spec)
                tables[key] = self._local_rows(params, fan_in)
            keys.append(key)

        self.lead_count = len(g.leads)
        self.inter_vertex_mode_count = 2 * len(edges)
        # Per physical vertex, CompiledMultiport.inter_vertex_mode_count +
        # mirror_stub_mode_count = 4n: 2n polygon-edge modes (cw, ccw) and
        # 2n mirror-stub modes (into and back out of each stub).  The state
        # vector below folds each mirror round trip into one mode, so it
        # holds 3n per vertex.
        self.intra_vertex_mode_count = 0 if ideal else 4 * ports

        # State layout: directed edge e = (u, w) is mode 2e toward w and
        # 2e + 1 toward u; physical vertex v then owns its cw, ccw and
        # mirror modes; lead l's input slot and output row are both
        # _modes + l; the last slot stays zero.  src_map holds vertex v's
        # local modes (see _local_rows) and padding slot from offsets[v];
        # out_map holds every vertex's output rows, vertex after vertex.
        self._edges = edges
        self._edge_keys = [(e, w) for e, (u, v) in enumerate(edges) for w in (v, u)]
        self._modes = slots - self.lead_count
        zero_slot = slots
        src_map, out_map, offsets = [], [], []
        own = range(len(self._edge_keys))
        for v, chans in enumerate(self.channels):
            own = range(own.stop, own.stop if ideal else own.stop + 3 * len(chans))
            sources = [
                2 * idx + (v == edges[idx][0]) if kind == "edge" else self._modes + idx
                for kind, idx in chans
            ]
            offsets.append(len(src_map))
            src_map += [*own, *sources, zero_slot]
            # A lead's slot is its input and its output; an edge's two modes
            # differ in their last bit.
            out_map += [*own, *(s ^ 1 if s < self._modes else s for s in sources)]
        counts = [len(tables[k][0]) for k in keys]
        shift = np.repeat(offsets, counts)
        srcs, weights = (np.concatenate(part) for part in zip(*(tables[k] for k in keys)))
        rows = np.array(out_map)
        # Vertex v's rows of S and W, in its local order; an override's
        # rows come in the same order.
        self._rows = np.split(rows, np.cumsum(counts)[:-1])

        # Column-major, so that the sum over the short fan-in axis runs as
        # k whole-column adds (about 3x faster than row-major here).
        self._S = np.full((slots, fan_in), zero_slot, dtype=np.intp, order="F")
        self._W = np.full((slots, fan_in), F.zero, dtype=self._dtype, order="F")
        self._S[rows] = np.array(src_map)[srcs + shift[:, None]]
        self._W[rows] = weights

    # -- compiling -------------------------------------------------------

    def _checked_coin(self, v: int, coin) -> Matrix:
        degree = len(self.channels[v])
        if not isinstance(coin, Matrix):
            raise SpecError(f"vertex {v}: an ideal vertex takes a coin Matrix")
        if coin.dim != degree:
            raise SpecError(f"vertex {v}: coin dimension {coin.dim} != degree {degree}")
        if coin.mode != self.mode:
            raise SpecError(f"vertex {v}: coin numeric mode differs from graph")
        if not coin.unitarity_dev() <= _COIN_TOL:  # NaN fails too
            raise SpecError(f"vertex {v}: coin is not unitary")
        return coin

    def _local_rows(self, params, fan_in: int):
        """A vertex's (sources, weights) arrays, one row of fan_in terms per
        own mode and port, over its own modes, one slot per port and a padding
        slot: a multiport's ``device.gather_table`` over 3n own modes, or a
        coin's row q, gathering port p with weight coin[q][p], over none."""
        if self.kind == "physical":  # every row of a multiport has fan_in = 2 terms
            return gather_table(params)
        d, pad = params.dim, fan_in - params.dim
        srcs = [*range(d), *[d] * pad] * d
        filler = [exact.field(self.mode).zero] * pad
        weights = [w for r in params.rows for w in (*r, *filler)]
        return (
            np.array(srcs, dtype=np.intp).reshape(-1, fan_in),
            np.array(weights, dtype=self._dtype).reshape(-1, fan_in),
        )

    def _override_params(self, v: int, override):
        if self.kind == "ideal":
            return self._checked_coin(v, override)
        keys = ["edge_phases", "mirror_factor", "r", "t"]  # the MultiportSpec fields it may set
        if not (isinstance(override, dict) and override.keys() <= set(keys)):
            raise SpecError(f"vertex {v}: an override may set only {keys}, got {override!r}")
        return compile_spec(replace(self.graph.vertices[v].spec, **override))

    def _weights_with(self, overrides) -> np.ndarray:
        """A copy of W with the overridden vertices' rows rebuilt."""
        W = self._W.copy(order="F")
        for v, override in overrides.items():
            W[self._rows[v]] = self._local_rows(self._override_params(v, override), W.shape[1])[1]
        return W

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
        if schedule is not None:
            for per_vertex in schedule.overrides.values():
                for v in per_vertex:
                    _vertex_index(v, len(self.graph.vertices), "schedule override")
        overrides = map(schedule.for_step, range(1, steps + 1)) if schedule else [{}] * steps
        weights = [self._weights_with(o) if o else self._W for o in overrides]

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
            probs[nonzero] = _abs_sq(hist[nonzero])
        else:
            # |a|^2 as _abs_sq forms it, with im^2 written over im.
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
