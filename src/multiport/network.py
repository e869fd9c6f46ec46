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
up to the largest degree.  A float step is one numpy gather,
``(W * x[S]).sum(axis=1)``; exact mode evaluates the same expression over
object arrays of ExactComplex.  A scheduled override rebuilds only its
vertex's rows, in a copy of W used for that step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import exact
from .device import _MAX_RECORD_AMPLITUDES, MultiportSpec, compile_spec, grover_coin, step_rows
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


@dataclass
class WalkResult:
    steps: List[WalkStep]

    def cumulative_exit(self, step_index: int) -> float:
        return float(sum(self.steps[step_index - 1].lead_cumulative_probability))


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


class WalkEngine:
    """Compiled walk over a GraphSpec; each run owns its state vector."""

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
        model = IdealVertex if self.kind == "ideal" else PhysicalVertex
        if not all(isinstance(vert, model) for vert in g.vertices):
            raise SpecError("all vertices must share one vertex model")
        self._params = []  # the coin or CompiledMultiport of every vertex
        for v, vert in enumerate(g.vertices):
            degree = len(self.channels[v])
            if self.kind == "ideal":
                if degree == 0:
                    raise SpecError(f"vertex {v} has no edges or leads")
                self._params.append(self._checked_coin(v, vert.coin))
            else:
                if vert.spec.n != degree:
                    raise SpecError(
                        f"vertex {v}: multiport has {vert.spec.n} ports, degree is {degree}"
                    )
                if vert.spec.mode != g.mode:
                    raise SpecError(f"vertex {v}: multiport numeric mode differs from graph")
                self._params.append(compile_spec(vert.spec))

        self.lead_count = len(g.leads)
        self.inter_vertex_mode_count = 2 * len(edges)
        # Per physical vertex, CompiledMultiport.inter_vertex_mode_count +
        # mirror_stub_mode_count = 4n: 2n polygon-edge modes (cw, ccw) and
        # 2n mirror-stub modes (into and back out of each stub).  The state
        # vector below folds each mirror round trip into one mode, so it
        # holds 3n per vertex.
        if self.kind == "physical":
            self.intra_vertex_mode_count = sum(4 * v.spec.n for v in g.vertices)
        else:
            self.intra_vertex_mode_count = 0

        # State layout: directed edge e = (u, w) is mode 2e toward w and
        # 2e + 1 toward u; physical vertex v then owns cw, ccw and mirror
        # modes from _intra_base[v]; lead l's input slot and output row are
        # both _modes + l; the last slot of x stays zero.
        self._edges = edges
        self._edge_keys = [(e, w) for e, (u, v) in enumerate(edges) for w in (v, u)]
        base = len(self._edge_keys)
        self._intra_base = []
        for vert in g.vertices:
            self._intra_base.append(base)
            if self.kind == "physical":
                base += 3 * vert.spec.n
        self._modes = base
        zero_slot = base + self.lead_count
        self._dtype = object if self.mode == "exact" else complex

        rows = [row for v in range(len(g.vertices)) for row in self._vertex_rows(v, self._params[v])]
        fan_in = max(len(terms) for _out, terms in rows)
        # Column-major, so that the sum over the short fan-in axis runs as
        # k whole-column adds (about 3x faster than row-major here).
        self._S = np.full((zero_slot, fan_in), zero_slot, dtype=np.intp, order="F")
        self._W = np.full(
            (zero_slot, fan_in), F.zero, dtype=self._dtype, order="F"
        )
        for out, terms in rows:
            self._S[out, : len(terms)] = [src for src, _w in terms]
            self._W[out, : len(terms)] = [w for _src, w in terms]

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

    def _vertex_rows(self, v: int, params):
        """(output, ((source, weight), ...)) for every output of vertex v.

        Its own rows run over its own modes, then one slot per port: a
        multiport's ``device.step_rows`` over 3n modes, or a coin's row q,
        gathering port p with weight coin[q][p], over none.  Own mode i is
        placed at _intra_base[v] + i, and port slot p at channel p's
        incoming mode as a source and its outgoing mode as an output."""
        if self.kind == "ideal":
            own = 0
            rows = [(q, [(p, w, ()) for p, w in enumerate(r)]) for q, r in enumerate(params.rows)]
        else:
            own = 3 * params.n
            rows = step_rows(params)
        base = self._intra_base[v]
        sources = [
            2 * idx + (v == self._edges[idx][0]) if kind == "edge" else self._modes + idx
            for kind, idx in self.channels[v]
        ]
        # A lead's slot is its input and its output; an edge's two modes
        # differ in their last bit.
        outputs = [src ^ 1 if src < self._modes else src for src in sources]
        return [
            (
                base + out if out < own else outputs[out - own],
                tuple(
                    (base + src if src < own else sources[src - own], w)
                    for src, w, _symbol in terms
                ),
            )
            for out, terms in rows
        ]

    def _override_params(self, v: int, override):
        if self.kind == "ideal":
            return self._checked_coin(v, override)
        if not isinstance(override, dict):
            raise SpecError(f"vertex {v}: a physical-vertex override is a parameter dict")
        spec = self.graph.vertices[v].spec
        return compile_spec(
            MultiportSpec(
                n=spec.n,
                r=override.get("r", spec.r),
                t=override.get("t", spec.t),
                mirror_factor=override.get("mirror_factor", spec.mirror_factor),
                edge_phases=override.get("edge_phases", spec.edge_phases),
                max_steps=spec.max_steps,
                mode=spec.mode,
            )
        )

    def _weights_with(self, overrides) -> np.ndarray:
        """A copy of W with the overridden vertices' rows rebuilt."""
        W = self._W.copy(order="F")
        for v, override in overrides.items():
            for out, terms in self._vertex_rows(v, self._override_params(v, override)):
                W[out, : len(terms)] = [w for _src, w in terms]
        return W

    def _gather_exact(self, W: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``(W * x[S]).sum(axis=1)`` over the nonzero terms only.

        An ExactComplex product is 64 integer products and one gcd, and
        most of a sparse walk state and every padding weight are zero."""
        S = self._S
        rows, cols = np.nonzero(W.astype(bool) & x.astype(bool)[S])
        out = np.full(S.shape[0], exact.ZERO, dtype=object)
        for r, w, a in zip(rows.tolist(), W[rows, cols].tolist(), x[S[rows, cols]].tolist()):
            term = w * a
            out[r] = term if out[r] is exact.ZERO else out[r] + term
        return out

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
        if isinstance(input_lead, int):
            injection = {input_lead: F.one}
        else:
            injection = dict(input_lead)
        for l in injection:
            if not 0 <= l < self.lead_count:
                raise SpecError(f"no lead {l}")
        if schedule is not None:
            for per_vertex in schedule.overrides.values():
                for v in per_vertex:
                    _vertex_index(v, len(self.graph.vertices), "schedule override")

        modes, edge_modes = self._modes, len(self._edge_keys)
        x = np.full(slots + 1, F.zero, dtype=self._dtype)
        for l, amp in injection.items():
            x[modes + l] = amp
        injected_prob = sum(float(exact.abs_sq(a)) for a in injection.values())
        # Per step: |out|^2 of every output, the lead amplitudes, and (for
        # ideal walks) which slots of x held amplitude before the step.
        probs = np.empty((steps, slots))
        lead_amps = np.empty((steps, self.lead_count), dtype=self._dtype)
        held = np.zeros((steps + 1, slots + 1), dtype=bool)
        held[0] = _abs_sq(x) != 0

        for k in range(steps):
            overrides = schedule.for_step(k + 1) if schedule else {}
            W = self._weights_with(overrides) if overrides else self._W
            if self.mode == "exact":
                out = self._gather_exact(W, x)
            else:
                out = (W * x[self._S]).sum(axis=1)
            out_sq = _abs_sq(out)
            probs[k] = out_sq
            lead_amps[k] = out[modes:]
            if self.kind == "ideal":
                held[k + 1, :modes] = out_sq[:modes] != 0
            x[:modes] = out[:modes]
            x[modes:] = F.zero

        # The lead columns of probs become their running sums in place.
        lead_cum = np.cumsum(probs[:, modes:], axis=0, out=probs[:, modes:])
        internal = probs[:, :modes].sum(axis=1)
        deviation = np.abs(internal + lead_cum.sum(axis=1) - injected_prob)
        edge_probs = (zip(self._edge_keys, row.tolist()) for row in probs[:, :edge_modes])
        if self.kind == "ideal":
            # A step lists only the out-edges of vertices that held
            # amplitude; an ideal vertex's rows each gather all its inputs.
            live = held[:-1][:, self._S[:edge_modes]].any(axis=2)
            edge_probs = map(compress, edge_probs, map(np.ndarray.tolist, live))
        records = zip(
            range(1, steps + 1),
            map(dict, edge_probs),
            (tuple(amps.tolist()) for amps in lead_amps),
            (tuple(cum.tolist()) for cum in lead_cum),
            internal.tolist(),
            np.maximum.accumulate(deviation).tolist(),
        )
        return WalkResult([WalkStep(*fields) for fields in records])


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
