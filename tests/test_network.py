"""Walks on multiport networks, checked against independent dense models.

The two-vertex oracle builds the global one-step transfer operator of a
pair of triangle vertices joined by one edge, entry by entry from the
wiring convention, and powers it with numpy.  It shares nothing with the
engine's sparse stepping.
"""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multiport import cli, device, exact, network
from multiport.device import (
    _MAX_RECORD_AMPLITUDES,
    MultiportSpec,
    compile_spec,
    exit_record,
    grover_coin,
)
from multiport.errors import SpecError
from multiport.matrices import Matrix
from multiport.network import (
    GraphSpec,
    IdealVertex,
    PhysicalVertex,
    Schedule,
    WalkStep,
    build_network,
    coherence_budget,
    run_walk,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def single_triport(mode="exact"):
    return GraphSpec(
        vertices=[PhysicalVertex(MultiportSpec(n=3, mode=mode))],
        edges=[],
        leads=[0, 0, 0],
        mode=mode,
    )


# ---------------------------------------------------------------------------
# structure and validation
# ---------------------------------------------------------------------------


def test_triangle_structure():
    g = GraphSpec(
        vertices=[PhysicalVertex(MultiportSpec(n=3)) for _ in range(3)],
        edges=[(0, 1), (1, 2), (2, 0)],
        leads=[0, 1, 2],
    )
    engine = build_network(g)
    assert engine.lead_count == 3
    assert engine.inter_vertex_mode_count == 6
    assert engine.intra_vertex_mode_count == 36


def test_degree_mismatch_rejected():
    g = GraphSpec(
        vertices=[IdealVertex(grover_coin(3))],
        edges=[],
        leads=[0, 0],  # degree 2, coin dimension 3
    )
    with pytest.raises(SpecError):
        build_network(g)
    g2 = GraphSpec(
        vertices=[PhysicalVertex(MultiportSpec(n=4))],
        edges=[],
        leads=[0, 0, 0],
    )
    with pytest.raises(SpecError):
        build_network(g2)


def test_disconnected_needs_flag():
    verts = [IdealVertex(grover_coin(2)) for _ in range(2)]
    g = GraphSpec(vertices=verts, edges=[], leads=[0, 0, 1, 1])
    with pytest.raises(SpecError):
        build_network(g)
    g_ok = GraphSpec(
        vertices=verts, edges=[], leads=[0, 0, 1, 1], allow_disconnected=True
    )
    build_network(g_ok)


# ---------------------------------------------------------------------------
# ideal mode
# ---------------------------------------------------------------------------


def test_ideal_single_vertex_one_step_is_coin_column():
    coin = grover_coin(3)
    engine = build_network(
        GraphSpec(vertices=[IdealVertex(coin)], edges=[], leads=[0, 0, 0])
    )
    res = engine.run(1, 1)
    for lead in range(3):
        assert complex(res.steps[0].lead_step_amplitudes[lead]) == pytest.approx(
            complex(coin.entry(lead, 1)), abs=1e-15
        )
    assert res.cumulative_exit(1) == pytest.approx(1.0, abs=1e-14)


def test_grover_reinjection_is_identity():
    coin = grover_coin(4)
    engine = build_network(
        GraphSpec(vertices=[IdealVertex(coin)], edges=[], leads=[0, 0, 0, 0])
    )
    first = engine.run(2, 1).steps[0].lead_step_amplitudes
    second = engine.run(
        {lead: amp for lead, amp in enumerate(first)}, 1
    ).steps[0].lead_step_amplitudes
    for lead in range(4):
        expect = 1.0 if lead == 2 else 0.0
        assert complex(second[lead]) == pytest.approx(expect, abs=1e-14)


def test_ideal_conservation_on_a_path_graph():
    coins = [grover_coin(2), grover_coin(3), grover_coin(2)]
    g = GraphSpec(
        vertices=[IdealVertex(c) for c in coins],
        edges=[(0, 1), (1, 2)],
        leads=[0, 1, 2],
    )
    res = build_network(g).run(0, 30)
    assert res.steps[-1].conservation_dev < 1e-13
    assert res.cumulative_exit(30) <= 1.0 + 1e-12


def test_relabeling_equivariance():
    coin = grover_coin(3)
    g1 = GraphSpec(
        vertices=[IdealVertex(coin), IdealVertex(coin)],
        edges=[(0, 1)],
        leads=[0, 0, 1, 1],
    )
    # same graph with the two vertices swapped; leads follow the relabeling
    g2 = GraphSpec(
        vertices=[IdealVertex(coin), IdealVertex(coin)],
        edges=[(1, 0)],
        leads=[1, 1, 0, 0],
    )
    r1 = build_network(g1).run(0, 12)
    r2 = build_network(g2).run(0, 12)
    for s1, s2 in zip(r1.steps, r2.steps):
        assert s1.lead_cumulative_probability == pytest.approx(
            s2.lead_cumulative_probability, abs=1e-14
        )


# ---------------------------------------------------------------------------
# physical mode
# ---------------------------------------------------------------------------


def test_physical_single_vertex_equals_device_exact():
    engine = build_network(single_triport("exact"))
    res = engine.run(0, 20)
    rec = exit_record(MultiportSpec(n=3, mode="exact"), 0, 20)
    for k in range(20):
        for port in range(3):
            assert (
                res.steps[k].lead_step_amplitudes[port]
                == rec.steps[k].amplitudes[port]
            )
    assert res.cumulative_exit(10) == pytest.approx(511 / 512)


def test_two_vertex_network_matches_dense_oracle():
    spec = MultiportSpec(n=3)
    g = GraphSpec(
        vertices=[PhysicalVertex(spec), PhysicalVertex(spec)],
        edges=[(0, 1)],
        leads=[0, 0, 1, 1],
    )
    engine = build_network(g)
    steps = 16
    res = engine.run(0, steps)

    # dense one-step operator over 9 + 9 internal modes + 2 edge modes
    r = 1j / math.sqrt(2)
    t = 1 / math.sqrt(2)
    mirror = -1j
    # channel order per vertex: port 0 = shared edge, ports 1, 2 = leads
    def cw(v, p):
        return 11 * v + p

    def ccw(v, p):
        return 11 * v + 3 + p

    def mir(v, p):
        return 11 * v + 6 + p

    def edge_to(v):  # mode travelling toward vertex v
        return 9 if v == 1 else 10

    dim = 22
    T = np.zeros((dim, dim), dtype=complex)
    exits = {}  # (vertex, port) -> extraction row
    for v in (0, 1):
        for p in range(3):
            # arrivals: a_s from cw(p-1), a_e from ccw(p+1), a_m from mir(p),
            # a_x from the inter-vertex edge when p == 0
            row_ext = np.zeros(dim, dtype=complex)
            row_ext[ccw(v, (p + 1) % 3)] = t
            row_ext[cw(v, (p - 1) % 3)] = r
            if p == 0:
                T[edge_to(1 - v)] += row_ext  # out through the shared edge
            else:
                exits[(v, p)] = row_ext
            row_mir = np.zeros(dim, dtype=complex)
            row_mir[ccw(v, (p + 1) % 3)] = r
            row_mir[cw(v, (p - 1) % 3)] = t
            T[mir(v, p)] = row_mir * mirror
            row_e = np.zeros(dim, dtype=complex)
            row_e[mir(v, p)] = r
            if p == 0:
                row_e[edge_to(v)] += t
            T[cw(v, p)] += row_e
            row_s = np.zeros(dim, dtype=complex)
            row_s[mir(v, p)] = t
            if p == 0:
                row_s[edge_to(v)] += r
            T[ccw(v, p)] += row_s

    # injection on lead 0 = vertex 0 port 1: post-entry internal state
    x = np.zeros(dim, dtype=complex)
    x[cw(0, 1)] = t
    x[ccw(0, 1)] = r
    lead_ports = {0: (0, 1), 1: (0, 2), 2: (1, 1), 3: (1, 2)}
    for k in range(2, steps + 1):
        dense_exits = [exits[lead_ports[l]] @ x for l in range(4)]
        engine_exits = res.steps[k - 1].lead_step_amplitudes
        for l in range(4):
            assert complex(engine_exits[l]) == pytest.approx(
                dense_exits[l], abs=1e-12
            ), (k, l)
        x = T @ x
    assert res.steps[-1].conservation_dev < 1e-13


def test_physical_conservation_heterogeneous():
    g = GraphSpec(
        vertices=[
            PhysicalVertex(MultiportSpec(n=3, mirror_factor=np.exp(0.3j))),
            PhysicalVertex(MultiportSpec(n=4, edge_phases=0.7)),
        ],
        edges=[(0, 1)],
        leads=[0, 0, 1, 1, 1],
    )
    res = build_network(g).run(2, 40)
    assert res.steps[-1].conservation_dev < 1e-13


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_schedule_override_applies_on_its_step():
    coin = grover_coin(3)
    g = GraphSpec(vertices=[IdealVertex(coin)], edges=[], leads=[0, 0, 0])
    engine = build_network(g)
    # replacing the coin with the identity reroutes everything back out of
    # the input lead on step one
    schedule = Schedule({1: {0: Matrix.identity(3)}})
    res = run_walk(engine, 1, 1, schedule)
    amps = res.steps[0].lead_step_amplitudes
    assert complex(amps[1]) == pytest.approx(1.0, abs=1e-14)
    assert complex(amps[0]) == pytest.approx(0.0, abs=1e-14)


def test_schedule_rejects_nonunitary_override():
    g = GraphSpec(vertices=[IdealVertex(grover_coin(3))], edges=[], leads=[0, 0, 0])
    engine = build_network(g)
    bad = Matrix([[1, 0, 0], [0, 0.5, 0], [0, 0, 1]])
    with pytest.raises(SpecError):
        engine.run(0, 2, Schedule({1: {0: bad}}))


def test_physical_schedule_override():
    g = single_triport("float")
    engine = build_network(g)
    # retune the splitters to 70/30 for one step mid-walk
    lopsided = {"r": 1j * math.sqrt(0.7), "t": math.sqrt(0.3)}
    schedule = Schedule({4: {0: lopsided}})
    res_plain = build_network(g).run(0, 8)
    res_sched = engine.run(0, 8, schedule)
    # identical before the override bites, different after
    assert res_sched.steps[2].lead_cumulative_probability == pytest.approx(
        res_plain.steps[2].lead_cumulative_probability
    )
    assert abs(
        res_sched.steps[7].lead_cumulative_probability[0]
        - res_plain.steps[7].lead_cumulative_probability[0]
    ) > 1e-3
    assert res_sched.steps[-1].conservation_dev < 1e-13


# ---------------------------------------------------------------------------
# coherence budget
# ---------------------------------------------------------------------------


def test_coherence_budget_values():
    assert coherence_budget(1e-9, 3.3e-12).max_steps == 303
    assert coherence_budget(1e-12, 3.3e-12).max_steps == 0
    unbounded = coherence_budget(math.inf, 3.3e-12)
    assert unbounded.unbounded and unbounded.max_steps is None
    with pytest.raises(SpecError):
        coherence_budget(1e-9, 0.0)


# ---------------------------------------------------------------------------
# parity with per-mode stepping
# ---------------------------------------------------------------------------


def _channels(g):
    """channels[v]: vertex v's ('edge', e) and ('lead', l) descriptors, its
    edges in edge-list order, then its leads in lead-list order."""
    channels = [[] for _ in g.vertices]
    for e, (u, v) in enumerate(g.edges):
        channels[u].append(("edge", e))
        channels[v].append(("edge", e))
    for l, v in enumerate(g.leads):
        channels[v].append(("lead", l))
    return channels


def _reference_run(g, input_lead, steps, schedule=None):
    """The walk stepped one mode at a time over dicts, as the engine did
    before it compiled each walk into a gather table.  Returns, per step,
    (edge probabilities, lead amplitudes, cumulative lead probabilities,
    internal probability, conservation deviation)."""
    mode = g.mode
    zero = exact.field(mode).zero
    channels = _channels(g)
    ideal = isinstance(g.vertices[0], IdealVertex)

    def peer(e, v):
        u, w = g.edges[e]
        return w if v == u else u

    def params(v, override):
        vert = g.vertices[v]
        if ideal:
            return vert.coin if override is None else override
        spec = vert.spec
        if override is not None:
            spec = MultiportSpec(
                n=spec.n,
                r=override.get("r", spec.r),
                t=override.get("t", spec.t),
                mirror_factor=override.get("mirror_factor", spec.mirror_factor),
                edge_phases=override.get("edge_phases", spec.edge_phases),
                max_steps=spec.max_steps,
                mode=spec.mode,
            )
        return compile_spec(spec)

    def ideal_step(state, inject, overrides):
        new = {}
        lead_amps = [zero] * len(g.leads)
        for v in range(len(g.vertices)):
            coin = params(v, overrides.get(v))
            incoming = [
                state.get(("edge", idx, v), zero) if kind == "edge" else inject.get(idx, zero)
                for kind, idx in channels[v]
            ]
            if all(exact.abs_sq(a) == 0 for a in incoming):
                continue
            for (kind, idx), amp in zip(channels[v], coin.apply(incoming)):
                if kind == "edge":
                    key = ("edge", idx, peer(idx, v))
                    new[key] = new[key] + amp if key in new else amp
                else:
                    lead_amps[idx] = lead_amps[idx] + amp
        return new, lead_amps

    def physical_step(state, inject, overrides):
        new = {}
        lead_amps = [zero] * len(g.leads)
        for v in range(len(g.vertices)):
            dev = params(v, overrides.get(v))
            n = dev.n
            for p in range(n):
                a_s = state.get((v, "cw", (p - 1) % n), zero)
                a_e = state.get((v, "ccw", (p + 1) % n), zero)
                a_m = state.get((v, "mir", p), zero)
                kind, idx = channels[v][p]
                a_x = state.get(("edge", idx, v), zero) if kind == "edge" else inject.get(idx, zero)
                rv, tv = dev.r[p], dev.t[p]
                out_ext = tv * a_e + rv * a_s
                if kind == "edge":
                    new[("edge", idx, peer(idx, v))] = out_ext
                else:
                    lead_amps[idx] = lead_amps[idx] + out_ext
                new[(v, "cw", p)] = (tv * a_x + rv * a_m) * dev.edge_factor[p]
                new[(v, "ccw", p)] = (rv * a_x + tv * a_m) * dev.edge_factor[(p - 1) % n]
                new[(v, "mir", p)] = (rv * a_e + tv * a_s) * dev.mirror[p]
        return new, lead_amps

    if isinstance(input_lead, int):
        injection = {input_lead: exact.field(mode).one}
    else:
        injection = dict(input_lead)
    injected = sum(float(exact.abs_sq(a)) for a in injection.values())
    state = {}
    lead_cum = [0.0] * len(g.leads)
    conservation = 0.0
    out = []
    for k in range(1, steps + 1):
        overrides = schedule.overrides.get(k, {}) if schedule else {}
        step = ideal_step if ideal else physical_step
        state, lead_amps = step(state, injection if k == 1 else {}, overrides)
        for l, amp in enumerate(lead_amps):
            lead_cum[l] += float(exact.abs_sq(amp))
        internal = sum(float(exact.abs_sq(a)) for a in state.values())
        conservation = max(conservation, abs(internal + sum(lead_cum) - injected))
        edges = {}
        for key, amp in state.items():
            if key[0] == "edge":
                edges[(key[1], key[2])] = float(exact.abs_sq(amp))
        out.append((edges, lead_amps, list(lead_cum), internal, conservation))
    return out


def _random_tree(rng, count, extra):
    edges = [(rng.randrange(v), v) for v in range(1, count)]
    pairs = [(u, v) for u in range(count) for v in range(u + 1, count)]
    edges += rng.sample([p for p in pairs if p not in edges], min(extra, len(pairs) - len(edges)))
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


def _edge_degrees(count, edges):
    degree = [0] * count
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return degree


def _random_unitary(rng, dim):
    a = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)] for _ in range(dim)]
    )
    q, r = np.linalg.qr(a)
    return Matrix.from_numpy(q * (np.diag(r) / np.abs(np.diag(r))))


def _random_splitter(rng):
    theta, phi = rng.uniform(0.1, 1.4), rng.uniform(0, 2 * math.pi)
    lead = complex(math.cos(phi), math.sin(phi))
    return 1j * math.sin(theta) * lead, math.cos(theta) * lead


def _random_device(rng, n, mode):
    if mode == "exact":
        return MultiportSpec(
            n=n,
            mirror_factor=[exact.eighth_root(rng.randrange(8)) for _ in range(n)],
            edge_phases=[rng.randrange(8) * math.pi / 4 for _ in range(n)],
            mode="exact",
        )
    pairs = [_random_splitter(rng) for _ in range(n)]
    return MultiportSpec(
        n=n,
        r=[r for r, _t in pairs],
        t=[t for _r, t in pairs],
        mirror_factor=[np.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n)],
        edge_phases=[rng.uniform(0, 2 * math.pi) for _ in range(n)],
    )


def _random_coin(rng, dim, mode):
    if mode == "exact":
        if dim == 1:
            return Matrix.identity(1, "exact").scaled(exact.eighth_root(rng.randrange(8)))
        return grover_coin(dim, "exact").scaled(exact.eighth_root(rng.randrange(8)))
    return _random_unitary(rng, dim)


def _random_override(rng, vertex, mode):
    if isinstance(vertex, IdealVertex):
        return _random_coin(rng, vertex.coin.dim, mode)
    if mode == "exact":
        return {
            "mirror_factor": exact.eighth_root(rng.randrange(8)),
            "edge_phases": rng.randrange(8) * math.pi / 4,
        }
    r, t = _random_splitter(rng)
    return {"r": r, "t": t, "mirror_factor": np.exp(1j * rng.uniform(0, 2 * math.pi))}


def _random_schedule(rng, vertices, steps, mode):
    overrides = {}
    for step in rng.sample(range(1, steps + 1), min(3, steps)):
        chosen = rng.sample(range(len(vertices)), min(2, len(vertices)))
        overrides[step] = {v: _random_override(rng, vertices[v], mode) for v in chosen}
    return Schedule(overrides)


def _ring_graph(count, vertex):
    edges = [(v, (v + 1) % count) for v in range(count)]
    return [vertex(3) for _ in range(count)], edges, list(range(count))


def _grid_graph(width, vertex):
    edges = []
    for y in range(width):
        for x in range(width):
            v = y * width + x
            if x + 1 < width:
                edges.append((v, v + 1))
            if y + 1 < width:
                edges.append((v, v + width))
    degree = _edge_degrees(width * width, edges)
    leads = [v for v, d in enumerate(degree) for _ in range(4 - d)]
    return [vertex(4) for _ in range(width * width)], edges, leads


def _path_graph(count, vertex):
    edges = [(v, v + 1) for v in range(count - 1)]
    leads = [0] + list(range(count)) + [count - 1]
    degree = [d + leads.count(v) for v, d in enumerate(_edge_degrees(count, edges))]
    return [vertex(d) for d in degree], edges, leads


def _mixed_graph(rng, count, vertex, min_degree):
    edges = _random_tree(rng, count, rng.randrange(3))
    degree = _edge_degrees(count, edges)
    leads = [v for v in range(count) for _ in range(max(min_degree - degree[v], 0) + rng.randrange(3))]
    rng.shuffle(leads)
    degree = [d + leads.count(v) for v, d in enumerate(degree)]
    return [vertex(d) for d in degree], edges, leads


def _parity_cases(mode):
    """(graph, input, steps, schedule) over seeded rings, grids, path graphs,
    mixed-degree ideal graphs and heterogeneous physical graphs with mixed
    port counts, each plain and with a schedule."""
    rng = random.Random(20 if mode == "exact" else 10)
    small = mode == "exact"
    shapes = [
        (_ring_graph, 3 if small else 9),
        (_grid_graph, 2 if small else 3),
        (_path_graph, 3 if small else 5),
    ]
    cases = []
    for kind in ("ideal", "physical"):
        for hetero in (False, True):
            if kind == "ideal":
                def vertex(d, hetero=hetero):
                    if not hetero:
                        return IdealVertex(grover_coin(d, mode) if d > 1 else Matrix.identity(1, mode))
                    return IdealVertex(_random_coin(rng, d, mode))
            else:
                def vertex(d, hetero=hetero):
                    if not hetero:
                        return PhysicalVertex(MultiportSpec(n=d, mode=mode))
                    return PhysicalVertex(_random_device(rng, d, mode))
            graphs = [
                build(size, vertex)
                for build, size in shapes
                if kind == "ideal" or build is not _path_graph
            ]
            for _ in range(1 if small else 4):
                graphs.append(_mixed_graph(rng, 3 if small else 6, vertex, 1 if kind == "ideal" else 3))
            steps = 6 if small else (40 if kind == "ideal" else 30)
            for vertices, edges, leads in graphs:
                g = GraphSpec(vertices=vertices, edges=edges, leads=leads, mode=mode)
                lead = rng.randrange(len(leads))
                cases.append((g, lead, steps, None))
                cases.append((g, lead, steps, _random_schedule(rng, vertices, steps, mode)))
            ring = GraphSpec(*graphs[0], mode=mode)
            one = exact.INV_SQRT2 if mode == "exact" else 1 / math.sqrt(2)
            cases.append((ring, {0: one, len(ring.leads) - 1: -one}, steps, None))
    return cases


def test_compiled_walk_matches_per_mode_stepping_float():
    cases = _parity_cases("float")
    assert len(cases) > 40
    for g, lead, steps, schedule in cases:
        got = build_network(g).run(lead, steps, schedule).steps
        want = _reference_run(g, lead, steps, schedule)
        assert len(got) == len(want) == steps
        for step, (edges, lead_amps, lead_cum, internal, conservation) in zip(got, want):
            assert set(step.edge_probabilities) == set(edges)
            for key, p in edges.items():
                assert abs(step.edge_probabilities[key] - p) < 1e-12
            assert all(type(a) is complex for a in step.lead_step_amplitudes)
            for a, b in zip(step.lead_step_amplitudes, lead_amps, strict=True):
                assert abs(a - b) < 1e-12
            assert step.lead_cumulative_probability == pytest.approx(lead_cum, abs=1e-12)
            assert step.internal_probability == pytest.approx(internal, abs=1e-12)
            assert step.conservation_dev < 1e-12 and conservation < 1e-12


def test_compiled_walk_matches_per_mode_stepping_exact():
    cases = _parity_cases("exact")
    assert len(cases) > 20
    for g, lead, steps, schedule in cases:
        got = build_network(g).run(lead, steps, schedule).steps
        want = _reference_run(g, lead, steps, schedule)
        assert len(got) == len(want) == steps
        for step, (edges, lead_amps, _cum, _internal, _conservation) in zip(got, want):
            assert set(step.edge_probabilities) == set(edges)
            assert list(step.lead_step_amplitudes) == lead_amps
            assert all(isinstance(a, exact.ExactComplex) for a in step.lead_step_amplitudes)


# ---------------------------------------------------------------------------
# parity with the per-step record loop
# ---------------------------------------------------------------------------


def _abs_sq(amps):
    """|a|^2 per entry, in the entries' own scalar type."""
    if amps.dtype == object:
        return np.array([a.abs_sq() for a in amps], dtype=object)
    return amps.real * amps.real + amps.imag * amps.imag


def _stepwise_run(engine, input_lead, steps, schedule=None):
    """``WalkEngine.run`` as it was before it recorded from per-step
    arrays: running lead, internal and conservation sums, and one
    WalkStep built inside the step loop."""
    F = exact.field(engine.mode)
    if isinstance(input_lead, int):
        injection = {input_lead: F.one}
    else:
        injection = dict(input_lead)
    modes, edge_modes = engine._modes, len(engine._edge_keys)
    x = np.full(engine._S.shape[0] + 1, F.zero, dtype=engine._dtype)
    for l, amp in injection.items():
        x[modes + l] = amp
    x_sq = _abs_sq(x)
    # Each vertex's input slots, padded with the zero slot, and the vertex
    # each directed edge mode leaves: edge e = (u, w) is mode 2e toward w
    # and 2e + 1 toward u.
    zero_slot = engine._S.shape[0]
    channels, edges = _channels(engine.graph), engine.graph.edges
    width = max(len(chans) for chans in channels)
    vertex_inputs = np.full((len(channels), width), zero_slot)
    for v, chans in enumerate(channels):
        vertex_inputs[v, : len(chans)] = [
            2 * idx + (v == edges[idx][0]) if kind == "edge" else modes + idx
            for kind, idx in chans
        ]
    edge_source = np.array([w for (u, v) in edges for w in (u, v)], dtype=np.intp)
    lead_cum = np.zeros(engine.lead_count)
    injected_prob = sum(float(exact.abs_sq(a)) for a in injection.values())
    conservation = 0.0
    records = []

    for k in range(1, steps + 1):
        overrides = schedule.overrides.get(k, {}) if schedule else {}
        W = engine._weights({1: overrides}, 1)[0]
        if engine.mode == "exact":
            out = np.array(device._gather_exact(W, x, engine._S), dtype=object)
        else:
            out = (W * x[engine._S]).sum(axis=1)
        out_sq = _abs_sq(out)
        probs = out_sq.astype(float, copy=False)
        edge_probs = zip(engine._edge_keys, probs[:edge_modes].tolist())
        if engine.kind == "ideal":
            live = (x_sq[vertex_inputs] != 0).any(axis=1)[edge_source]
            edge_probs = compress(edge_probs, live.tolist())
        x[:modes] = out[:modes]
        x[modes:] = F.zero
        x_sq[:modes] = out_sq[:modes]
        x_sq[modes:] = 0
        lead_cum += probs[modes:]
        internal = float(probs[:modes].sum())
        total = internal + float(lead_cum.sum())
        conservation = max(conservation, abs(total - injected_prob))
        records.append(
            WalkStep(
                k,
                dict(edge_probs),
                tuple(out[modes:].tolist()),
                tuple(lead_cum.tolist()),
                internal,
                conservation,
            )
        )
    return records


def _assert_same_records(got, want):
    """Every field equal under ``==``, floats also equal bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.index == b.index
        assert list(a.edge_probabilities.items()) == list(b.edge_probabilities.items())
        assert a.lead_step_amplitudes == b.lead_step_amplitudes
        assert a.lead_cumulative_probability == b.lead_cumulative_probability
        assert a.internal_probability == b.internal_probability
        assert a.conservation_dev == b.conservation_dev
        floats = [
            *a.edge_probabilities.values(), *a.lead_cumulative_probability,
            a.internal_probability, a.conservation_dev,
        ]
        want_floats = [
            *b.edge_probabilities.values(), *b.lead_cumulative_probability,
            b.internal_probability, b.conservation_dev,
        ]
        assert list(map(repr, floats)) == list(map(repr, want_floats))
        assert [type(v) for v in a.lead_step_amplitudes] == [
            type(v) for v in b.lead_step_amplitudes
        ]


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_run_matches_stepwise_records(mode):
    for g, lead, steps, schedule in _parity_cases(mode):
        engine = build_network(g)
        _assert_same_records(
            engine.run(lead, steps, schedule).steps, _stepwise_run(engine, lead, steps, schedule)
        )


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("walk_*.json")))
def test_config_walks_match_stepwise_records(name, mode):
    walk = json.loads((CONFIGS / name).read_text())["walk"]
    engine = build_network(cli._graph_from_config(walk, mode))
    schedule = cli._schedule_from_config(walk["schedule"], mode) if "schedule" in walk else None
    for lead in range(engine.lead_count):
        for steps in (1, 10, 60):
            _assert_same_records(
                engine.run(lead, steps, schedule).steps,
                _stepwise_run(engine, lead, steps, schedule),
            )


def test_run_refuses_a_record_above_the_bound_before_allocating():
    engine = build_network(single_triport("float"))
    slots = engine._S.shape[0]
    steps = _MAX_RECORD_AMPLITUDES // slots + 1
    with pytest.raises(SpecError, match="amplitudes"):
        engine.run(0, steps)
    assert len(engine.run(0, 2).steps) == 2


# ---------------------------------------------------------------------------
# parity with per-vertex tabulation
# ---------------------------------------------------------------------------


def _reference_tables(engine, schedule=None, steps=0):
    """(S, W, each step's W) as the engine built them before it tabulated
    whole degree classes: every vertex's own
    ``device.gather_table(compile_spec(spec))`` or coin rows, placed into S
    and W through per-vertex source and output maps; an override rebuilds
    its vertex's rows in a copy of W."""
    g = engine.graph
    ideal = isinstance(g.vertices[0], IdealVertex)
    zero = exact.field(g.mode).zero
    dtype = object if g.mode == "exact" else complex
    channels = _channels(g)
    slots, modes = engine._S.shape[0], engine._modes
    fan_in = max(map(len, channels)) if ideal else 2

    def local(v, override=None):
        vert = g.vertices[v]
        if not ideal:
            spec = vert.spec if override is None else replace(vert.spec, **override)
            return device.gather_table(compile_spec(spec))
        coin = vert.coin if override is None else override
        d, pad = coin.dim, fan_in - coin.dim
        srcs = [*range(d), *[d] * pad] * d
        weights = [w for row in coin.rows for w in (*row, *[zero] * pad)]
        return (
            np.array(srcs, dtype=np.intp).reshape(-1, fan_in),
            np.array(weights, dtype=dtype).reshape(-1, fan_in),
        )

    src_maps, out_maps = [], []
    own = range(2 * len(g.edges))
    for v, chans in enumerate(channels):
        own = range(own.stop, own.stop if ideal else own.stop + 3 * len(chans))
        sources = [
            2 * idx + (v == g.edges[idx][0]) if kind == "edge" else modes + idx
            for kind, idx in chans
        ]
        src_maps.append(np.array([*own, *sources, slots]))
        out_maps.append([*own, *(src ^ 1 if src < modes else src for src in sources)])
    S = np.full((slots, fan_in), slots, dtype=np.intp)
    W = np.full((slots, fan_in), zero, dtype=dtype)
    for v in range(len(g.vertices)):
        srcs, weights = local(v)
        S[out_maps[v]] = src_maps[v][srcs]
        W[out_maps[v]] = weights
    per_step = []
    for k in range(1, steps + 1):
        step_W = W.copy()
        for v, override in (schedule.overrides.get(k, {}) if schedule else {}).items():
            step_W[out_maps[v]] = local(v, override)[1]
        per_step.append(step_W)
    return S, W, per_step


def _assert_same_weights(got, want):
    """Every entry equal: by repr in float mode, signed zeros included; by
    == and type in exact mode."""
    assert got.shape == want.shape
    if got.dtype == object:
        assert got.tolist() == want.tolist()
        assert list(map(type, got.ravel())) == list(map(type, want.ravel()))
    else:
        assert list(map(repr, got.ravel().tolist())) == list(map(repr, want.ravel().tolist()))


def _oracle_cases(mode):
    """The parity cases, then a 36-vertex heterogeneous ring and 6x6 grid of
    each vertex model, with schedules."""
    rng = random.Random(36)
    cases = [(g, schedule, steps) for g, _lead, steps, schedule in _parity_cases(mode)]
    for vertex in (
        lambda d: PhysicalVertex(_random_device(rng, d, mode)),
        lambda d: IdealVertex(_random_coin(rng, d, mode)),
    ):
        for vertices, edges, leads in (_ring_graph(36, vertex), _grid_graph(6, vertex)):
            g = GraphSpec(vertices=vertices, edges=edges, leads=leads, mode=mode)
            cases.append((g, _random_schedule(rng, vertices, 12, mode), 12))
    return cases


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_batched_tables_match_per_vertex_tabulation(mode):
    """S equals, and every W entry (override weights too) is the one that
    the per-vertex compile, tabulation and placement gives."""
    for g, schedule, steps in _oracle_cases(mode):
        engine = build_network(g)
        S, W, per_step = _reference_tables(engine, schedule, steps)
        assert np.array_equal(engine._S, S)
        _assert_same_weights(engine._W, W)
        overrides = schedule.overrides if schedule else {}
        for got, want in zip(engine._weights(overrides, steps), per_step, strict=True):
            _assert_same_weights(got, want)


def _named_error(g, schedule=None, steps=3):
    with pytest.raises(SpecError) as err:
        build_network(g).run(0, steps, schedule)
    return str(err.value)


def test_errors_name_the_first_bad_vertex():
    """A bad vertex after vertex 0 is named, with the same text whichever
    of a degree class it is in; the first bad vertex in vertex order wins."""
    coins = [grover_coin(3) for _ in range(8)]
    coins[5] = grover_coin(3).scaled(2)
    ring = _ring_graph(8, lambda d: None)[1:]
    g = GraphSpec(vertices=[IdealVertex(c) for c in coins], edges=ring[0], leads=ring[1])
    assert _named_error(g) == "vertex 5: coin is not unitary"
    coins[2] = grover_coin(4)
    g = GraphSpec(vertices=[IdealVertex(c) for c in coins], edges=ring[0], leads=ring[1])
    assert _named_error(g) == "vertex 2: coin dimension 4 != degree 3"
    coins[2] = grover_coin(3, "exact")
    g = GraphSpec(vertices=[IdealVertex(c) for c in coins], edges=ring[0], leads=ring[1])
    assert _named_error(g) == "vertex 2: coin numeric mode differs from graph"

    specs = [MultiportSpec(n=3) for _ in range(9)]
    specs[7] = MultiportSpec(n=4)
    vertices, edges, leads = _ring_graph(9, lambda d: None)
    g = GraphSpec(vertices=[PhysicalVertex(s) for s in specs], edges=edges, leads=leads)
    assert _named_error(g) == "vertex 7: multiport has 4 ports, degree is 3"
    specs[4] = MultiportSpec(n=3, mode="exact")
    g = GraphSpec(vertices=[PhysicalVertex(s) for s in specs], edges=edges, leads=leads)
    assert _named_error(g) == "vertex 4: multiport numeric mode differs from graph"
    # A device that compile_spec refuses, at vertex 3 of a heterogeneous
    # ring, raises compile_spec's own error before vertex 4's.
    rng = random.Random(5)
    specs = [_random_device(rng, 3, "float") for _ in range(9)]
    specs[3] = replace(specs[3], r=[0.5, 0.5, 0.5])
    specs[6] = MultiportSpec(n=4)
    g = GraphSpec(vertices=[PhysicalVertex(s) for s in specs], edges=edges, leads=leads)
    assert _named_error(g) == "beam-splitter block at vertex A is not unitary"


def test_override_errors_name_the_first_bad_override():
    """Overrides are checked in step order, then vertex order within a
    step, whichever degree class they fall in."""
    vertices, edges, leads = _ring_graph(9, lambda d: PhysicalVertex(MultiportSpec(n=d)))
    g = GraphSpec(vertices=vertices, edges=edges, leads=leads)
    schedule = Schedule({5: {6: {"bogus": 1}}, 2: {3: {"r": 0.5, "t": 0.5}}})
    assert _named_error(g, schedule, 6) == "beam-splitter block at vertex A is not unitary"
    schedule = Schedule({5: {6: {"bogus": 1}}, 2: {3: {"mirror_factor": 1j}}})
    assert _named_error(g, schedule, 6).startswith("vertex 6: an override may set only")
    g = _grover_ring(7)
    schedule = Schedule({4: {5: grover_coin(3).scaled(0.5), 1: grover_coin(3)}})
    assert _named_error(g, schedule, 6) == "vertex 5: coin is not unitary"


@pytest.mark.parametrize("step", [0, -2, "2", 2.0, None])
def test_schedule_step_keys_are_integers_from_one(step):
    """A step key that is not an integer >= 1 is refused, not silently
    never applied; a step beyond the run is allowed and never applies."""
    engine = build_network(_grover_ring(5))
    identity = Matrix.identity(3)
    with pytest.raises(SpecError, match="a schedule step must be an integer >= 1"):
        engine.run(0, 4, Schedule({step: {0: identity}}))
    plain = engine.run(0, 4).steps
    _assert_same_records(engine.run(0, 4, Schedule({9: {0: identity}})).steps, plain)
    scheduled = engine.run(0, 4, Schedule({np.int64(2): {1: identity}})).steps
    _assert_same_records(scheduled, engine.run(0, 4, Schedule({2: {1: identity}})).steps)


# ---------------------------------------------------------------------------
# records read on access, generated walks, refused inputs
# ---------------------------------------------------------------------------


@st.composite
def _walk_cases(draw):
    """(graph, injection, steps, schedule) for a small connected graph of
    ideal or physical vertices in either mode.  Each vertex is the
    reference one (so that equal vertices share a compile) or a seeded
    random one; the injection is one lead or up to three of them with
    amplitudes (of total probability 1 in float mode); the schedule may
    be none."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    mode = draw(st.sampled_from(["float", "exact"]))
    ideal = draw(st.booleans())
    count = draw(st.integers(1, 4))
    edges = _random_tree(rng, count, draw(st.integers(0, 2)))
    degree = _edge_degrees(count, edges)
    extra = draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
    leads = [v for v in range(count) for _ in range(max((1 if ideal else 3) - degree[v], extra[v]))]
    leads = leads or [0]
    rng.shuffle(leads)
    degree = [d + leads.count(v) for v, d in enumerate(degree)]
    vertices = []
    for d in degree:
        if ideal:
            plain = grover_coin(d, mode) if d > 1 else Matrix.identity(1, mode)
            vertex = IdealVertex(_random_coin(rng, d, mode) if draw(st.booleans()) else plain)
        else:
            spec = MultiportSpec(n=d, mode=mode)
            vertex = PhysicalVertex(_random_device(rng, d, mode) if draw(st.booleans()) else spec)
        vertices.append(vertex)
    g = GraphSpec(vertices=vertices, edges=edges, leads=leads, mode=mode)
    steps = draw(st.integers(1, 8 if mode == "exact" else 30))
    if draw(st.booleans()):
        injection = rng.randrange(len(leads))
    else:
        chosen = rng.sample(range(len(leads)), min(len(leads), draw(st.integers(1, 3))))
        if mode == "exact":
            injection = {l: exact.eighth_root(rng.randrange(8)) * exact.INV_SQRT2 for l in chosen}
        else:
            amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in chosen]
            norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
            injection = {l: a / norm for l, a in zip(chosen, amps)}
    schedule = _random_schedule(rng, vertices, steps, mode) if draw(st.booleans()) else None
    return g, injection, steps, schedule


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_walk_cases())
def test_generated_walks_match_stepwise_and_per_mode_records(case):
    """Generated graphs, injections and schedules: every record equals the
    per-step record loop's bit for bit (signed zeros of the lead
    amplitudes too), and the per-mode dict stepping's edges and lead
    amplitudes (under == in exact mode)."""
    g, injection, steps, schedule = case
    engine = build_network(g)
    got = engine.run(injection, steps, schedule).steps
    want = _stepwise_run(engine, injection, steps, schedule)
    _assert_same_records(got, want)
    assert [repr(s.lead_step_amplitudes) for s in got] == [
        repr(s.lead_step_amplitudes) for s in want
    ]
    for step, (edges, lead_amps, *_sums) in zip(got, _reference_run(g, injection, steps, schedule)):
        assert set(step.edge_probabilities) == set(edges)
        if g.mode == "exact":
            assert list(step.lead_step_amplitudes) == lead_amps
        else:
            assert max(map(abs, np.subtract(step.lead_step_amplitudes, lead_amps))) < 1e-12


def _grover_ring(count, mode="float"):
    vertices, edges, leads = _ring_graph(count, lambda d: IdealVertex(grover_coin(d, mode)))
    return GraphSpec(vertices=vertices, edges=edges, leads=leads, mode=mode)


def test_step_records_read_like_a_list():
    """``WalkResult.steps`` has a length, negative indexes, slices and
    IndexError past either end; a record read twice is one object, so a
    change to it stays; records read in any order equal the per-step
    record loop's."""
    engine = build_network(_grover_ring(5))
    steps = 12
    want = _stepwise_run(engine, 1, steps)
    records = engine.run(1, steps).steps
    assert len(records) == steps
    assert records[-1] is records[steps - 1] and records[-steps] is records[0]
    assert all(a is b for a, b in zip(records[2:9:3], (records[2], records[5], records[8])))
    assert all(a is b for a, b in zip(records[::-1], reversed(records), strict=True))
    assert records[steps:] == [] and len(records[-3:]) == 3
    for k in (steps, -steps - 1):
        with pytest.raises(IndexError):
            records[k]
    record = records[4]
    record.internal_probability -= 1e-6
    assert records[4] is record
    assert records[4].internal_probability == want[4].internal_probability - 1e-6
    assert [s.index for s in records] == list(range(1, steps + 1))

    backwards = engine.run(1, steps).steps
    _assert_same_records([backwards[k] for k in range(-1, -steps - 1, -1)], want[::-1])
    order = list(range(steps))
    random.Random(3).shuffle(order)
    shuffled = engine.run(1, steps).steps
    _assert_same_records([shuffled[k] for k in order], [want[k] for k in order])


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_cumulative_exit_refuses_steps_outside_the_walk(mode):
    """Steps count from 1: step 0 used to read as the last step."""
    res = build_network(single_triport(mode)).run(0, 5)
    assert res.cumulative_exit(5) == pytest.approx(0.875, abs=1e-15)
    assert res.cumulative_exit(1) == 0.0
    for k in (0, -1, 6):
        with pytest.raises(SpecError, match="outside 1..5"):
            res.cumulative_exit(k)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_injection_values_take_the_mode_scalar_type(mode):
    """An injected amplitude converts to the mode's scalar type, so an int
    (and, in exact mode, a Fraction) is taken like the same ExactComplex
    or complex; a lead that is not an index, a value that does not
    convert and an absent lead are refused with SpecError."""
    engine = build_network(single_triport(mode))
    one = exact.field(mode).one
    want = _stepwise_run(engine, {0: one}, 6)
    _assert_same_records(engine.run({0: 1}, 6).steps, want)
    _assert_same_records(engine.run({np.int64(0): True}, 6).steps, want)
    half = engine.run({2: Fraction(1, 2)}, 6).steps
    _assert_same_records(half, _stepwise_run(engine, {2: one / 2}, 6))
    bad = [{1.0: 1}, {0: "x"}, {0: None}, {0: [1]}, {"0": 1}, "0", 1.5, {5: 1}, {-1: 1}]
    if mode == "exact":
        bad += [{0: 0.5 + 0j}, {0: 0.5}]
    for injection in bad:
        with pytest.raises(SpecError):
            engine.run(injection, 3)


@pytest.mark.parametrize("ideal", [True, False])
def test_graph_above_the_amplitude_bound_is_refused(monkeypatch, ideal):
    """A graph whose state (2E + sum 3n + L slots) exceeds the record bound
    could never run one step; it is refused before anything is compiled
    or allocated."""
    if ideal:
        g = _grover_ring(3)
    else:
        vertices, edges, leads = _ring_graph(3, lambda d: PhysicalVertex(MultiportSpec(n=d)))
        g = GraphSpec(vertices=vertices, edges=edges, leads=leads)
    slots = build_network(g)._S.shape[0]
    assert slots == (9 if ideal else 36)
    monkeypatch.setattr(network, "_MAX_RECORD_AMPLITUDES", slots)
    assert len(build_network(g).run(0, 1).steps) == 1
    monkeypatch.setattr(network, "_MAX_RECORD_AMPLITUDES", slots - 1)

    def refuse(*args, **kwargs):
        raise AssertionError("compiled a graph above the bound")

    monkeypatch.setattr(network, "compile_spec", refuse)
    monkeypatch.setattr(network.np, "full", refuse)
    with pytest.raises(SpecError, match="walk state holds at most"):
        build_network(g)


def test_equal_vertices_compile_once_and_unhashable_ones_apart(monkeypatch):
    """Equal multiport specs and equal coins are compiled, checked and
    tabulated once per build; a parameter that cannot be hashed (a 0-d
    array) tabulates on its own and walks like the plain value."""
    tabulated = []
    class_table = network.WalkEngine._class_table

    def counted(engine, degree, params, which):
        tabulated.append(len(params))
        return class_table(engine, degree, params, which)

    monkeypatch.setattr(network.WalkEngine, "_class_table", counted)
    vertices, edges, leads = _ring_graph(6, lambda d: PhysicalVertex(MultiportSpec(n=d)))
    plain = build_network(GraphSpec(vertices=vertices, edges=edges, leads=leads))
    build_network(_grover_ring(6))
    assert tabulated == [1, 1]
    r = np.array(1j / math.sqrt(2))
    vertices[2] = PhysicalVertex(MultiportSpec(n=3, r=r))
    vertices[4] = PhysicalVertex(MultiportSpec(n=3, r=r))
    odd = build_network(GraphSpec(vertices=vertices, edges=edges, leads=leads))
    assert tabulated == [1, 1, 3]
    _assert_same_records(odd.run(2, 20).steps, plain.run(2, 20).steps)


def test_float_specs_holding_lists_tabulate_apart_without_a_key(monkeypatch):
    """A float spec that holds a list has no share key: ``_share_key`` tells
    it by type and returns None, so each such vertex or physical override
    tabulates on its own, and walks exactly as the same values in tuples,
    which share one table."""
    tabulated = []
    class_table = network.WalkEngine._class_table

    def counted(engine, degree, params, which):
        tabulated.append(len(params))
        return class_table(engine, degree, params, which)

    monkeypatch.setattr(network.WalkEngine, "_class_table", counted)
    rng = random.Random(3)
    r, t = zip(*(_random_splitter(rng) for _ in range(3)))
    phases = [rng.uniform(0, 2 * math.pi) for _ in range(3)]
    as_lists = MultiportSpec(n=3, r=list(r), t=list(t), edge_phases=phases)
    as_tuples = MultiportSpec(n=3, r=r, t=t, edge_phases=tuple(phases))
    assert network._share_key(as_lists) is None
    assert network._share_key(as_tuples) is not None
    walks = []
    for spec, sequence in ((as_lists, list), (as_tuples, tuple)):
        vertices, edges, leads = _ring_graph(4, lambda d: PhysicalVertex(spec))
        override = {"r": sequence(r), "t": sequence(t), "mirror_factor": sequence([1j] * 3)}
        schedule = Schedule({2: {0: override, 3: override}})
        walks.append(build_network(GraphSpec(vertices, edges, leads)).run(1, 8, schedule).steps)
    assert tabulated == [4, 2, 1, 1]
    _assert_same_records(*walks)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_injection_with_no_finite_probability_is_refused(mode):
    """An injection whose summed |a|^2 is NaN, infinite or beyond the float
    range is a SpecError, not a walk of NaN records."""
    engine = build_network(single_triport(mode))
    if mode == "float":
        bad = [{0: math.nan}, {0: math.inf}, {0: complex(0, math.nan)}, {0: 1e200},
               {0: 1e154, 1: 1e154}]
    else:
        bad = [{0: 10 ** 200}, {1: Fraction(10 ** 400, 3)}]
    for injection in bad:
        with pytest.raises(SpecError, match="finite"):
            engine.run(injection, 4)
    assert len(engine.run({0: 10 ** 100 if mode == "exact" else 1e100}, 4).steps) == 4


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_single_lead_is_read_as_an_index(mode):
    """A single lead may be any integer type, such as a numpy integer."""
    engine = build_network(single_triport(mode))
    want = _stepwise_run(engine, 1, 5)
    for lead in (1, np.int64(1), np.intp(1), True):
        _assert_same_records(engine.run(lead, 5).steps, want)


def test_physical_override_refuses_keys_it_never_reads():
    """A physical-vertex override sets r, t, mirror_factor or edge_phases;
    any other key is refused rather than ignored."""
    engine = build_network(single_triport("float"))
    for override in ({"edge_phase": 1.0}, {"n": 4}, {"r": 1j, "t": 0j, "bogus": 0}, {0: 1}):
        with pytest.raises(SpecError, match="override"):
            engine.run(0, 3, Schedule({2: {0: override}}))
    schedule = Schedule({k: {0: {"edge_phases": [0.5, 0.0, 0.0]}} for k in range(1, 7)})
    retuned = [s.lead_step_amplitudes for s in engine.run(0, 6, schedule).steps]
    assert retuned != [s.lead_step_amplitudes for s in engine.run(0, 6).steps]
