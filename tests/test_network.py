"""Walks on multiport networks, checked against independent dense models.

The two-vertex oracle builds the global one-step transfer operator of a
pair of triangle vertices joined by one edge, entry by entry from the
wiring convention, and powers it with numpy.  It shares nothing with the
engine's sparse stepping.
"""

import math
import random

import numpy as np
import pytest

from multiport import exact
from multiport.device import MultiportSpec, compile_spec, exit_record, grover_coin
from multiport.errors import SpecError
from multiport.matrices import Matrix
from multiport.network import (
    GraphSpec,
    IdealVertex,
    PhysicalVertex,
    Schedule,
    build_network,
    coherence_budget,
    run_walk,
)


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


def _reference_run(g, input_lead, steps, schedule=None):
    """The walk stepped one mode at a time over dicts, as the engine did
    before it compiled each walk into a gather table.  Returns, per step,
    (edge probabilities, lead amplitudes, cumulative lead probabilities,
    internal probability, conservation deviation)."""
    mode = g.mode
    zero = exact.field(mode).zero
    channels = [[] for _ in g.vertices]
    for e, (u, v) in enumerate(g.edges):
        channels[u].append(("edge", e))
        channels[v].append(("edge", e))
    for l, v in enumerate(g.leads):
        channels[v].append(("lead", l))
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
        overrides = schedule.for_step(k) if schedule else {}
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
