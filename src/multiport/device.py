"""Directionally-unbiased n-port devices as directed-edge scattering graphs.

Wiring convention (validated against the exact exit-amplitude tables in
the test suite): every vertex carries one four-arm beam splitter whose
arms are the external port, a mirror stub, edge-E toward the next vertex
(clockwise) and edge-S toward the previous vertex.  Transmission t runs
along the through pairs (external <-> edge-E, mirror <-> edge-S);
reflection r couples external <-> edge-S and mirror <-> edge-E.  Each
vertex's edge-E meets the next vertex's edge-S, closing the polygon.

``step_rows`` writes this rule down once, as the rows of one step over
a device's local modes, with the mirror and edge factors folded into the
weights and the path letters attached.  Everything else reads those rows:
``gather_table`` makes them one gather table, which ``gather_steps``, the
one stepping kernel, runs for ``exit_record``, exact ``steady_state`` and
every walk (``network``); the one-step matrices, from which
``long_time_matrix`` solves in both numeric modes, and physical walk
vertices are filled from the table, and ``enumerate_paths`` searches the
rows.

One step is one segment traversal: an inter-vertex edge, or the full
mirror round trip (both take the same time).  N counts beam-splitter
encounters including the entry encounter, so an N-encounter path has
traversed N - 1 segments.  Amplitude can leave a beam splitter through
the external arm only when it arrived on an edge arm, which is why exit
amplitudes vanish at every odd N.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math

import numpy as np

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from . import exact
from .errors import ConvergenceError, InvariantViolation, SpecError
from .matrices import Matrix
from .states import port_label

# The reference device's (r, t, mirror round-trip factor) per numeric mode.
_REFERENCE = {
    "exact": (exact.I * exact.INV_SQRT2, exact.INV_SQRT2, -exact.I),
    "float": (1j / math.sqrt(2.0), 1.0 / math.sqrt(2.0) + 0j, -1j),
}

_UNITARY_TOL = 1e-12

# The most paths ``enumerate_paths`` lists; their number grows as about
# 2^(n/2) in the path length n.
_MAX_PATHS = 1 << 16

# The most ports a multiport may have.  The dense one-step operators hold
# (4n)^2 complex entries, 16 MiB at this bound, and float ``unitary`` at
# the defaults takes about a quarter of a second there; a larger n is
# refused before anything of its size is allocated.
_MAX_PORTS = 256

# The most amplitudes a run may record: an exit record holds 4n per
# encounter (3n internal, n exits), a walk one per state mode and lead per
# step.  Both allocate their records up front, so a larger run is refused
# before anything of its size is built.  The largest benchmark walk, a
# 6x6 grid of physical 4-ports over 80 steps, records 46080.
_MAX_RECORD_AMPLITUDES = 1 << 22


def _broadcast(value, default, n, name, scalar):
    """One ``scalar(v)`` per vertex from ``value``, one value or a list,
    or from ``default`` when ``value`` is None."""
    if value is None:
        value = default
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise SpecError(f"{name} needs exactly {n} per-vertex entries")
        return tuple(map(scalar, value))
    return (scalar(value),) * n


@dataclass
class MultiportSpec:
    """Parametric description of an n-sided unbiased multiport.

    ``r``, ``t`` and ``mirror_factor`` accept a single scalar applied to
    every vertex or a per-vertex sequence; ``edge_phases`` accepts one
    phase in radians or a per-edge sequence (edge k joins vertex k and
    k+1).  ``None`` selects the reference device: a 50/50 splitter with
    r = i/sqrt2, t = 1/sqrt2, mirror round-trip factor -i, edge phase 0.
    """

    n: int = 3
    r: object = None
    t: object = None
    mirror_factor: object = None
    edge_phases: object = 0.0
    max_steps: int = 100
    mode: str = "float"


@dataclass(frozen=True)
class CompiledMultiport:
    """Validated per-vertex scalars and per-edge traversal factors."""

    n: int
    mode: str
    r: tuple
    t: tuple
    mirror: tuple
    edge_factor: tuple
    max_steps: int

    @property
    def bs_node_count(self) -> int:
        return self.n

    @property
    def mirror_node_count(self) -> int:
        return self.n

    @property
    def inter_vertex_mode_count(self) -> int:
        return 2 * self.n

    @property
    def mirror_stub_mode_count(self) -> int:
        return 2 * self.n


def compile_spec(spec: MultiportSpec) -> CompiledMultiport:
    """Validate a spec and expand it into per-vertex/per-edge scalars."""
    F = exact.field(spec.mode)
    if spec.n < 3:
        raise SpecError(f"a multiport needs at least 3 ports, got {spec.n}")
    if spec.n > _MAX_PORTS:
        raise SpecError(f"a multiport has at most {_MAX_PORTS} ports, got {spec.n}")
    default_r, default_t, default_m = _REFERENCE[spec.mode]
    r = _broadcast(spec.r, default_r, spec.n, "r", F.scalar)
    t = _broadcast(spec.t, default_t, spec.n, "t", F.scalar)
    mirror = _broadcast(spec.mirror_factor, default_m, spec.n, "mirror_factor", F.scalar)

    # Written so that a NaN or infinite value fails: comparisons with NaN
    # are false.
    for v, (rv, tv, mv) in enumerate(zip(r, t, mirror)):
        norm = float(exact.abs_sq(rv) + exact.abs_sq(tv))
        cross = complex(rv * tv.conjugate() + tv * rv.conjugate())
        if not (abs(norm - 1.0) <= _UNITARY_TOL and abs(cross) <= _UNITARY_TOL):
            raise SpecError(
                f"beam-splitter block at vertex {port_label(v)} is not unitary"
            )
        if not abs(float(exact.abs_sq(mv)) - 1.0) <= _UNITARY_TOL:
            raise SpecError(
                f"mirror factor at vertex {port_label(v)} is not unit modulus"
            )

    phases = spec.edge_phases
    if isinstance(phases, (list, tuple)):
        if len(phases) != spec.n:
            raise SpecError(f"edge_phases needs exactly {spec.n} entries")
        edge = tuple(F.phase(float(p)) for p in phases)
    else:
        edge = tuple([F.phase(float(phases))] * spec.n)

    if spec.max_steps < 2:
        raise SpecError("max_steps must be at least 2")
    return CompiledMultiport(spec.n, spec.mode, r, t, mirror, edge, spec.max_steps)


# ---------------------------------------------------------------------------
# Step evolution
# ---------------------------------------------------------------------------


@dataclass
class ExitStep:
    """Exit amplitudes and probabilities at one beam-splitter encounter."""

    n: int
    amplitudes: tuple
    step_probability: object
    cumulative_probability: object


@dataclass(eq=False)
class ExitRecord:
    """Exit amplitudes at encounters N = 1..len(amplitudes): row N - 1 of
    ``amplitudes`` holds each port's (complex in float mode, ExactComplex
    objects in exact mode), with that encounter's entry of
    ``step_probabilities`` and ``cumulative_probabilities``.  ``steps``
    reads them as ExitSteps, built on first access."""

    input_port: int
    n_ports: int
    mode: str
    amplitudes: np.ndarray
    step_probabilities: list
    cumulative_probabilities: list
    conservation_dev: float

    @functools.cached_property
    def steps(self) -> List[ExitStep]:
        rows = map(tuple, self.amplitudes.tolist())
        return list(map(ExitStep, itertools.count(1), rows, self.step_probabilities,
                        self.cumulative_probabilities))

    def amplitude(self, n: int, port: int):
        return step_record(self.steps, n).amplitudes[port]

    def cumulative(self, n: int):
        return step_record(self.steps, n).cumulative_probability


def step_record(steps, n: int):
    """Record n of ``steps``, counting from 1; ``steps[n - 1]`` alone would
    read n = 0 as the last record."""
    if not 1 <= n <= len(steps):
        raise SpecError(f"step {n} is outside 1..{len(steps)}")
    return steps[n - 1]


def step_rows(dev: CompiledMultiport) -> list:
    """The device's one wiring rule, as the rows of one step.

    Each row is ``(output, ((source, weight, symbol), ...))`` over the
    local modes cw_v = v (leaving vertex v toward v + 1), ccw_v = n + v
    (toward v - 1), mir_v = 2n + v (back from v's mirror stub) and one
    slot 3n + p per port, which is port p's input as a source and its
    exit as an output.  A weight is the r or t of the beam-splitter arm
    taken, times the edge or mirror factor crossed after it, in the
    device's scalar type; a symbol is the letters a path records for the
    row: ("r" or "t", v), then ("M", v) for a row into a mirror mode.
    """
    n = dev.n
    rows = []
    for v in range(n):
        r, t, m = dev.r[v], dev.t[v], dev.mirror[v]
        e_cw, e_ccw = dev.edge_factor[v], dev.edge_factor[(v - 1) % n]
        a_s, a_e, a_m, a_x = (v - 1) % n, n + (v + 1) % n, 2 * n + v, 3 * n + v
        r_v, t_v, m_v = ("r", v), ("t", v), ("M", v)
        rows += [
            (a_x, ((a_e, t, (t_v,)), (a_s, r, (r_v,)))),
            (a_m, ((a_e, r * m, (r_v, m_v)), (a_s, t * m, (t_v, m_v)))),
            (v, ((a_x, t * e_cw, (t_v,)), (a_m, r * e_cw, (r_v,)))),
            (n + v, ((a_x, r * e_ccw, (r_v,)), (a_m, t * e_ccw, (t_v,)))),
        ]
    return rows


def _check_port(dev: CompiledMultiport, port: int, what: str) -> None:
    if not 0 <= port < dev.n:
        raise SpecError(f"{what} port {port} outside the device")


def gather_table(*devs: CompiledMultiport):
    """The step rows as one gather table (S, W) over the 4n local modes of
    ``step_rows``: output o of a step is ``sum_j W[o, j] * x[S[o, j]]``.
    k devices of one port count and mode share S, and W is (k, 4n, 2):
    their rows are evaluated once, over a column of k values per scalar."""
    dev = devs[0]
    if len(devs) > 1:
        cols = np.array([d.r + d.t + d.mirror + d.edge_factor for d in devs], dtype=object).T
        dev = CompiledMultiport(dev.n, dev.mode, *map(tuple, np.split(cols, 4)), dev.max_steps)
    terms = [term for _out, row in sorted(step_rows(dev)) for term in row]  # 2 per output
    srcs, weights, _symbols = zip(*terms)
    S = np.array(srcs, dtype=np.intp).reshape(-1, 2)
    W = np.array(weights, dtype=object if dev.mode == "exact" else complex)
    return S, W.T.reshape(*W.shape[1:], -1, 2)


def gather_steps(S: np.ndarray, weights, hist: np.ndarray, inputs: int) -> None:
    """The package's one stepping kernel: row k + 1 of ``hist`` begins with
    row k stepped through (S, weights[k]), ``sum_j W[i, j] * x[S[i, j]]``.
    Column S.shape[0] stays zero; the slots from ``inputs`` up to it hold the
    injection in row 0 and each step's outputs later, so only step 1 reads
    them.  An exact step is ``_gather_exact``."""
    slots = S.shape[0]
    S_after = S.copy(order="F")
    S_after[(S >= inputs) & (S < slots)] = slots
    if hist.dtype == object:
        for k, (W, x) in enumerate(zip(weights, hist)):
            hist[k + 1, :slots] = _gather_exact(W, x, S_after if k else S)
    else:
        buf = np.empty(S.shape, dtype=complex, order="F")
        for k, (W, x, out) in enumerate(zip(weights, hist, hist[1:, :slots])):
            np.multiply(W, x[S_after if k else S], out=buf)
            np.add.reduce(buf, axis=1, out=out)


def _gather_exact(W: np.ndarray, x: np.ndarray, S: np.ndarray) -> list:
    """``(W * x[S]).sum(axis=1)`` over ExactComplex, as a list, taking only
    the terms whose input is not zero: a product is 64 integer products
    and one gcd, and most of a sparse state is zero."""
    rows, cols = np.nonzero(x.astype(bool)[S])
    out = [exact.ZERO] * S.shape[0]
    for r, w, a in zip(rows.tolist(), W[rows, cols].tolist(), x[S[rows, cols]].tolist()):
        term = w * a
        out[r] = term if out[r] is exact.ZERO else out[r] + term
    return out


def _probabilities(rows) -> list:
    """The sum of |a|^2 over each of ``rows``: by numpy for a complex array,
    else exactly, skipping zeros (each would cost an addition and a gcd)."""
    if isinstance(rows, np.ndarray) and rows.dtype == complex:
        return (rows.real * rows.real + rows.imag * rows.imag).sum(axis=1).tolist()
    probs = [[a.abs_sq() for a in row if a] for row in rows]
    return [sum(p[1:], p[0]) if p else exact.ZERO for p in probs]


def exit_record(spec: MultiportSpec, input_port: int, n_max: int) -> ExitRecord:
    """Exit amplitudes at each port for encounters N = 1..n_max: step N of
    ``gather_steps`` from the photon in its input slot (nothing exits at
    N = 1).  Conservation is measured at every encounter."""
    if n_max < 2:
        raise SpecError("n_max must be at least 2")
    dev = compile_spec(spec)
    if n_max > dev.max_steps:
        raise SpecError(f"n_max {n_max} exceeds max_steps {dev.max_steps}")
    if n_max * 4 * dev.n > _MAX_RECORD_AMPLITUDES:
        raise SpecError(
            f"an exit record holds at most {_MAX_RECORD_AMPLITUDES} amplitudes; "
            f"{n_max} encounters x {4 * dev.n} is {n_max * 4 * dev.n}"
        )
    _check_port(dev, input_port, "input")
    F, k = exact.field(dev.mode), 3 * dev.n
    S, W = gather_table(dev)
    hist = np.full((n_max + 1, k + dev.n + 1), F.zero, dtype=W.dtype)
    hist[0, k + input_port] = F.one
    gather_steps(S, [W] * n_max, hist, k)
    exits = hist[1:, k:-1].copy()
    step_prob, internal = _probabilities(exits), _probabilities(hist[1:, :k])
    cumulative = list(itertools.accumulate(step_prob))
    conservation = max(abs(float(a + c) - 1.0) for a, c in zip(internal, cumulative))
    return ExitRecord(input_port, dev.n, dev.mode, exits, step_prob, cumulative, conservation)


@dataclass
class SteadyStateResult:
    """Coherent sum of all exit amplitudes, one column per input port."""

    matrix: Matrix
    residual: float
    steps_used: int
    converged: bool
    conservation_dev: float


def dense_step_operators(dev: CompiledMultiport):
    """One-step operators over the 3n internal modes, as numpy arrays of
    the device's scalars (ExactComplex objects in exact mode).

    Modes are ordered cw_0..cw_{n-1}, ccw_0.., mir_0..; ``A`` maps the
    post-traversal internal state to the next one, ``B`` holds the
    post-entry state per input port and ``C`` extracts exit amplitudes.
    The map x -> (C x, A x) is an isometry, which is what per-step
    conservation asserts.
    """
    k = 3 * dev.n
    S, W = gather_table(dev)
    step = np.full((k + dev.n, k + dev.n), exact.field(dev.mode).zero, dtype=W.dtype)
    step[np.arange(k + dev.n)[:, None], S] = W
    return step[:k, :k], step[:k, k:], step[k:, :k]


def _steady_state_dense(dev: CompiledMultiport, tol: float) -> SteadyStateResult:
    """The truncated sum by binary lifting over the segment count s.

    X_s = A^s B is the internal state after s segments.  The sum stops at
    the first s >= 1 whose largest column norm of X_s is below ``tol``, or
    at s = max_steps - 1, and is U = C sum_{i<s} A^i B.  A is a
    contraction, so that norm never rises: jumps of m = 2^j segments,
    largest first, are taken while the norm after the jump stays at or
    above ``tol``, then one last single step is taken.  Each level holds
    P = A^m, G = sum_{i<m} A^i and Q = sum_{i<m} (C A^i)^H (C A^i), so a
    jump also adds up the probability that exited during it.
    """
    A, B, C = dense_step_operators(dev)
    span = dev.max_steps - 2  # segments the jumps may cover before the last step
    levels = [(1, A, np.eye(3 * dev.n, dtype=complex), C.conj().T @ C)]
    while 2 * levels[-1][0] <= span:
        m, P, G, Q = levels[-1]
        levels.append((2 * m, P @ P, G + P @ G, Q + P.conj().T @ Q @ P))

    X = B
    S = np.zeros_like(B)
    exited = np.zeros(dev.n)
    conservation = 0.0
    s = 0
    trials = [(level, False) for level in reversed(levels)] + [(levels[0], True)]
    for (m, P, G, Q), last in trials:
        if not last and s + m > span:
            continue
        X_next = P @ X
        internal = (np.abs(X_next) ** 2).sum(axis=0)
        residual = float(np.sqrt(internal.max()))
        if not last and residual < tol:
            continue
        exited += (X.conj() * (Q @ X)).real.sum(axis=0)
        S = S + G @ X
        X = X_next
        s += m
        conservation = max(conservation, float(np.abs(internal + exited - 1.0).max()))
    return SteadyStateResult(
        Matrix.from_numpy(C @ S), residual, s + 1, residual < tol, conservation
    )


def steady_state(spec: MultiportSpec, tol: float = 1e-12) -> SteadyStateResult:
    """Accumulate exit amplitudes until the un-exited amplitude norm < tol.

    The residual is the amplitude norm (square root of the remaining
    internal probability), the same scale as matrix-entry error.  If the
    device has not drained below ``tol`` within ``spec.max_steps``
    encounters the result is returned with ``converged=False``; nothing
    is extrapolated.

    Float mode finds the stopping encounter and the same truncated sum
    by binary lifting, in O(log max_steps) products of 3n x 3n matrices
    (see ``_steady_state_dense``); conservation is measured at every
    encounter count the search stops at, the last one included.  Exact
    mode runs the kernel's exact step one encounter at a time and keeps
    only the current state.
    """
    if not tol > 0:
        raise SpecError("tol must be positive")
    dev = compile_spec(spec)
    if dev.mode == "float":
        return _steady_state_dense(dev, tol)
    n, k = dev.n, 3 * dev.n
    S, W = gather_table(dev)
    columns = []
    worst_residual = 0.0
    steps_used = 0
    converged = True
    conservation = 0.0
    for port in range(n):
        x = np.full(k + n + 1, exact.ZERO, dtype=object)
        x[k + port] = exact.ONE
        acc, cumulative = [exact.ZERO] * n, exact.ZERO
        for N in range(1, dev.max_steps + 1):
            y = _gather_exact(W, x, S)  # one encounter; only its state is kept
            x[:k], x[k:] = y[:k], exact.ZERO
            step_prob, internal = _probabilities([y[k:], y[:k]])
            acc = [a + e if e else a for a, e in zip(acc, y[k:])]
            cumulative = cumulative + step_prob
            conservation = max(conservation, abs(float(internal + cumulative) - 1.0))
            residual = math.sqrt(max(float(internal), 0.0))
            if residual < tol:
                steps_used = max(steps_used, N)
                break
        else:
            steps_used = dev.max_steps
            converged = False
        worst_residual = max(worst_residual, residual)
        columns.append(acc)
    return SteadyStateResult(
        Matrix(zip(*columns), dev.mode), worst_residual, steps_used, converged, conservation
    )


# ---------------------------------------------------------------------------
# Long-time matrix as a resolvent on the reachable subspace
# ---------------------------------------------------------------------------

# An eigenvalue of A this close to the unit circle is a trapped mode in
# float mode: no input reaches it and it never leaks into an exit.
_TRAPPED_TOL = 1e-9


@dataclass
class LongTimeResult:
    """The long-time transition matrix U = C (I - A)^-1 B, one column per
    input port, solved on the subspace the inputs reach."""

    matrix: Matrix
    residual: float
    reachable_dim: int
    unitarity_dev: float

    method = "resolvent"  # which solver produced the matrix

    @property
    def trapped_modes(self) -> int:
        """Internal modes no input reaches: 3n - reachable_dim."""
        return 3 * self.matrix.dim - self.reachable_dim


def long_time_matrix(spec: MultiportSpec, tol: float = 1e-12) -> LongTimeResult:
    """The sum over all encounters, U = C sum_k A^k B, in closed form.

    ``I - A`` is singular for every reference device: A has eigenvalue 1
    on internal modes no input reaches.  Two solutions of (I - A) X = B
    differ by such a mode, which C maps to 0 (the step x -> (C x, A x)
    is an isometry), so U = C X is the same for all.  ``reachable_dim``
    is the dimension of K = span[B, AB, ...]; ``spec.max_steps`` is unused.

    Both modes solve on the n mirror modes and lift the solution to all
    3n (see ``_resolvent``).  Float mode takes the minimum-norm solution
    from one n x n ``np.linalg.lstsq``; ``reachable_dim`` is 3n less the
    eigenvalues of A within ``_TRAPPED_TOL`` of the unit circle (a trapped
    mode need not have eigenvalue 1, so this is not the rank of I - A).
    Exact mode solves by Gauss-Jordan elimination over ExactComplex, with
    no tolerance and no square root, and finds ``reachable_dim`` from an
    exact echelon basis of the mirror modes' Krylov space.

    ``residual`` is the largest column norm of (I - A) X - B.  Above
    ``tol`` it is a ConvergenceError; in exact mode it must be exactly
    zero and U U^H must equal I under ``==``, or the result is an
    InvariantViolation.
    """
    if not tol > 0:
        raise SpecError("tol must be positive")
    dev = compile_spec(spec)
    matrix, residual, dim = _resolvent(dev)
    if dev.mode == "float":
        unitarity = matrix.unitarity_dev()
    else:
        if residual:
            raise InvariantViolation(f"exact resolvent left residual {residual:.3e}")
        if not matrix.is_unitary():
            raise InvariantViolation("exact long-time matrix is not unitary")
        unitarity = 0.0
    if not residual <= tol:
        raise ConvergenceError(
            f"long-time matrix residual {residual:.3e} above tol {tol:.3e}"
        )
    return LongTimeResult(matrix, residual, dim, unitarity)


def _resolvent(dev: CompiledMultiport):
    """(U, residual, reachable dimension) in the device's scalar type.

    A sends mirror modes only to polygon modes and back: its blocks are
    A_pm = A[:m, m:] and A_mp = A[m:, :m], and M = A_mp A_pm is A^2 on
    the mirror modes.  So (I - A) X = B holds exactly when the mirror part
    x solves (I - M) x = R, R = B_m + A_mp B_p, and X_p = B_p + A_pm x.  A
    null vector v of I - M lifts to (A_pm v, v) in the null space of
    I - A, which C maps to 0, so every solution x gives the same U.  An
    input enters on the polygon modes (B_m = 0), so K = span[B, AB, ...]
    is K_m = span[R, MR, ...] on the mirror modes and span(B_p) + A_pm K_m
    on the polygon modes, a direct sum because B_p and A_pm have
    orthogonal ranges inside each vertex's splitter and A_pm is an
    isometry: dim K = n + 2 dim K_m.
    """
    A, B, C = dense_step_operators(dev)
    n, m = dev.n, 2 * dev.n
    A_pm, A_mp, B_p = A[:m, m:], A[m:, :m], B[:m]
    M = _product(A_mp, A_pm)
    R = B[m:] + _product(A_mp, B_p)
    if dev.mode == "float":
        try:
            x = np.linalg.lstsq(np.eye(n) - M, R, rcond=None)[0]
            mu = np.linalg.eigvals(M)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError(f"long-time solve failed: {err}") from err
        # A's eigenvalues are n zeros and +-sqrt(mu), mu those of M.
        dim = n - int((np.sqrt(np.abs(mu)) > 1 - _TRAPPED_TOL).sum())
    else:
        x = _solve_exact(np.identity(n, dtype=object) - M, R)
        dim = _krylov_dim_exact(M, R)
    y = _product(A_pm, x)
    X = np.vstack([B_p + y, x])
    # X - A X - B, with A X taken by its two nonzero blocks.
    gap = X - np.vstack([y, _product(A_mp, X[:m])]) - B
    residual = float(np.linalg.norm(gap.astype(complex, copy=False), axis=0).max())
    return Matrix(_product(C, X).tolist(), dev.mode), residual, n + 2 * dim


def _product(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """P @ Q; over ExactComplex one row operation per nonzero entry of P,
    so the zeros of the sparse step operators cost nothing."""
    if P.dtype != object:
        return P @ Q
    rows, cols = np.nonzero(P.astype(bool))
    out = np.full((P.shape[0], Q.shape[1]), exact.ZERO, dtype=object)
    np.add.at(out, rows, P[rows, cols][:, None] * Q[cols])
    return out


def _solve_exact(T: np.ndarray, R: np.ndarray) -> np.ndarray:
    """A solution x of T x = R over ExactComplex by Gauss-Jordan
    elimination, free unknowns set to 0.  An inconsistent system is not
    detected here; it leaves a residual."""
    n = T.shape[1]
    T = np.hstack([T, R])
    pivots = []
    for col in range(n):
        rows = np.flatnonzero(T[len(pivots):, col].astype(bool)) + len(pivots)
        if not rows.size:
            continue
        row = len(pivots)
        T[[row, rows[0]]] = T[[rows[0], row]]
        # Row ``row`` is zero left of ``col``: the earlier columns hold pivots
        # or were zero below them.
        T[row, col:] *= T[row, col].inverse()
        for i in np.flatnonzero(T[:, col].astype(bool)):
            if i != row:
                T[i, col:] -= T[i, col] * T[row, col:]
        pivots.append(col)
    x = np.full(R.shape, exact.ZERO, dtype=object)
    x[pivots] = T[: len(pivots), n:]
    return x


def _krylov_dim_exact(M: np.ndarray, R: np.ndarray) -> int:
    """dim span[R, MR, M^2 R, ...] over ExactComplex: the size of an
    echelon basis, each vector reduced by the earlier ones at their
    pivots, the image of each new basis vector queued."""
    basis = []  # (pivot, vector that is one at its pivot)
    pending = list(R.T)
    for v in pending:  # grows while the basis does
        for p, e in basis:
            if v[p]:
                v = v - v[p] * e
        nonzero = np.flatnonzero(v.astype(bool))
        if nonzero.size:
            p = nonzero[0]
            basis.append((p, v * v[p].inverse()))
            pending.append(_product(M, basis[-1][1][:, None])[:, 0])
    return len(basis)


# ---------------------------------------------------------------------------
# Path enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathTrace:
    """One path through the device, as beam-splitter and mirror symbols."""

    steps: Tuple[Tuple[str, int], ...]
    amplitude: object
    bs_encounters: int
    mirror_count: int

    @property
    def symbol_string(self) -> str:
        return "".join(sym for sym, _v in self.steps)

    @property
    def annotated(self) -> str:
        return " ".join(f"{sym}@{port_label(v)}" for sym, v in self.steps)


def enumerate_paths(
    spec: MultiportSpec, input_port: int, exit_port: int, n: int
) -> List[PathTrace]:
    """All paths entering ``input_port`` and exiting ``exit_port`` after
    exactly ``n`` beam-splitter encounters, sorted by symbol string.

    The coherent sum of the returned amplitudes equals the corresponding
    exit-record entry; each path amplitude has magnitude 2^(-n/2) for the
    reference 50/50 device.  The paths are counted before they are built,
    and more than ``_MAX_PATHS`` of them is a SpecError.
    """
    dev = compile_spec(spec)
    _check_port(dev, input_port, "input")
    _check_port(dev, exit_port, "exit")
    if n < 1:
        raise SpecError(f"a path needs at least 1 encounter, got {n}")
    if n > dev.max_steps:
        raise SpecError(f"n {n} exceeds max_steps {dev.max_steps}")
    internal = 3 * dev.n
    start, target = internal + input_port, internal + exit_port
    rows = step_rows(dev)
    successors = [[] for _ in rows]  # by source; one row per output, one output per mode
    for out, terms in rows:
        for src, weight, symbol in terms:
            successors[src].append((out, weight, symbol))
    # ways[k][mode]: the paths from ``mode`` at encounter k to the exit at
    # encounter n, counted back along the rows; the search below enters
    # only modes that have one.
    sources = dict(rows)
    ways = [None] * (n + 1)
    ways[n] = collections.Counter(src for src, _w, _s in sources[target])
    for k in range(n - 1, 0, -1):
        ways[k] = collections.Counter()
        for out, count in ways[k + 1].items():
            if out < internal:  # slot 3n + p is an input here, not an exit
                for src, _w, _s in sources[out]:
                    ways[k][src] += count
    if ways[1][start] > _MAX_PATHS:
        raise SpecError(
            f"{ways[1][start]} paths of {n} encounters from {port_label(input_port)} "
            f"to {port_label(exit_port)}; at most {_MAX_PATHS} are listed"
        )

    paths: List[PathTrace] = []
    stack = [(start, 1, exact.field(dev.mode).one, ())]
    while stack:
        mode, k, amp, syms = stack.pop()
        for out, weight, symbol in successors[mode]:
            if k == n and out == target:
                steps = syms + symbol
                mirrors = sum(letter == "M" for letter, _v in steps)
                paths.append(PathTrace(steps, amp * weight, n, mirrors))
            elif k < n and out < internal and ways[k + 1][out]:
                stack.append((out, k + 1, amp * weight, syms + symbol))
    paths.sort(key=lambda p: p.symbol_string)
    return paths


# ---------------------------------------------------------------------------
# Series summation and closed forms
# ---------------------------------------------------------------------------


@dataclass
class AmplitudeSeries:
    """Truncated exit-amplitude series and its geometric extrapolation."""

    input_port: int
    output_port: int
    terms: List[Tuple[int, object]]
    partial_sums: List[Tuple[int, object]]
    ratio: object
    extrapolated: object


def amplitude_series(
    spec: MultiportSpec,
    input_port: int,
    output_port: int,
    n_max: int = 16,
    ratio_tol: float = 1e-9,
) -> AmplitudeSeries:
    """Sum the exit-amplitude series for one transition analytically.

    The nonzero step amplitudes must settle into a geometric progression
    (at least three consecutive equal ratios of modulus < 1); the head of
    the series is kept verbatim and the tail is summed in closed form.
    Raises ConvergenceError when no geometric suffix exists.
    """
    record = exit_record(spec, input_port, n_max)
    mode = record.mode
    F = exact.field(mode)
    terms = []
    for step in record.steps:
        amp = step.amplitudes[output_port]
        if not _reported_zero(amp, mode):
            terms.append((step.n, amp))
    if len(terms) < 4:
        raise ConvergenceError(
            f"only {len(terms)} nonzero terms up to N={n_max}; nothing to extrapolate"
        )
    partials = []
    acc = F.zero
    for n, amp in terms:
        acc = acc + amp
        partials.append((n, acc))

    ratios = []
    for (_n1, a1), (_n2, a2) in zip(terms, terms[1:]):
        ratios.append(a2 / a1)
    last = ratios[-1]
    if abs(complex(last)) >= 1.0:
        raise ConvergenceError("series terms are not decaying; refusing to extrapolate")
    start = len(ratios)
    while start > 0 and _ratio_close(ratios[start - 1], last, mode, ratio_tol):
        start -= 1
    consistent = len(ratios) - start
    if consistent < 3:
        raise ConvergenceError(
            "nonzero terms do not settle into a constant ratio; refusing to extrapolate"
        )
    # terms[start] is the first member of the geometric suffix
    head = sum((amp for _n, amp in terms[:start]), F.zero)
    tail = terms[start][1] / (F.one - last)
    return AmplitudeSeries(input_port, output_port, terms, partials, last, head + tail)


def _reported_zero(amp, mode: str) -> bool:
    if mode == "exact":
        return amp.is_zero()
    return abs(amp) <= 1e-12


def _ratio_close(a, b, mode: str, tol: float) -> bool:
    if mode == "exact":
        return a == b
    return abs(a - b) <= tol * max(abs(b), 1e-30)


def family_coefficients(phi: float) -> Tuple[float, float]:
    """alpha = 1/sqrt(1 + 8 cos^2 phi) and beta = -2 cos(phi) * alpha of
    the symmetric family (see ``symmetric_unitary``)."""
    c = math.cos(phi)
    alpha = 1.0 / math.sqrt(1.0 + 8.0 * c * c)
    return alpha, -2.0 * c * alpha


def symmetric_unitary(phi_a: float, phi: float, mode: str = "float") -> Matrix:
    """The one-parameter family of symmetric 3x3 transition matrices.

    Diagonal entries e^{i phi_a} * alpha, off-diagonal entries
    e^{i phi_a} e^{i phi} * beta with alpha = 1/sqrt(1 + 8 cos^2 phi) and
    beta = -2 cos(phi) * alpha; unitary for every (phi_a, phi).  Exact
    mode accepts phi_a at multiples of pi/4 and phi at multiples of pi/2
    (the cases where alpha is rational).
    """
    if not (math.isfinite(phi_a) and math.isfinite(phi)):
        raise SpecError("phi_a and phi must be finite")
    F = exact.field(mode)
    lead = F.phase(phi_a)
    if mode == "exact":
        k = round(phi / (math.pi / 2.0))
        if abs(phi - k * math.pi / 2.0) > 1e-12:
            raise SpecError("exact mode supports phi in multiples of pi/2")
        c = (1, 0, -1, 0)[k % 4]  # cos(phi)
        alpha = exact.ExactComplex(Fraction(1, 3) if c else 1)
        beta = alpha * (-2 * c)
    else:
        alpha, beta = family_coefficients(phi)
    diag = lead * alpha
    off = lead * F.phase(phi) * beta
    rows = tuple(tuple(diag if i == j else off for j in range(3)) for i in range(3))
    return Matrix(rows, mode)


def grover_coin(n: int, mode: str = "float") -> Matrix:
    """The n x n involution with 2/n off the diagonal and 2/n - 1 on it."""
    if n < 2:
        raise SpecError("grover coin needs n >= 2")
    one = exact.field(mode).one
    off = one * 2 / n
    diag = off - one
    rows = tuple(tuple(diag if i == j else off for j in range(n)) for i in range(n))
    return Matrix(rows, mode)


def triport_unitary(mode: str = "exact") -> Matrix:
    """Closed-form long-time transition matrix of the reference 3-port.

    Equals i times the 3-dimensional Grover coin: diagonal -i/3,
    off-diagonal 2i/3.  The factor i is minus the reference mirror factor.
    """
    return grover_coin(3, mode).scaled(-_REFERENCE[mode][2])


def compare_up_to_global_phase(
    m1: Matrix, m2: Matrix, tol: float = 1e-9
) -> Tuple[bool, complex, float]:
    """Best unit-modulus c and deviation max|m1 - c*m2|.

    The phase candidate is read off the largest entries of m2; the
    reported deviation is exact for that candidate, so a match at ``tol``
    certifies equality up to global phase.
    """
    if m1.dim != m2.dim:
        raise SpecError("matrix dimensions differ")
    a = m1.to_numpy()
    b = m2.to_numpy()
    best_phase = 1 + 0j
    best_dev = float("inf")
    flat = [(abs(b[i, j]), i, j) for i in range(m1.dim) for j in range(m1.dim)]
    flat.sort(reverse=True)
    for mag, i, j in flat[:3]:
        if mag == 0.0 or abs(a[i, j]) == 0.0:
            continue
        c = a[i, j] / b[i, j]
        c = c / abs(c)
        dev = float(abs(a - c * b).max())
        if dev < best_dev:
            best_dev = dev
            best_phase = complex(c)
    if best_dev == float("inf"):
        best_dev = float(abs(a - b).max())
    return best_dev <= tol, best_phase, best_dev
