"""Bosonic multi-photon states over (port, polarization) modes.

Conventions used throughout the package:

* A mode is a ``(port, pol)`` pair with ports indexed from 0 (printed as
  A, B, C, ...) and polarization 0 = H, 1 = V.
* An occupation key is a tuple of ``((port, pol), count)`` pairs sorted by
  mode, with zero counts dropped.  Number states are orthonormal, so the
  squared norm of a state is the sum of |amplitude|^2 over its keys.
* ``|n> = (a†)^n / sqrt(n!) |0>``; products of states therefore pick up
  sqrt-binomial enhancement factors whenever modes collide.

All state values are immutable after construction and every operation is
a pure function, so independent computations can run concurrently.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Mapping, Tuple

from . import exact
from .errors import CapacityError, DimensionMismatchError, SpecError

H = 0
V = 1
POL_NAMES = ("H", "V")

#: Hard ceiling on total photon number; everything in the gate engine
#: needs exactly four, but the algebra itself is generic up to this.
MAX_PHOTONS = 4

Mode = Tuple[int, int]
Occupation = Tuple[Tuple[Mode, int], ...]


def port_label(index: int) -> str:
    return chr(ord("A") + index)


def port_index(label: str) -> int:
    if not isinstance(label, str) or len(label) != 1:
        raise SpecError(f"not a port label: {label!r}")
    idx = ord(label.upper()) - ord("A")
    if idx < 0 or idx > 25:
        raise SpecError(f"not a port label: {label!r}")
    return idx


def occupation_key(counts: Mapping[Mode, int]) -> Occupation:
    """Canonical sorted occupation tuple from a mode->count mapping."""
    items = tuple(sorted((m, c) for m, c in counts.items() if c))
    for (_port, pol), c in items:
        if c < 0:
            raise SpecError("negative occupation count")
        if pol not in (H, V):
            raise SpecError(f"bad polarization index {pol}")
    return items


def occupation_photons(occ: Occupation) -> int:
    return sum(c for _m, c in occ)


def occupation_str(occ: Occupation) -> str:
    return " ".join(f"{c}{POL_NAMES[pol]}{port_label(port)}" for (port, pol), c in occ)


class MultiPhotonState:
    """Sparse amplitude map over photon-number basis states.

    The empty map is the zero state.  Nonempty states must have one
    uniform total photon number across all terms.
    """

    __slots__ = ("n_ports", "mode", "terms")

    def __init__(self, terms: Mapping[Occupation, object], n_ports: int, mode: str = "float"):
        is_zero = exact.field(mode).is_zero
        clean: Dict[Occupation, object] = {}
        total = None
        for occ, amp in terms.items():
            if is_zero(amp):
                continue
            photons = occupation_photons(occ)
            if photons == 0:
                raise SpecError("vacuum term in a photon state")
            if photons > MAX_PHOTONS:
                raise CapacityError(f"{photons} photons exceeds the maximum of {MAX_PHOTONS}")
            if total is None:
                total = photons
            elif photons != total:
                raise SpecError("terms with unequal total photon number")
            for (port, _pol), _c in occ:
                if not 0 <= port < n_ports:
                    raise SpecError(f"port {port} outside 0..{n_ports - 1}")
            clean[occ] = amp
        self.n_ports = n_ports
        self.mode = mode
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n_ports: int, mode: str = "float") -> "MultiPhotonState":
        return cls({}, n_ports, mode)

    # -- basic queries ----------------------------------------------------

    @property
    def photon_count(self):
        for occ in self.terms:
            return occupation_photons(occ)
        return None

    def is_zero(self) -> bool:
        return not self.terms

    def norm_sq(self):
        return sum(map(exact.abs_sq, self.terms.values()), exact.field(self.mode).real_zero)

    def amplitude(self, counts: Mapping[Mode, int]):
        key = occupation_key(counts)
        return self.terms.get(key, exact.field(self.mode).zero)

    def overlap(self, other: "MultiPhotonState"):
        """<self|other> in the orthonormal number basis."""
        self._check_compatible(other)
        pairs = ((amp, other.terms[occ]) for occ, amp in self.terms.items() if occ in other.terms)
        return sum((a.conjugate() * o for a, o in pairs), exact.field(self.mode).zero)

    # -- algebra -----------------------------------------------------------

    def _check_compatible(self, other: "MultiPhotonState"):
        if self.n_ports != other.n_ports:
            raise DimensionMismatchError("states live on different port counts")
        if self.mode != other.mode:
            raise SpecError("cannot mix exact and float states")

    def scaled(self, factor) -> "MultiPhotonState":
        return MultiPhotonState(
            {occ: amp * factor for occ, amp in self.terms.items()}, self.n_ports, self.mode
        )

    def __add__(self, other: "MultiPhotonState") -> "MultiPhotonState":
        self._check_compatible(other)
        merged = dict(self.terms)
        for occ, amp in other.terms.items():
            cur = merged.get(occ)
            merged[occ] = amp if cur is None else cur + amp
        return MultiPhotonState(merged, self.n_ports, self.mode)

    def __sub__(self, other: "MultiPhotonState") -> "MultiPhotonState":
        minus_one = -exact.field(self.mode).one
        return self + other.scaled(minus_one)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = [f"({amp})|{occupation_str(occ)}>" for occ, amp in sorted(self.terms.items())]
        return " + ".join(bits)

    __repr__ = __str__


class PortStateVector:
    """Single-photon amplitude vector over ports (no polarization)."""

    __slots__ = ("amplitudes", "mode")

    def __init__(self, amplitudes: Iterable, mode: str = "float"):
        self.amplitudes = tuple(amplitudes)
        self.mode = mode

    @property
    def n_ports(self) -> int:
        return len(self.amplitudes)

    def norm_sq(self):
        return sum(map(exact.abs_sq, self.amplitudes), exact.field(self.mode).zero)

    def __getitem__(self, port: int):
        return self.amplitudes[port]

    def as_complex_list(self):
        return [complex(a) for a in self.amplitudes]

    def __str__(self):
        inner = ", ".join(str(a) for a in self.amplitudes)
        return f"[{inner}]"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def bosonic_product(
    s1: MultiPhotonState, s2: MultiPhotonState, max_photons: int = MAX_PHOTONS
) -> MultiPhotonState:
    """Creation-operator product of two states, in the number basis.

    For each pair of occupations the combined counts pick up the bosonic
    enhancement sqrt((c+d)! / (c! d!)) per mode, so the norm of the
    product equals the product of norms only when the factors occupy
    disjoint modes.
    """
    s1._check_compatible(s2)
    p1, p2 = s1.photon_count, s2.photon_count
    if p1 is None or p2 is None:
        return MultiPhotonState.zero(s1.n_ports, s1.mode)
    if p1 + p2 > max_photons:
        raise CapacityError(f"{p1}+{p2} photons exceeds the maximum of {max_photons}")
    mode = s1.mode
    out: Dict[Occupation, object] = {}
    for occ1, a1 in s1.terms.items():
        for occ2, a2 in s2.terms.items():
            combined, amp = dict(occ1), a1 * a2
            for m, c in occ2:
                prev = combined.get(m, 0)
                combined[m] = prev + c
                if prev:  # binomial(prev + c, c) is one of {2, 3, 4, 6} here
                    amp = amp * exact.field(mode).sqrt_int(math.comb(prev + c, c))
            key = occupation_key(combined)
            cur = out.get(key)
            out[key] = amp if cur is None else cur + amp
    return MultiPhotonState(out, s1.n_ports, mode)


def apply_port_unitary(unitary, state: MultiPhotonState) -> MultiPhotonState:
    """Apply a port-space matrix to every photon; polarization untouched.

    Each creation operator maps as a†(p, pol) -> sum_q U[q][p] a†(q, pol);
    the state is expanded into a creation monomial, each factor is
    substituted, and the resulting polynomial is re-collected in the
    normalized number basis.
    """
    if unitary.dim != state.n_ports:
        raise DimensionMismatchError(
            f"matrix dimension {unitary.dim} != port count {state.n_ports}"
        )
    if unitary.mode != state.mode:
        raise SpecError("matrix and state numeric modes differ")
    mode = state.mode
    F = exact.field(mode)
    dim = unitary.dim
    out: Dict[Occupation, object] = {}
    for occ, amp in state.terms.items():
        coef = amp
        factors = []
        for (port, pol), c in occ:
            if c > 1:
                coef = coef / F.sqrt_int(math.factorial(c))
            factors.extend(((port, pol),) * c)
        partial: Dict[Occupation, object] = {(): coef}
        for port, pol in factors:
            nxt: Dict[Occupation, object] = {}
            for mono, c0 in partial.items():
                counts = dict(mono)
                for q in range(dim):
                    u = unitary.entry(q, port)
                    if F.is_zero(u):
                        continue
                    counts2 = dict(counts)
                    m = (q, pol)
                    counts2[m] = counts2.get(m, 0) + 1
                    key = occupation_key(counts2)
                    add = c0 * u
                    cur = nxt.get(key)
                    nxt[key] = add if cur is None else cur + add
            partial = nxt
        for mono, c0 in partial.items():
            val = c0
            for _m, c in mono:
                if c > 1:
                    val = val * F.sqrt_int(math.factorial(c))
            cur = out.get(mono)
            out[mono] = val if cur is None else cur + val
    return MultiPhotonState(out, state.n_ports, mode)


def project(
    state: MultiPhotonState, predicate: Callable[[Dict[Mode, int]], bool]
) -> MultiPhotonState:
    """Un-renormalized component on the occupations selected by predicate.

    The squared norm of the result is the probability of the selected
    outcome, so complementary predicates split norm_sq exactly.
    """
    kept = {occ: amp for occ, amp in state.terms.items() if predicate(dict(occ))}
    return MultiPhotonState(kept, state.n_ports, state.mode)
