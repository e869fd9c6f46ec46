"""Timing and coherence arithmetic for a physical multiport.

All quantities are SI.  The transit time between beam-splitter
encounters is T = index * d / c; the transient inside the device decays
on T_c = decay_factor * T (the conservative default factor is 10), which
caps the sampling rate at 1/T_c.  A gated Gaussian pulse satisfies
dt * dnu = 1/(4 pi); the coherence time is 1/dnu and the coherence
length c/dnu.  The finite bandwidth spreads the per-edge propagation
phase by dphi = 2 pi d / (c * tau_coh).

The inequality chain tau_coh >> T_D > T_c is operationalized with a
factor of 10 on the strict ">>".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import SpecError

SPEED_OF_LIGHT = 299_792_458.0  # m/s
DEFAULT_DECAY_FACTOR = 10.0
MUCH_GREATER_FACTOR = 10.0


@dataclass
class TimingBudget:
    d: float
    refractive_index: float
    transit_time: float  # T
    decay_time: float  # T_c
    max_sampling_rate: float  # 1 / T_c
    pulse_duration: Optional[float]  # delta t
    spectral_width: Optional[float]  # delta nu
    coherence_time: Optional[float]  # 1 / delta nu
    coherence_length: Optional[float]
    detector_time: Optional[float]  # T_D
    phase_spread: Optional[float]  # delta phi per edge
    constraints_ok: Optional[bool]
    violations: Tuple[str, ...]


def assess(
    d: float,
    refractive_index: float = 1.0,
    pulse_duration: Optional[float] = None,
    spectral_width: Optional[float] = None,
    detector_time: Optional[float] = None,
    decay_factor: float = DEFAULT_DECAY_FACTOR,
) -> TimingBudget:
    """Fill every derived timing quantity from the physical inputs.

    Provide at most one of pulse_duration / spectral_width; the other is
    derived through the Gaussian relation.  Constraint flags need
    detector_time; infeasible inputs do not raise, they come back with
    constraints_ok=False and the violated inequality named.
    """
    # Written so that NaN fails: comparisons with NaN are false.
    if not 0 < d < math.inf:
        raise SpecError("edge length d must be positive and finite")
    if not 1.0 <= refractive_index < math.inf:
        raise SpecError("refractive index must be >= 1 and finite")
    if pulse_duration is not None and spectral_width is not None:
        raise SpecError("give pulse_duration or spectral_width, not both")

    transit = refractive_index * d / SPEED_OF_LIGHT
    if transit == 0:
        raise SpecError("edge length d is too small for double precision")
    decay = decay_factor * transit
    rate = 1.0 / decay

    if pulse_duration is not None:
        if not pulse_duration > 0:
            raise SpecError("pulse duration must be positive")
        spectral_width = 1.0 / (4.0 * math.pi * pulse_duration)
    elif spectral_width is not None:
        if not spectral_width > 0:
            raise SpecError("spectral width must be positive")
        pulse_duration = 1.0 / (4.0 * math.pi * spectral_width)
    if spectral_width == math.inf:
        raise SpecError("spectral width must be finite")

    coherence_time = None
    coherence_length = None
    phase_spread = None
    if spectral_width is not None:
        coherence_time = math.inf if spectral_width == 0 else 1.0 / spectral_width
        coherence_length = SPEED_OF_LIGHT * coherence_time
        phase_spread = (
            0.0
            if math.isinf(coherence_time)
            else 2.0 * math.pi * d / (SPEED_OF_LIGHT * coherence_time)
        )

    constraints_ok: Optional[bool] = None
    violations = []
    if detector_time is not None:
        if not detector_time > 0:
            raise SpecError("detector time must be positive")
        constraints_ok = True
        if detector_time < decay:
            constraints_ok = False
            violations.append("T_D >= T_c")
        if coherence_time is not None and coherence_time < MUCH_GREATER_FACTOR * detector_time:
            constraints_ok = False
            violations.append("tau_coh >= 10 * T_D")

    return TimingBudget(
        d=d,
        refractive_index=refractive_index,
        transit_time=transit,
        decay_time=decay,
        max_sampling_rate=rate,
        pulse_duration=pulse_duration,
        spectral_width=spectral_width,
        coherence_time=coherence_time,
        coherence_length=coherence_length,
        detector_time=detector_time,
        phase_spread=phase_spread,
        constraints_ok=constraints_ok,
        violations=tuple(violations),
    )
