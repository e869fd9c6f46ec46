"""Simulator for directionally-unbiased linear-optical multiports.

Exact and floating-point models of n-port devices in which a photon may
exit back out of its input port: single-photon exit records and path
sums, the closed-form symmetric transition family and Grover coin,
heralded four-photon Bell-state gates with their Klein-group structure,
scattering walks on multiport networks, and timing feasibility.
"""

from .bell import (
    BellLabel,
    GateOutcome,
    GroupTable,
    HeraldCondition,
    TruthTable,
    bell_state,
    classify_bell,
    cnot_table,
    full_truth_table,
    group_table,
    intermediate_expansion,
    parse_bell_short,
    process,
)
from .device import (
    AmplitudeSeries,
    ExitRecord,
    LongTimeResult,
    MultiportSpec,
    PathTrace,
    SteadyStateResult,
    amplitude_series,
    compare_up_to_global_phase,
    compile_spec,
    enumerate_paths,
    exit_record,
    grover_coin,
    long_time_matrix,
    steady_state,
    symmetric_unitary,
    triport_unitary,
)
from .errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    DimensionMismatchError,
    InvariantViolation,
    MultiportError,
    NumericError,
    SpecError,
)
from .exact import ExactComplex
from .feasibility import TimingBudget, assess
from .matrices import Matrix, eigensystem_small
from .network import (
    CoherenceBudget,
    GraphSpec,
    IdealVertex,
    PhysicalVertex,
    Schedule,
    WalkEngine,
    WalkResult,
    build_network,
    coherence_budget,
    grover_vertex,
    run_walk,
)
from .states import (
    H,
    V,
    MultiPhotonState,
    PortStateVector,
    apply_port_unitary,
    bosonic_product,
    occupation_key,
    port_index,
    port_label,
    project,
)

__version__ = "0.1.0"
