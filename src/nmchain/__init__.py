"""Collision chains of qubits: exact simulation of a system qubit hit by a
stream of prepared molecules, satellite-memory embeddings of overlapping
collision layouts, stepwise divisibility checks of the reduced dynamics,
and correlation measures of the stationary memory."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .linalg import (
    DensityMatrix,
    check_states,
    eig_hermitian,
    partial_trace,
    partial_transpose,
    tensor,
    trace_norm_distance,
    von_neumann_entropy,
)
from .gates import (
    UnitaryGate,
    embed,
    molecule_state,
    sqrt_xor_gate,
    swap_gate,
    xor_gate,
)
from .channels import (
    DivisibilityStep,
    apply_kraus,
    choi,
    divisibility_scan,
    kraus_from_collision,
    map_tomography,
)
from .chains import (
    ChainModel,
    CollisionSchedule,
    advanced_overlap_schedule,
    build_embedding,
    chain_schedule,
    custom_chain,
    delta,
    evolve,
    markov_xor,
    markov_xor_fixed_point,
    markov_xor_kraus,
    markov_xor_step,
    overlap_schedule,
    repeated_xor,
    satellite_count,
    schedule_from_records,
    simulate,
    single_molecule_schedule,
    sqrt_xor,
    stationary_overlap,
    stationary_state,
    system_maps,
    system_marginals,
    window_width,
)
from .measures import (
    NMReport,
    ProjectivePair,
    classical_correlation,
    discord,
    mutual_information,
    nm_report,
)
from .trajectories import (
    EnsembleStats,
    TrajectoryRecord,
    UnsupportedScheduleError,
    branch_average,
    enumerate_branches,
    sample_ensemble,
    sample_trajectory,
)

# importing a name from a submodule also binds the submodule; leave those out
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
