"""Counterdiabatic digitized annealing on random Ising spin glasses.

State-vector simulation of interpolated spin-glass Hamiltonians with
optional counterdiabatic driving terms, plus the benchmarking harness that
measures ground-state success probabilities, enhancement metrics, and
spectral-gap statistics over seeded random ensembles.
"""

__version__ = "0.1.0"

from .errors import (
    CdAnnealError,
    DimensionMismatchError,
    IntegratorError,
    ParameterError,
    ResourceCapError,
    SingularGaugeError,
)
from .pauli import (
    DENSE_CAP,
    PRUNE_TOLERANCE,
    PauliString,
    PauliSum,
    commutator,
    is_stoquastic,
    multiply,
    to_dense,
    trace_inner,
)
from .problem import (
    STATEVECTOR_CAP,
    GroundTruth,
    ProblemInstance,
    generate_instance,
    ground_state,
    instance_seed,
    load_instance,
    mixer_hamiltonian,
    problem_hamiltonian,
    save_instance,
)
from .schedule import GridPoint, Schedule
from .gauge import (
    Ansatz,
    CompiledGauge,
    GaugeSolution,
    adiabatic_pair,
    assemble_hamiltonian,
    cd_coefficients,
    cd_terms,
    local_y_coefficients,
    minimize_action,
    nc1_coefficient,
    nc1_operator,
    two_local_basis,
)
from .simulator import (
    DrivenHamiltonian,
    EvolutionReport,
    apply_pauli_exponential,
    ode_reference,
    plus_state,
    sample_shots,
    success_probability,
    trotter_evolve,
)
from .spectrum import (
    GapCurve,
    cd_norm,
    gap_curve,
    instantaneous_spectrum,
)
from .harness import (
    CostRow,
    EnsembleSummary,
    ExperimentConfig,
    RunRecord,
    cd_cost,
    config_hash,
    cost_report,
    emit_report,
    emit_sweep,
    enhancement_metrics,
    records_from_csv,
    records_to_csv,
    run_ensemble,
)

__all__ = [name for name in dir() if not name.startswith("_")]
