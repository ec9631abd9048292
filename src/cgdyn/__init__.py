"""Coarse-grained dynamics of many-qubit systems.

A joint state seen through an averaging map that keeps one qubit at a time
becomes a single effective qubit. This package builds the map, inverts it by
maximum entropy, pushes microscopic evolutions through it, and probes the
resulting reduced dynamics for nonlinearity and memory.
"""

from .coarse_grain import (
    CoarseGraining,
    apply_cg,
    custom,
    fuzzy_operator,
    non_preferential,
    preferential,
)
from .maxent import AssignedState, LagrangeSolution, assign, solve_lambda
from .evolve import (
    Cnot,
    CnotInteraction,
    FieldAllToAll,
    IsingChain,
    LocalZSecond,
    Swap,
    Trajectory,
    build_hamiltonian,
    dynamics,
    sample_field,
    trajectory,
)
from .channels import (
    EllipseParams,
    cnot_effective,
    dephase,
    depolarize,
    ellipse_params,
    field_limit_prediction,
    ising_effective,
    ising_gamma,
    kappa_swap,
    linear_nm_circle,
    linear_nm_effective,
    pauli_component_mask,
    swap_effective,
    swap_rate,
    total_dephasing,
)
from .diagnostics import (
    EqualMarginalReport,
    LinearityReport,
    MarkovReport,
    dyson_decay,
    equal_marginal_check,
    fuzzy_identity_check,
    linearity_probe,
    negative_rate_intervals,
    semigroup_gap,
)
from .qcore import PositivityError, bloch_from_density, density_from_bloch, partial_trace

__version__ = "0.1.0"

__all__ = [
    "AssignedState",
    "Cnot",
    "CnotInteraction",
    "CoarseGraining",
    "EllipseParams",
    "EqualMarginalReport",
    "FieldAllToAll",
    "IsingChain",
    "LagrangeSolution",
    "LinearityReport",
    "LocalZSecond",
    "MarkovReport",
    "PositivityError",
    "Swap",
    "Trajectory",
    "apply_cg",
    "assign",
    "bloch_from_density",
    "build_hamiltonian",
    "cnot_effective",
    "custom",
    "density_from_bloch",
    "dephase",
    "depolarize",
    "dynamics",
    "dyson_decay",
    "ellipse_params",
    "equal_marginal_check",
    "field_limit_prediction",
    "fuzzy_identity_check",
    "fuzzy_operator",
    "ising_effective",
    "ising_gamma",
    "kappa_swap",
    "linear_nm_circle",
    "linear_nm_effective",
    "linearity_probe",
    "negative_rate_intervals",
    "non_preferential",
    "partial_trace",
    "pauli_component_mask",
    "preferential",
    "sample_field",
    "semigroup_gap",
    "solve_lambda",
    "swap_effective",
    "swap_rate",
    "total_dephasing",
    "trajectory",
]
