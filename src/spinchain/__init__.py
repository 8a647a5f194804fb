"""Dissipative spin-1/2 XYZ dimer with an Ising neighborhood.

Closed-form and numerically integrated Lindblad dynamics of a two-qubit
X state under independent zero-temperature amplitude damping, with
entanglement, coherence, and local quantum Fisher information measures
plus a small CLI (``spinchain``).
"""

from .dynamics import (
    IntegratorConfig,
    NoDissipation,
    SingularScale,
    StepUnstable,
    TimeSeriesRecord,
    analytic_state,
    evolve,
    lindblad_rhs,
    record_from_state,
    steady_state_limit,
    validate_density,
    x_leakage,
)
from .measures import (
    BasisRotation,
    MeasureSet,
    NotHermitian,
    NotXForm,
    concurrence_generic,
    concurrence_x,
    evaluate_measures,
    l1_coherence,
    lqfi,
    lqfi_bruteforce,
    lqfi_paper_variant,
    qfi,
)
from .model import (
    DerivedScales,
    ModelParams,
    derived_scales,
    hamiltonian_block,
    initial_state,
    jump_operators,
)

__version__ = "0.1.0"

__all__ = [
    "BasisRotation",
    "DerivedScales",
    "IntegratorConfig",
    "MeasureSet",
    "ModelParams",
    "NoDissipation",
    "NotHermitian",
    "NotXForm",
    "SingularScale",
    "StepUnstable",
    "TimeSeriesRecord",
    "analytic_state",
    "concurrence_generic",
    "concurrence_x",
    "derived_scales",
    "evaluate_measures",
    "evolve",
    "hamiltonian_block",
    "initial_state",
    "jump_operators",
    "l1_coherence",
    "lindblad_rhs",
    "lqfi",
    "lqfi_bruteforce",
    "lqfi_paper_variant",
    "qfi",
    "record_from_state",
    "steady_state_limit",
    "validate_density",
    "x_leakage",
]
