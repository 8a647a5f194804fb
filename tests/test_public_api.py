"""The names the package exports: adding or dropping one is a deliberate edit here."""

import spinchain

PUBLIC = [
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


def test_all_is_the_pinned_sorted_list_of_names_that_resolve():
    # PUBLIC is sorted and duplicate-free, so the equality pins the same of __all__
    assert PUBLIC == sorted(set(PUBLIC))
    assert spinchain.__all__ == PUBLIC
    assert all(hasattr(spinchain, name) for name in PUBLIC)
