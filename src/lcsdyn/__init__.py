"""Quantitative invariants of conformal discrete-time dynamics.

Birkhoff averages and their truncated envelopes, admissible sizes of mapping
tori over a conformal system, min-max coboundary optima, and elasticity sets
derived from Liouville profiles.
"""

__version__ = "0.1.0"

from .core import (
    BudgetError,
    ConformalSystem,
    DomainError,
    GOLDEN_ANGLE,
    ModelSpace,
    ValidationError,
    cat_map_system,
    coboundary_system,
    finite_permutation_system,
    iterate,
    rotation_system,
    strict_rotation_system,
)
from .birkhoff import (
    AdmissibleSet,
    BirkhoffTable,
    LimitEstimate,
    admissible_set,
    birkhoff_extrema,
    birkhoff_table,
    coboundary_residual,
    limit_estimates,
    transfer_potential,
)
from .ergopt import (
    CycleDecomposition,
    OptimizationResult,
    cycle_mean_extrema,
    is_strict_finite,
    maxmin_coboundary,
    minmax_coboundary,
)
from .torus import (
    CutoffFunction,
    NotFoundError,
    ProbeReport,
    TorusAction,
    action_power,
    action_step,
    build_cutoff,
    build_g,
    build_mu,
    probe_sweep,
    properness_probe,
)
from .elastic import (
    ElasticitySet,
    LiouvilleProfile,
    PeriodGroup,
    elasticity_from_profile,
    first_kind_test,
    lcs_rank,
    mapping_torus_profile,
)

__all__ = [name for name in dir() if not name.startswith("_")]
