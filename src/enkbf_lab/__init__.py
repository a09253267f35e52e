"""Numerical laboratory for linear-Gaussian feedback particle filters and
ensemble Kalman-Bucy filters: signal model, exact filter, Riccati flows,
finite-N particle systems, and seeded Monte Carlo rate experiments."""

__version__ = "0.1.0"

from .linmodel import (  # noqa: F401
    ModelParams,
    NoiseBundle,
    TimeGrid,
    simulate_observations,
    simulate_truth,
    validate_assumptions,
)
from .riccati import (  # noqa: F401
    StabilityConstants,
    explicit_dre_solution,
    integrate_dre,
    ricc_rhs,
    solve_are,
    sqrt_ricc,
    transition_segments,
)
from .kalman import FilterPath, FilterState, kb_filter  # noqa: F401
from .ensemble import (  # noqa: F401
    CoupledSystem,
    Ensemble,
    EnsembleStats,
    VariantParams,
    coupled_step,
    empirical_stats,
    fpf_step,
    init_coupled,
    init_ensemble,
)
from .metrics import (  # noqa: F401
    RateFit,
    TrialRow,
    double_factorial,
    gaussian_w2,
    mse_curve,
    rate_fit,
    theoretical_bounds,
)
