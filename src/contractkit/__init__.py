"""contractkit: weighted semi-inner products, contraction rates, and
asymptotic contraction certificates for discretized ODEs and PDEs."""

from .errors import (
    ConfigError,
    ContractkitError,
    ContractViolation,
    DegenerateWeightError,
    DimensionError,
    DivergenceError,
    NumericalError,
    StiffnessError,
)
from .grids import Grid, unit_grid
from .sip import L1, L2, LINF, NormSpec, norm, sip
from .measures import (
    RateEstimate,
    mu,
    mu_fd_oracle,
    nonlinear_rate,
    weighted_rate,
)
from .weights import (
    AsymptoticRateResult,
    WeightFamily,
    check_radius_b,
    optimize_diagonal_weight,
)
from .flows import (
    Trajectory,
    VectorField,
    fit_decay_rate,
    integrate,
    integrate_variational,
    linear_field,
    mle_estimate,
    verify_growth_bound,
)
from .geometry import (
    Conjugacy,
    Projector,
    SimCheck,
    Submersion,
    certify_limit_cycle,
    certify_manifold_contraction,
    certify_phase_locking,
    certify_subspace_contraction,
    check_equivariance,
    check_subspace_invariance,
    check_temporal_symmetry,
)
from .pde import (
    Discretization,
    RegularizedFamily,
    build_discretization,
    heat_zero_flux_experiment,
    nonlinear_poisson_experiment,
    reaction_diffusion_experiment,
    sobolev_rate,
    vanishing_osl_experiment,
)

__version__ = "0.1.0"
