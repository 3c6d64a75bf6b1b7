"""Greedy rejection sampling and channel simulation divergences, desk scale.

The toolkit builds target/proposal pairs, reduces them to their width
function w(h) = P(dQ/dP >= h), computes the divergence family driven by it
(D_KL, D_CS, D_ACS, generalized D^phi) by closed form and adaptive
quadrature, derives the exact law of the greedy rejection sampling index by
a deterministic recursion, and verifies the runtime and codelength bounds
numerically.
"""

__version__ = "0.1.0"

from .errors import (
    CrsToolkitError,
    InvalidParameterError,
    QuadratureError,
    StepBudgetError,
    SweepValidationError,
)
from .streams import RngStream
from .measures import (
    DiscreteSpec,
    DistributionPair,
    GaussianSpec,
    LaplaceSpec,
    SyntheticSpec,
    discrete_spec,
    make_pair,
)
from .width import (
    GaussianWidth,
    LaplaceWidth,
    OptimalAcsWidth,
    OptimalCsWidth,
    PowerTail,
    StepWidth,
    WidthFunction,
    d_infinity,
    equality_case_width,
    indicator_width,
    two_level_width,
    width_eval,
    width_from_discrete,
    width_from_table,
)
from .divergences import (
    PHI_BINARY_ENTROPY,
    PHI_XLOGX,
    DivergenceReport,
    PhiSpec,
    alternative_divergence,
    channel_simulation_divergence,
    dcs_integral_representation_check,
    dcs_laplace_closed,
    kl_divergence,
    kl_sandwich,
    quad_phi_integral,
)
from .grs import (
    GrsEmpirical,
    IndexDistribution,
    default_eps_stop,
    grs_empirical,
    grs_index_distribution,
    grs_sample,
)
from .experiments import (
    BoundSuiteReport,
    SuiteEntry,
    bound_suite,
    default_suite,
    epsilon_family_study,
    gaussian_sweep,
    laplace_sweep,
    load_suite_file,
)

__all__ = [name for name in dir() if not name.startswith("_")]
