"""Privacy amplification and FFT loss accounting for subsampling schemes.

Closed-form amplified (eps', delta') for Poisson, WOR, WR, and the two-stage
MUST family; privacy loss distributions of the subsampled Gaussian mechanism
with a Fourier accountant for k-fold composition; executable samplers as the
Monte-Carlo ground truth; and a desk-scale DP-SGD / bootstrap harness.
"""

from .accountant import (
    AccountantResult,
    EpsilonBeyondGridError,
    NonFiniteError,
    SweepCell,
    compose,
    compose_many,
    delta_direct,
)
from .amplification import (
    AlignedPoint,
    PAClass,
    aligned_profile,
    amplify_delta,
    amplify_epsilon,
    classify_pa,
    deamplify_epsilon,
    eta,
    multiplicity_weights,
    pa_on_boundary,
)
from .harness import (
    BootstrapConfig,
    DegenerateSampleError,
    DivergenceError,
    SGDConfig,
    make_synthetic,
    run_bootstrap,
    run_dpsgd_linear,
    run_dpsgd_logistic,
)
from .mechanisms import (
    Family,
    MechanismSpec,
    PrivacyPoint,
    calibrate_sigma,
    group_profile,
    profile,
    profile_numeric_oracle,
)
from .pld import (
    DiscretizedPLD,
    NoConvergenceError,
    OutOfDomainError,
    PrivacyLossModel,
    discretize,
    invert_loss,
    log_output_density,
    loss_at,
    pld_density,
    pld_density_swapped,
)
from .sampling import Multiset, RunStats, draw, mc_stats
from .schemes import MUSTow, MUSTwo, MUSTww, Poisson, SamplingScheme, WOR, WR

__version__ = "0.1.0"

__all__ = [
    "AccountantResult",
    "AlignedPoint",
    "BootstrapConfig",
    "DegenerateSampleError",
    "DiscretizedPLD",
    "DivergenceError",
    "EpsilonBeyondGridError",
    "Family",
    "MUSTow",
    "MUSTwo",
    "MUSTww",
    "MechanismSpec",
    "Multiset",
    "NoConvergenceError",
    "NonFiniteError",
    "OutOfDomainError",
    "PAClass",
    "Poisson",
    "PrivacyLossModel",
    "PrivacyPoint",
    "RunStats",
    "SGDConfig",
    "SamplingScheme",
    "SweepCell",
    "WOR",
    "WR",
    "aligned_profile",
    "amplify_delta",
    "amplify_epsilon",
    "calibrate_sigma",
    "classify_pa",
    "compose",
    "compose_many",
    "deamplify_epsilon",
    "delta_direct",
    "discretize",
    "draw",
    "eta",
    "group_profile",
    "invert_loss",
    "log_output_density",
    "loss_at",
    "make_synthetic",
    "mc_stats",
    "multiplicity_weights",
    "pa_on_boundary",
    "pld_density",
    "pld_density_swapped",
    "profile",
    "profile_numeric_oracle",
    "run_bootstrap",
    "run_dpsgd_linear",
    "run_dpsgd_logistic",
]
