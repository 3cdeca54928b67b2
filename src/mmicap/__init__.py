"""Mutual-information capacity of Gaussian-input neural architectures.

Closed-form capacity under a squared-Frobenius weight budget for dense,
convolutional and multilayer families (relu and bijective activations have
the linear value), the water-filling machinery behind it, and independent
numerical-optimization and Monte-Carlo verification of every formula.
"""

from .errors import (
    ConfigError,
    DeltaOutOfRange,
    DimensionMismatch,
    IndexOutOfRange,
    InfeasibleFactorization,
    MmicapError,
    NegativeBudget,
    NonPositiveEigenvalue,
    NotPositiveDefinite,
    NotSymmetric,
    NumericalOverflow,
    NumericalUnderflow,
)
from .mc import (
    ChannelModel,
    MCConfig,
    MCEstimate,
    bijective_channel,
    estimate_entropy,
    estimate_mi,
    linear_channel,
    relu_channel,
    sample_gaussian_inputs,
    verify_entropy_ordering,
)
from .mmi import (
    ArchitectureSpec,
    Convolutional,
    CurvePoint,
    FullyConnected,
    MmiResult,
    MultiLayer,
    evaluate,
    invert_mmi,
    mmi_curve,
    mmi_formula,
)
from .oracle import (
    OptimizeResult,
    OptimizerConfig,
    WeightMatrix,
    build_optimal_weights,
    exact_linear_mi,
    factor_check_multilayer,
    maximize_mi,
    maximize_mi_conv,
    tile_filter,
)
from .spectrum import (
    BlockCovariance,
    CovarianceMatrix,
    SpectralDecomposition,
    Spectrum,
    decompose_covariance,
    load_covariance_csv,
    model_spectrum,
)
from .verify import delta_bound, g_bound, run_verification, verify_relu_theorem
from .waterfill import breakpoints, regime, solve_waterfill

__version__ = "0.1.0"
