"""Qubit-probe dephasing under non-stationary Gaussian noise.

Pipeline: a noise kernel (the inverse covariance of the fluctuating field)
is discretized on a time grid, inverted to the correlation matrix, and either
diagonalized into noise eigenmodes or contracted with a control modulation to
give the attenuation exponent and coherence.  Monte Carlo path sampling,
noise spectroscopy, pulse-sequence optimization and the generalized Markov
propagator build on the same objects.
"""

from .core import (
    ControlModulation,
    DenseKernel,
    DephasingResult,
    FieldPath,
    KernelSpec,
    KernelValidation,
    LocalInTimeKernel,
    StationaryPolynomialKernel,
    TimeGrid,
    control_custom,
    control_cw,
    control_free,
    control_pulse_train,
    harmonic_well,
    ornstein_uhlenbeck,
    quartic_kernel,
    validate_kernel_spec,
    white_noise,
)
from .errors import (
    DomainError,
    GridMismatchError,
    IllConditionedError,
    IndefiniteCovarianceError,
    InvalidModelError,
    ModelMismatchError,
    NotPositiveDefiniteError,
    PaddingWarning,
    QDephaseError,
    SingularKernelError,
    UnderdeterminedError,
)
from .gridops import (
    BoundaryCondition,
    CorrelationMatrix,
    KernelMatrix,
    WindowPrecision,
    correlation_at,
    discretize_kernel,
    kernel_to_correlation,
    window_precision,
)

__version__ = "0.1.0"

from .analytic import (  # noqa: E402
    HarmonicNoiseParams,
    QuenchedOUParams,
    harmonic_mode,
    harmonic_spectrum,
    is_markovian,
    quenched_cw_attenuation,
    quenched_ou_bispectrum,
    quenched_ou_correlation,
    stationary_spectrum,
)
from .control import optimize_pulse_times, protection_report  # noqa: E402
from .dephasing import (  # noqa: E402
    attenuation_eigenbasis,
    attenuation_stationary,
    attenuation_time_basis,
    coherence_curve,
)
from .eigenmodes import (  # noqa: E402
    Bispectrum,
    EigenmodeDecomposition,
    bispectrum_from_correlation,
    decompose,
    filter_coefficient,
    reconstruct_correlation,
)
from .markov import (  # noqa: E402
    GeneralizedState,
    PropagatorGaussian,
    chapman_kolmogorov_check,
    classical_action,
    classical_field,
    propagator,
)
from .sampler import (  # noqa: E402
    PathEnsemble,
    SampleEstimate,
    estimate_coherence,
    factorize_covariance,
    monte_carlo_coherence,
    precision_factor,
    sample_path_regularity,
    sample_paths,
)
from .spectroscopy import (  # noqa: E402
    FilterBank,
    MeasurementSet,
    SpectrumEstimate,
    design_filter_bank_cw,
    design_filter_bank_eigen,
    fit_local_in_time,
    reconstruct_nonparametric,
    simulate_measurements,
)
