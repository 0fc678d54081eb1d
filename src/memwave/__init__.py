"""Numerical laboratory for blow-up in wave equations with memory forcing.

The package covers the full pipeline: memory-kernel families and their decay
classification against the 1/t threshold, critical exponents and critical
curves, exact-rational iteration-frame sequences with closed-form
cross-validation, a radial finite-difference solver whose memory convolution
uses singularity-exact product integration, blow-up functionals and detection,
and a deterministic command-line front end.
"""

from .errors import ConfigError, DomainError, InsufficientDataError, UnsupportedError
from .exponents import (
    Branch,
    ConditionVerdict,
    ProblemParams,
    RegionMap,
    alpha_w,
    alpha_wm,
    check_condition_fast,
    check_condition_slow,
    generalized_strauss,
    log_iterate,
    strauss_exponent,
)
from .iteration import (
    IterationCase,
    case1_closed_form,
    case1_recursion,
    case2_closed_form,
    case2_recursion,
    divergence_certificate,
    index_thresholds,
    slicing_sequence,
)
from .kernels import (
    Constant,
    Custom,
    DecayClass,
    DecayTag,
    Exponential,
    IteratedExponential,
    MemoryKernel,
    OscillatingPolynomial,
    PolynomialShifted,
    RiemannLiouville,
    classify_decay,
    minorant,
)
from .observables import (
    BlowupVerdict,
    FunctionalTrace,
    check_u_doubleprime_identity,
    detect_blowup,
    phi_eigenfunction,
    radial_integral,
)
from .solver import (
    HistoryWeights,
    Profile,
    SimulationResult,
    SystemConfig,
    run_simulation,
)

__version__ = "0.1.0"
