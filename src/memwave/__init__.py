"""Numerical laboratory for blow-up in wave equations with memory forcing.

The package covers the full pipeline: memory-kernel families, each stating
its decay class against the 1/t threshold, critical exponents and critical
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
    case1_closed_form,
    case1_recursion,
    case2_closed_form,
    case2_recursion,
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
)
from .observables import (
    BlowupVerdict,
    FunctionalTrace,
    detect_blowup,
    phi_eigenfunction,
)
from .solver import (
    HistoryWeights,
    Profile,
    SimulationResult,
    SystemConfig,
    run_simulation,
)

__version__ = "0.1.0"
