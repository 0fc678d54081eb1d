"""Memory kernels g(t), their antiderivatives, and decay classification.

Every kernel is positive on t > 0, integrable near t = 0 (singularity order
strictly below 1), and immutable after construction.  A family states the
closed forms it has; the one generic fallback for G and ∫G is a single-level
quadrature of Cauchy's repeated-integral formula.  The power laws
(RiemannLiouville, PolynomialShifted) also supply a sum-of-exponentials fit
away from t = 0, built with NumPy only, which the solver uses for the old part
of a long memory convolution.  The decay classification
compares the large-time behaviour of g against the reference rate 1/t: kernels
bounded below by c/t are Slow, kernels bounded above by c/t are Fast.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, InsufficientDataError, UnsupportedError

__all__ = [
    "MemoryKernel",
    "RiemannLiouville",
    "PolynomialShifted",
    "Exponential",
    "IteratedExponential",
    "OscillatingPolynomial",
    "Constant",
    "Custom",
    "DecayTag",
    "DecayClass",
    "classify_decay",
    "minorant",
]

# Floor used when a very fast kernel underflows double precision; keeps g > 0.
_TINY = 1e-300

# Band (in log-log slope units) around -1 inside which a tabulated kernel is
# reported as Indeterminate rather than Slow/Fast.
_SLOPE_BAND = 0.05

#: relative error that a sum-of-exponentials fit must meet on its whole
#: interval, or it is not used; a 1e-12 change in the memory term grows by
#: about 400x over a blow-up run, whose reference check is 1e-8 relative
SOE_TOLERANCE = 1e-11
#: the most terms a fit may keep
SOE_MAX_TERMS = 64
# quadrature of the Laplace integral behind a fit: Gauss-Jacobi nodes on
# [0, 1/x1], Gauss-Legendre nodes per dyadic interval above it, and the
# dyadic intervals stop once e^(-s x0) is below about e^-_SOE_CUTOFF
_JACOBI_NODES = 20
_LEGENDRE_NODES = 24
_SOE_CUTOFF = 40.0


class DecayTag(enum.Enum):
    SLOW = "slow"
    FAST = "fast"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class DecayClass:
    """Decay verdict plus the onset time of the asymptotic bound."""

    tag: DecayTag
    t0: float = 0.0


class MemoryKernel:
    """Base class: evaluator g(t) with antiderivatives G and ∫G.

    Subclasses set ``singularity_order`` (the s in g ~ t^-s near 0) and
    ``monotone`` (True when g is non-increasing on (0, ∞)).  They supply
    formulas only: ``_eval`` and, where closed forms exist, ``_antiderivative``
    and ``_second_antiderivative``, each called for t > 0 only; the public
    ``antiderivative`` and ``second_antiderivative`` check t.  Both fall back
    on ``_repeated_integral``, one quadrature each, which a family may
    replace with a better rule.
    """

    singularity_order: float = 0.0
    monotone: bool = True

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise DomainError("kernel argument must be nonnegative")
        if self.singularity_order > 0.0 and np.any(t == 0.0):
            raise DomainError("kernel is singular at t = 0")
        out = self._eval(t)
        return float(out) if np.isscalar(out) or out.ndim == 0 else out

    def _eval(self, t):
        raise NotImplementedError

    def antiderivative(self, t: float) -> float:
        """G(t) = ∫_0^t g, with G(0) = 0."""
        if t < 0.0:
            raise DomainError("antiderivative argument must be nonnegative")
        return 0.0 if t == 0.0 else self._antiderivative(t)

    def second_antiderivative(self, t: float) -> float:
        """∫_0^t G(τ) dτ; smooth even for singular kernels."""
        if t < 0.0:
            raise DomainError("argument must be nonnegative")
        return 0.0 if t == 0.0 else self._second_antiderivative(t)

    def _antiderivative(self, t: float) -> float:
        return self._repeated_integral(t, 0)

    def _second_antiderivative(self, t: float) -> float:
        return self._repeated_integral(t, 1)

    def _repeated_integral(self, t: float, k: int) -> float:
        """∫_0^t (t - s)^k g(s) ds for t > 0: G(t) for k = 0 and, by Cauchy's
        formula for repeated integration, ∫_0^t G for k = 1."""
        from scipy import integrate  # on first use: closed-form kernels never load scipy

        return integrate.quad(lambda s: (t - s) ** k * self._eval(s), 0.0, t,
                              epsrel=1e-12, limit=200)[0]

    def exponential_sum(self, t0: float, t1: float):
        """Rates s_k and weights w_k with g(t) ≈ Σ_k w_k exp(-s_k (t - t0))
        to ``SOE_TOLERANCE`` relative on [t0, t1], 0 < t0 < t1; None when the
        family has no such fit or it misses the bound."""
        return None

    def value_at_zero(self) -> float:
        if self.singularity_order > 0.0:
            raise UnsupportedError("kernel is singular at t = 0")
        return self(0.0)

    def derivative_at_zero(self) -> float:
        raise UnsupportedError(f"{type(self).__name__} has no C^1 extension to t = 0")


def _gauss_jacobi(n: int, beta: float):
    """Nodes and weights on [0, 1] for the weight x^beta, beta > -1: the
    Golub-Welsch eigenproblem of the Jacobi matrix of P^(0, beta)."""
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + beta
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + x), v[0] ** 2 / (beta + 1.0)


def _power_law_sum(gamma: float, x0: float, x1: float):
    """Rates and weights with x^-gamma ≈ Σ_k w_k exp(-s_k (x - x0)) on
    [x0, x1], 0 < x0 < x1, or None if no fit of at most ``SOE_MAX_TERMS``
    terms meets ``SOE_TOLERANCE``.

    Quadrature of x^-gamma = Γ(gamma)^-1 ∫_0^∞ s^(gamma-1) e^(-s x) ds gives a
    few hundred terms accurate to rounding (Jiang, Zhang, Zhang & Zhang, Commun.
    Comput. Phys. 21, 2017).  Symmetric balanced truncation compresses them:
    the sum is the impulse response of a diagonal system whose two Gramians on
    the horizon x1 - x0 coincide, so projecting on the leading eigenvectors of
    that Gramian and diagonalising the projected generator gives K positive
    rates and weights (Beylkin & Monzón, ACHA 19, 2005, for such sums).  K is
    the smallest count whose error on a dense check grid is at most a tenth of
    the tolerance, or failing that the most accurate one that meets it.
    """
    lo = 1.0 / x1  # below lo, e^(-s x) is smooth on the whole interval
    y, wy = _gauss_jacobi(_JACOBI_NODES, gamma - 1.0)
    nodes, weights = [lo * y], [lo**gamma * wy]
    u, wu = np.polynomial.legendre.leggauss(_LEGENDRE_NODES)
    while lo * x0 < _SOE_CUTOFF + 2.0 * gamma:
        s = lo * (1.5 + 0.5 * u)
        nodes.append(s)
        weights.append(0.5 * lo * wu * s ** (gamma - 1.0))
        lo *= 2.0
    s = np.concatenate(nodes)
    # square roots of the weights of the terms once shifted to x0
    b = np.sqrt(np.concatenate(weights) / math.gamma(gamma)) * np.exp(-0.5 * s * x0)
    total = s[:, None] + s
    gramian = np.outer(b, b) * -np.expm1(-total * (x1 - x0)) / total
    sigma, basis = np.linalg.eigh(gramian)
    sigma, basis = sigma[::-1], basis[:, ::-1]
    x = np.concatenate((np.geomspace(x0, x1, 4001), np.linspace(x0, x1, 4001)))
    want = x ** -gamma
    # the leading Hankel singular values above the tolerance bound K from below
    start = min(max(1, int(np.sum(sigma > SOE_TOLERANCE * x1**-gamma))), SOE_MAX_TERMS)
    best = (math.inf, None)
    for K in range(start, SOE_MAX_TERMS + 1):
        rates, rotation = np.linalg.eigh(basis[:, :K].T @ (s[:, None] * basis[:, :K]))
        fit = (rates, (rotation.T @ (basis[:, :K].T @ b)) ** 2)
        error = np.max(np.abs(np.exp(-np.outer(x - x0, fit[0])) @ fit[1] / want - 1.0))
        if error < best[0]:
            best = (error, fit)
        if error <= 0.1 * SOE_TOLERANCE:
            break
    if best[0] > SOE_TOLERANCE:
        warnings.warn(f"no sum of {SOE_MAX_TERMS} exponentials fits x^-{gamma:g} on "
                      f"[{x0:g}, {x1:g}] to {SOE_TOLERANCE:g} (best {best[0]:.1e}); "
                      "the memory convolution keeps its whole history", RuntimeWarning,
                      stacklevel=3)
        return None
    return best[1]


class RiemannLiouville(MemoryKernel):
    """g(t) = scale * t^-gamma / Gamma(1 - gamma), gamma in (0, 1).

    The default scale 1 is the Riemann-Liouville fractional-integral kernel of
    order 1 - gamma; scale = Gamma(1 - gamma) gives the bare power law t^-gamma.
    """

    def __init__(self, gamma: float, scale: float = 1.0):
        if not 0.0 < gamma < 1.0:
            raise ConfigError(
                f"RiemannLiouville requires gamma in (0, 1), got {gamma}", param="gamma"
            )
        if scale <= 0.0:
            raise ConfigError("scale must be positive", param="scale")
        self.gamma = gamma
        self.scale = scale
        self.singularity_order = gamma
        self._norm = scale / math.gamma(1.0 - gamma)

    def _eval(self, t):
        return self._norm * t ** (-self.gamma)

    def _antiderivative(self, t):
        return self._norm * t ** (1.0 - self.gamma) / (1.0 - self.gamma)

    def _second_antiderivative(self, t):
        g = self.gamma
        return self._norm * t ** (2.0 - g) / ((1.0 - g) * (2.0 - g))

    def exponential_sum(self, t0, t1):
        fit = _power_law_sum(self.gamma, t0, t1)
        return None if fit is None else (fit[0], self._norm * fit[1])


class PolynomialShifted(MemoryKernel):
    """g(t) = (1 + t)^-gamma with gamma >= 0; no singularity at t = 0."""

    def __init__(self, gamma: float):
        if gamma < 0.0:
            raise ConfigError(f"PolynomialShifted requires gamma >= 0, got {gamma}", param="gamma")
        self.gamma = gamma

    def _eval(self, t):
        return (1.0 + t) ** (-self.gamma)

    def _antiderivative(self, t):
        g = self.gamma
        if g == 1.0:
            return math.log1p(t)
        return (((1.0 + t) ** (1.0 - g)) - 1.0) / (1.0 - g)

    def _second_antiderivative(self, t):
        g = self.gamma
        if g == 1.0:
            return (1.0 + t) * math.log1p(t) - t
        if g == 2.0:
            return t - math.log1p(t)
        return ((((1.0 + t) ** (2.0 - g)) - 1.0) / (2.0 - g) - t) / (1.0 - g)

    def exponential_sum(self, t0, t1):
        # (1 + t)^-gamma is the power law at x = 1 + t, and t - t0 = x - (1 + t0)
        if self.gamma == 0.0:
            return np.zeros(1), np.ones(1)
        return _power_law_sum(self.gamma, 1.0 + t0, 1.0 + t1)

    def value_at_zero(self):
        return 1.0

    def derivative_at_zero(self):
        return -self.gamma


class Exponential(MemoryKernel):
    """g(t) = exp(-t / beta) with beta > 0."""

    def __init__(self, beta: float):
        if beta <= 0.0:
            raise ConfigError(f"Exponential requires beta > 0, got {beta}", param="beta")
        self.beta = beta

    def _eval(self, t):
        return np.exp(-t / self.beta)

    def _antiderivative(self, t):
        return self.beta * -math.expm1(-t / self.beta)

    def _second_antiderivative(self, t):
        return self.beta * t + self.beta**2 * math.expm1(-t / self.beta)

    def value_at_zero(self):
        return 1.0

    def derivative_at_zero(self):
        return -1.0 / self.beta


class IteratedExponential(MemoryKernel):
    """Very fast decay: log g(t) = -exp^(depth-1)(c t), depth in 1..4.

    depth = 1 reduces to exp(-c t); each extra level composes another
    exponential inside, so the decay is super-exponential.  Evaluation happens
    in log-space and underflows to a positive floor instead of to zero.
    """

    MAX_DEPTH = 4

    def __init__(self, depth: int, c: float):
        if not 1 <= depth <= self.MAX_DEPTH:
            raise ConfigError(f"depth must be in 1..{self.MAX_DEPTH}, got {depth}", param="depth")
        if c <= 0.0:
            raise ConfigError(f"IteratedExponential requires c > 0, got {c}", param="c")
        self.depth = depth
        self.c = c

    def _log_g(self, t):
        tower = self.c * np.asarray(t, dtype=float)
        for _ in range(self.depth - 1):
            tower = np.exp(np.minimum(tower, 700.0))
        return -tower

    def _eval(self, t):
        return np.maximum(np.exp(np.maximum(self._log_g(t), -700.0)), _TINY)

    def value_at_zero(self):
        return float(self._eval(0.0))

    def derivative_at_zero(self):
        # d/dx exp^(k)(x) at 0 is the product of the partial towers.
        slope = 1.0
        x = 0.0
        for _ in range(self.depth - 1):
            x = math.exp(x)
            slope *= x
        return -self.c * slope * self.value_at_zero()


class OscillatingPolynomial(MemoryKernel):
    """g(t) = (3 + 2 sin t) t^-gamma, gamma in [0, 1); oscillating but Slow.

    Bounded below by the bare power law t^-gamma, which serves as its
    non-increasing minorant.
    """

    monotone = False

    def __init__(self, gamma: float):
        if not 0.0 <= gamma < 1.0:
            raise ConfigError(
                f"OscillatingPolynomial requires gamma in [0, 1), got {gamma}", param="gamma"
            )
        self.gamma = gamma
        self.singularity_order = gamma

    def _eval(self, t):
        return (3.0 + 2.0 * np.sin(t)) * t ** (-self.gamma)

    def _repeated_integral(self, t, k):
        # QUADPACK's algebraic weight s^-gamma (t - s)^k takes both the
        # endpoint singularity and the Cauchy factor out of the integrand
        from scipy import integrate

        return integrate.quad(lambda s: 3.0 + 2.0 * math.sin(s), 0.0, t, weight="alg",
                              wvar=(-self.gamma, k), epsrel=1e-12, limit=200)[0]


class Constant(MemoryKernel):
    """g(t) = value > 0."""

    def __init__(self, value: float):
        if value <= 0.0:
            raise ConfigError(f"Constant requires value > 0, got {value}", param="value")
        self.value = value

    def _eval(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value) if np.ndim(t) else self.value

    def _antiderivative(self, t):
        return self.value * t

    def _second_antiderivative(self, t):
        return 0.5 * self.value * t * t

    def value_at_zero(self):
        return self.value

    def derivative_at_zero(self):
        return 0.0


class Custom(MemoryKernel):
    """Tabulated kernel with log-linear (power-law) interpolation.

    Samples must have strictly increasing positive times and positive values.
    Outside the tabulated range the first/last segment's power law is
    extended.
    """

    monotone = False

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ConfigError("times and values must be 1-d arrays of equal length")
        if len(times) < 2:
            raise ConfigError("need at least two samples")
        if np.any(times <= 0.0) or np.any(np.diff(times) <= 0.0):
            raise ConfigError("sample times must be positive and strictly increasing")
        if np.any(values <= 0.0):
            raise ConfigError("sample values must be positive")
        self.times = times
        self.values = values
        self._logt = np.log(times)
        self._logg = np.log(values)
        slopes = np.diff(self._logg) / np.diff(self._logt)
        # Extrapolation below the first sample uses the first segment slope;
        # that slope also defines the reported singularity order.
        if slopes[0] <= -1.0:
            raise ConfigError(
                f"first segment slope {slopes[0]:g} makes the kernel non-integrable at t = 0"
                " (need log-log slope > -1)"
            )
        self.singularity_order = max(0.0, -slopes[0])
        self._slopes = slopes

    def _eval(self, t):
        t = np.asarray(t, dtype=float)
        logt = np.log(np.where(t > 0.0, t, _TINY))
        out = np.exp(np.interp(logt, self._logt, self._logg))
        # extend end segments as power laws
        lo = logt < self._logt[0]
        hi = logt > self._logt[-1]
        if np.any(lo):
            out = np.where(
                lo, np.exp(self._logg[0] + self._slopes[0] * (logt - self._logt[0])), out
            )
        if np.any(hi):
            out = np.where(
                hi, np.exp(self._logg[-1] + self._slopes[-1] * (logt - self._logt[-1])), out
            )
        return np.maximum(out, _TINY)


def classify_decay(kernel: MemoryKernel) -> DecayClass:
    """Classify a kernel against the 1/t threshold.

    Analytic families are classified in closed form; tabulated kernels get a
    log-log slope fit over their last decade of samples, with a +-0.05 band
    around slope -1 reported as Indeterminate.
    """
    if isinstance(kernel, (RiemannLiouville, OscillatingPolynomial)):
        return DecayClass(DecayTag.SLOW, 0.0)
    if isinstance(kernel, Constant):
        return DecayClass(DecayTag.SLOW, 0.0)
    if isinstance(kernel, PolynomialShifted):
        if kernel.gamma >= 1.0:
            return DecayClass(DecayTag.FAST, 0.0)
        return DecayClass(DecayTag.SLOW, 1.0)
    if isinstance(kernel, Exponential):
        return DecayClass(DecayTag.FAST, 0.0)
    if isinstance(kernel, IteratedExponential):
        return DecayClass(DecayTag.FAST, 0.0)
    if isinstance(kernel, Custom):
        return _classify_tabulated(kernel)
    raise ConfigError(f"unknown kernel family {type(kernel).__name__}")


def _classify_tabulated(kernel: Custom) -> DecayClass:
    if len(kernel.times) < 16:
        raise InsufficientDataError(
            f"need at least 16 samples to classify, got {len(kernel.times)}"
        )
    t_max = kernel.times[-1]
    window = kernel.times >= t_max / 10.0
    if window.sum() < 3:
        window = np.zeros_like(window, dtype=bool)
        window[-3:] = True
    logt = kernel._logt[window]
    logg = kernel._logg[window]
    slope = np.polyfit(logt, logg, 1)[0]
    t0 = float(kernel.times[window][0])
    if abs(slope + 1.0) <= _SLOPE_BAND:
        return DecayClass(DecayTag.INDETERMINATE, t0)
    if slope > -1.0:
        return DecayClass(DecayTag.SLOW, t0)
    return DecayClass(DecayTag.FAST, t0)


def minorant(kernel: MemoryKernel) -> MemoryKernel:
    """Return a non-increasing kernel bounded above by g everywhere.

    Identity for already monotone Slow kernels; strips the oscillating factor
    of OscillatingPolynomial; running right-minimum envelope for tabulated
    kernels.  Fast kernels are rejected.
    """
    cls = classify_decay(kernel)
    if cls.tag is DecayTag.FAST:
        raise UnsupportedError("minorant is defined only for Slow-class kernels")
    if isinstance(kernel, OscillatingPolynomial):
        if kernel.gamma == 0.0:
            return Constant(1.0)
        # bare power law t^-gamma, i.e. the fractional kernel rescaled
        return RiemannLiouville(kernel.gamma, scale=math.gamma(1.0 - kernel.gamma))
    if isinstance(kernel, Custom):
        # greatest nonincreasing minorant of the samples: running minimum
        envelope = np.minimum.accumulate(kernel.values)
        return Custom(kernel.times, envelope)
    return kernel
