"""Memory kernels g(t), their antiderivatives, and decay classes.

Every kernel is positive on t > 0, integrable near t = 0 (singularity order
strictly below 1), and immutable after construction.  One Gauss rule,
``_piece_moments``, integrates g and (s - lo) g over the pieces of an
interval; a family states what the rule needs: its ``leading_power`` (g ~
s^leading_power at 0, taken into Gauss-Jacobi weights on the first piece),
its ``breakpoints``, the ``panel_width`` of its pieces and its
``support_end``.  Every integral of g comes from that rule: the history
weights, and G and ∫G of every family; no family states a closed form for
either.  Each rule's node table is built on first use and kept.  A family
also states a sum-of-exponentials fit away from t = 0, built with NumPy
only, for the power laws (RiemannLiouville, PolynomialShifted), which the
solver uses for the old part of a long memory convolution; the factor of a
one-term recursion of the convolution (Exponential, Constant,
PolynomialShifted(0), IteratedExponential(1, c)); and its ``decay_class``,
the large-time behaviour of g against the reference rate 1/t: kernels
bounded below by c/t are Slow, kernels bounded above by c/t are Fast.  A
tabulated kernel is classified once, from a log-log slope fit over its last
decade of samples.  The non-increasing minorant of a Slow kernel, which no
command runs, lives with the test references in ``tests/oracles.py``.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, InsufficientDataError

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
#: nodes of the Gauss rule behind the history weights, G and ∫G, per piece
_KERNEL_NODES = 24
#: steps whose moments ``step_moments`` integrates at once: about 6 MB
MOMENT_CHUNK = 4096


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

    Subclasses set ``decay_class`` and supply ``_eval``, called for t > 0
    only, and what the rule needs.  The public ``antiderivative`` and
    ``second_antiderivative`` check t and take G = M_0 and ∫G = t M_0 - M_1
    from the moments M_j(t) = ∫_0^t s^j g(s) ds of ``_moments``, for every
    family; no command calls them, and they stay public because
    ``perfbench`` times them.  A family whose g(t + dt) is a fixed
    multiple of g(t) overrides ``recursion_factor``.
    """

    #: the decay of g against 1/t, with the onset time of the bound
    decay_class: DecayClass
    #: the a in g(s) ~ s^a as s -> 0, a > -1: the weight of the first piece
    leading_power: float = 0.0
    #: times where g is not smooth, at which every interval is cut
    breakpoints = ()
    #: the width of the pieces the rule cuts a long interval into
    panel_width: float = 1.0
    #: the time past which g adds nothing to G in double precision
    support_end: float = math.inf

    @property
    def singularity_order(self) -> float:
        """The s in g ~ t^-s near 0, or 0 where g is bounded there."""
        return max(0.0, -self.leading_power)

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
        """G(t) = ∫_0^t g = M_0(t), with G(0) = 0."""
        if t < 0.0:
            raise DomainError("antiderivative argument must be nonnegative")
        return 0.0 if t == 0.0 else self._moments(t)[0]

    def second_antiderivative(self, t: float) -> float:
        """∫_0^t G(τ) dτ = ∫_0^t (t - s) g(s) ds, Cauchy's formula for
        repeated integration; smooth even for singular kernels."""
        if t < 0.0:
            raise DomainError("argument must be nonnegative")
        if t == 0.0:
            return 0.0
        m0, m1 = self._moments(t)
        return t * m0 - m1

    def _moments(self, t: float) -> tuple[float, float]:
        """M_0(t) and M_1(t), M_j(t) = ∫_0^t s^j g(s) ds, for t > 0: the sums
        of ``_piece_moments`` over [0, min(t, ``support_end``)] cut at the
        dyadic points w 2^-k, k = 1..60, below w = ``panel_width``, at the
        multiples of w above it and at the breakpoints.  The dyadic pieces keep
        a g that changes on a scale far below w, or a power law between
        breakpoints decades apart, as exact as a panel.  Every piece below t
        is fixed and the sums are correctly rounded, so for g >= 0 neither
        moment decreases as t grows."""
        w, end = self.panel_width, min(t, self.support_end)
        inner = np.concatenate((w * 0.5 ** np.arange(1, 61), w * np.arange(1, math.ceil(end / w)),
                                self.breakpoints))
        cuts = np.union1d((0.0, end), inner[inner < end])
        m0, m1 = _piece_moments(self._eval, cuts, self.leading_power)
        return math.fsum(m0), math.fsum(m1 + cuts[:-1] * m0)

    def step_moments(self, dt: float, steps: int):
        """∫ g(s) ds / dt and ∫ (s - lo) g(s) ds / dt^2 over each step
        [lo, hi] = [(l - 1) dt, l dt], l = 1..steps, cut off at
        ``support_end``, past which both are zero.  The steps are
        integrated in units of dt, so that each is exactly one unit wide, by
        ``_piece_moments`` on the pieces that the breakpoints and the
        multiples of ``panel_width`` cut them into.  A step's moments do not
        depend on the other steps, so they are integrated ``MOMENT_CHUNK``
        steps at a time, which bounds the temporaries whatever ``steps``."""
        end = min(steps, self.support_end / dt)
        ratio = self.panel_width / dt
        inner = np.concatenate((ratio * np.arange(1, math.ceil(end / ratio)),
                                np.divide(self.breakpoints, dt)))
        out = np.zeros((2, steps))
        for a in range(0, math.ceil(end), MOMENT_CHUNK):
            grid = np.arange(a, min(a + MOMENT_CHUNK, steps) + 1, dtype=float)
            top = min(grid[-1], end)
            cuts = np.union1d(np.minimum(grid, end), inner[(inner > a) & (inner < top)])
            m0, m1 = _piece_moments(lambda u: self._eval(dt * u), cuts, self.leading_power)
            owner = np.searchsorted(grid, cuts[:-1], side="right") - 1
            for row, w in zip(out[:, a:], (m0, m1 + (cuts[:-1] - grid[owner]) * m0)):
                row[: grid.size - 1] = np.bincount(owner, weights=w, minlength=grid.size - 1)
        return out[0], out[1]

    def recursion_factor(self, dt: float) -> float | None:
        """The factor r with g(t + dt) = r g(t) for every t >= 0, which makes
        the convolution a one-term recursion; None when the family has none."""
        return None

    def exponential_sum(self, t0: float, t1: float):
        """Rates s_k and weights w_k with g(t) ≈ Σ_k w_k exp(-s_k (t - t0))
        to ``SOE_TOLERANCE`` relative on [t0, t1], 0 < t0 < t1; None when the
        family has no such fit or it misses the bound."""
        return None


@functools.cache
def _gauss_jacobi(n: int, beta: float):
    """Nodes and weights on [0, 1] for the weight x^beta, beta > -1: the
    Golub-Welsch eigenproblem of the Jacobi matrix of P^(0, beta).  Built
    once per (n, beta) and shared, so read-only."""
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + beta
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    nodes, weights = 0.5 * (1.0 + x), v[0] ** 2 / (beta + 1.0)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _piece_moments(g, cuts, power: float = 0.0):
    """∫ g(s) ds and ∫ (s - lo) g(s) ds over each piece [lo, hi] of the
    increasing cuts, by the ``_KERNEL_NODES``-point Gauss-Legendre rule; a
    first piece that starts at 0 takes the Gauss-Jacobi weight s^power
    instead, so g ~ s^power there costs no accuracy.  g takes an array of
    nodes, one row per piece, and may add leading axes, which the results
    keep."""
    lo, h = cuts[:-1, None], np.diff(cuts)[:, None]
    x, w = _gauss_jacobi(_KERNEL_NODES, 0.0)
    x, w = np.tile(x, (h.size, 1)), np.tile(w, (h.size, 1))
    if cuts[0] == 0.0:
        # ∫_0^h g = h ∫_0^1 x^power (x^-power g(h x)) dx
        xj, wj = _gauss_jacobi(_KERNEL_NODES, power)
        x[0], w[0] = xj, wj * xj**-power
    offset = h * x
    hwg = h * w * g(lo + offset)
    return hwg.sum(axis=-1), (hwg * offset).sum(axis=-1)


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
    u, wu = _gauss_jacobi(_LEGENDRE_NODES, 0.0)  # weight x^0: Gauss-Legendre
    while lo * x0 < _SOE_CUTOFF + 2.0 * gamma:
        s = lo * (1.0 + u)
        nodes.append(s)
        weights.append(lo * wu * s ** (gamma - 1.0))
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

    decay_class = DecayClass(DecayTag.SLOW)

    def __init__(self, gamma: float, scale: float = 1.0):
        if not 0.0 < gamma < 1.0:
            raise ConfigError(
                f"RiemannLiouville requires gamma in (0, 1), got {gamma}", param="gamma"
            )
        if scale <= 0.0:
            raise ConfigError("scale must be positive", param="scale")
        self.gamma = gamma
        self.scale = scale
        self.leading_power = -gamma
        self._norm = scale / math.gamma(1.0 - gamma)

    def _eval(self, t):
        return self._norm * t ** (-self.gamma)

    def exponential_sum(self, t0, t1):
        fit = _power_law_sum(self.gamma, t0, t1)
        return None if fit is None else (fit[0], self._norm * fit[1])


class PolynomialShifted(MemoryKernel):
    """g(t) = (1 + t)^-gamma with gamma >= 0; no singularity at t = 0.
    Fast for gamma >= 1, otherwise Slow from t = 1 on."""

    def __init__(self, gamma: float):
        if gamma < 0.0:
            raise ConfigError(f"PolynomialShifted requires gamma >= 0, got {gamma}", param="gamma")
        self.gamma = gamma
        self.decay_class = (DecayClass(DecayTag.FAST) if gamma >= 1.0
                            else DecayClass(DecayTag.SLOW, 1.0))

    def _eval(self, t):
        return (1.0 + t) ** (-self.gamma)

    def recursion_factor(self, dt):
        # gamma = 0 is the constant kernel 1
        return 1.0 if self.gamma == 0.0 else None

    def exponential_sum(self, t0, t1):
        # (1 + t)^-gamma is the power law at x = 1 + t, and t - t0 = x - (1 + t0)
        return _power_law_sum(self.gamma, 1.0 + t0, 1.0 + t1)


class Exponential(MemoryKernel):
    """g(t) = exp(-t / beta) with beta > 0."""

    decay_class = DecayClass(DecayTag.FAST)

    def __init__(self, beta: float):
        if beta <= 0.0:
            raise ConfigError(f"Exponential requires beta > 0, got {beta}", param="beta")
        self.beta = beta

    def _eval(self, t):
        return np.exp(-t / self.beta)

    def recursion_factor(self, dt):
        return math.exp(-dt / self.beta)


class IteratedExponential(MemoryKernel):
    """Very fast decay: log g(t) = -exp^(depth-1)(c t), depth in 1..4.

    depth = 1 reduces to exp(-c t), and takes its recursion; each extra level
    composes another exponential inside, so the decay is super-exponential.
    Evaluation happens in log-space and underflows to a positive floor
    instead of to zero.
    """

    MAX_DEPTH = 4
    decay_class = DecayClass(DecayTag.FAST)

    def __init__(self, depth: int, c: float):
        if not 1 <= depth <= self.MAX_DEPTH:
            raise ConfigError(f"depth must be in 1..{self.MAX_DEPTH}, got {depth}", param="depth")
        if c <= 0.0:
            raise ConfigError(f"IteratedExponential requires c > 0, got {c}", param="c")
        self.depth = depth
        self.c = c
        # log g reaches its -700 floor at c t = log^(depth-1)(700); past that
        # G stays constant, so the generic rule stops there
        self.panel_width = 0.25 / c
        end = 700.0
        for _ in range(depth - 1):
            end = math.log(end)
        self.support_end = end / c

    def _log_g(self, t):
        tower = self.c * np.asarray(t, dtype=float)
        for _ in range(self.depth - 1):
            tower = np.exp(np.minimum(tower, 700.0))
        return -tower

    def _eval(self, t):
        return np.maximum(np.exp(np.maximum(self._log_g(t), -700.0)), _TINY)

    def recursion_factor(self, dt):
        # depth 1 is exp(-c t)
        return math.exp(-self.c * dt) if self.depth == 1 else None


class OscillatingPolynomial(MemoryKernel):
    """g(t) = (3 + 2 sin t) t^-gamma, gamma in [0, 1); oscillating but Slow,
    bounded below by the bare power law t^-gamma."""

    decay_class = DecayClass(DecayTag.SLOW)

    def __init__(self, gamma: float):
        if not 0.0 <= gamma < 1.0:
            raise ConfigError(
                f"OscillatingPolynomial requires gamma in [0, 1), got {gamma}", param="gamma"
            )
        self.gamma = gamma
        self.leading_power = -gamma

    def _eval(self, t):
        return (3.0 + 2.0 * np.sin(t)) * t ** (-self.gamma)


class Constant(MemoryKernel):
    """g(t) = value > 0."""

    decay_class = DecayClass(DecayTag.SLOW)

    def __init__(self, value: float):
        if value <= 0.0:
            raise ConfigError(f"Constant requires value > 0, got {value}", param="value")
        self.value = value

    def _eval(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value) if np.ndim(t) else self.value

    def recursion_factor(self, dt):
        return 1.0


class Custom(MemoryKernel):
    """Tabulated kernel with log-linear (power-law) interpolation.

    Samples must be finite, with strictly increasing positive times and
    positive values.  Outside the tabulated range the first/last segment's
    power law is extended.  The interpolant is v_i (s / t_i)^a_i on each
    segment; the sample times are breakpoints of the rule.
    """

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ConfigError("times and values must be 1-d arrays of equal length")
        if len(times) < 2:
            raise ConfigError("need at least two samples")
        # a NaN passes every comparison below; an inf leaves no finite segment
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ConfigError("sample times and values must be finite")
        if np.any(times <= 0.0) or np.any(np.diff(times) <= 0.0):
            raise ConfigError("sample times must be positive and strictly increasing")
        if np.any(values <= 0.0):
            raise ConfigError("sample values must be positive")
        self.times = times
        self.values = values
        self._logt = np.log(times)
        self._logg = np.log(values)
        slopes = np.diff(self._logg) / np.diff(self._logt)
        # Extrapolation below the first sample uses the first segment slope,
        # so that slope is the leading power, and the samples are breakpoints
        if slopes[0] <= -1.0:
            raise ConfigError(
                f"first segment slope {slopes[0]:g} makes the kernel non-integrable at t = 0"
                " (need log-log slope > -1)"
            )
        self.leading_power = float(slopes[0])
        self.breakpoints = times
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

    @functools.cached_property
    def decay_class(self) -> DecayClass:
        """A log-log slope fit over the last decade of samples, with a +-0.05
        band around slope -1 reported as Indeterminate; computed once."""
        if len(self.times) < 16:
            raise InsufficientDataError(
                f"need at least 16 samples to classify, got {len(self.times)}"
            )
        t_max = self.times[-1]
        window = self.times >= t_max / 10.0
        if window.sum() < 3:
            window = np.zeros_like(window, dtype=bool)
            window[-3:] = True
        logt = self._logt[window]
        logg = self._logg[window]
        slope = np.polyfit(logt, logg, 1)[0]
        t0 = float(self.times[window][0])
        if abs(slope + 1.0) <= _SLOPE_BAND:
            return DecayClass(DecayTag.INDETERMINATE, t0)
        if slope > -1.0:
            return DecayClass(DecayTag.SLOW, t0)
        return DecayClass(DecayTag.FAST, t0)

