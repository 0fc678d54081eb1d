"""Critical exponents, critical curves, and blow-up condition checks.

The blow-up condition is one pair of curves, ``condition_curves``: it couples
the kernels, the powers and a slowly growing log-iterate.  A kernel that
decays slower than 1/t enters through its own log g; one that decays faster
enters at the threshold g = 1/t, so the same curves serve a slow-slow and a
mixed slow/fast pair.  With both kernels at the threshold the slope of their
gap in log t is (pq-1)(alpha_w - (n-1)/2), the classical critical curve of the
coupled wave system, which ``check_condition_fast`` tests in closed form.
Only the slow-slow pair gets a verdict from the curves; the mixed regime is a
conjecture, so its curves are reported as they are.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, UnsupportedError
from .kernels import DecayTag, MemoryKernel

__all__ = [
    "ProblemParams",
    "Branch",
    "ConditionVerdict",
    "RegionMap",
    "strauss_exponent",
    "generalized_strauss",
    "alpha_w",
    "alpha_wm",
    "log_iterate",
    "default_condition_times",
    "check_condition_slow",
    "check_condition_fast",
    "sweep_grids",
    "region_from_grids",
    "condition_curves",
]

MAX_LOG_DEPTH = 4

# Slack (in log units) tolerated when testing an asymptotic lower bound on a
# finite time grid; stands in for the unspecified constant in the condition.
MARGIN_TOLERANCE = 0.5


@dataclass
class ProblemParams:
    """Dimension, powers, optional fractional orders, log-iterate depth."""

    n: int = 1
    p: float = 2.0
    q: float = 2.0
    gamma1: float | None = None
    gamma2: float | None = None
    r_depth: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.n}", param="n")
        if self.p <= 1.0 or self.q <= 1.0:
            raise ConfigError("powers p, q must exceed 1", param="p" if self.p <= 1.0 else "q")
        if not 0 <= self.r_depth <= MAX_LOG_DEPTH:
            raise ConfigError(f"r_depth must be in 0..{MAX_LOG_DEPTH}", param="r_depth")
        for name in ("gamma1", "gamma2"):
            g = getattr(self, name)
            if g is not None and not 0.0 < g < 1.0:
                raise ConfigError(f"fractional order must be in (0, 1), got {g}", param=name)
        if (self.gamma1 is None) != (self.gamma2 is None):
            missing = "gamma1" if self.gamma1 is None else "gamma2"
            raise ConfigError("give both fractional orders or neither", param=missing)

    @property
    def sobolev_violated(self) -> bool:
        """True when (p, q) exceed the n/(n-2) admissibility bound (n >= 3)."""
        if self.n < 3:
            return False
        bound = self.n / (self.n - 2)
        return self.p > bound or self.q > bound


class Branch(enum.Enum):
    SLOW_SLOW = "slow-slow"
    FAST_FAST = "fast-fast"


@dataclass
class ConditionVerdict:
    satisfied: bool
    branch: Branch
    margin: float = math.nan
    critical: bool = False


def strauss_exponent(n: int) -> float:
    """Critical power for the memoryless semilinear wave equation.

    Positive root of (n-1)p^2 - (n+1)p - 2 = 0 for n >= 2; infinite for n = 1.
    """
    if n < 1:
        raise DomainError(f"dimension must be positive, got {n}")
    if n == 1:
        return math.inf
    return (n + 1 + math.sqrt(n * n + 10 * n - 7)) / (2 * (n - 1))


def generalized_strauss(n: int, gamma: float) -> float:
    """Critical power with a fractional-integral memory term of order 1-gamma.

    Positive root of (n-1)p^2 - (n+3-2*gamma)p - 2 = 0; tends to the plain
    critical power as gamma -> 1.
    """
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0, 1), got {gamma}")
    if n < 1:
        raise DomainError(f"dimension must be positive, got {n}")
    if n == 1:
        return math.inf
    b = n + 3.0 - 2.0 * gamma
    return (b + math.sqrt(b * b + 8.0 * (n - 1))) / (2.0 * (n - 1))


def alpha_w(p, q):
    """Critical-curve quantity for the coupled system without memory."""
    pq1 = p * q - 1.0
    return np.maximum((p + 2.0 + 1.0 / q) / pq1, (q + 2.0 + 1.0 / p) / pq1)


def alpha_wm(p, q, gamma1, gamma2):
    """Critical-curve quantity with fractional memory of orders gamma1, gamma2.

    Reduces exactly to alpha_w at gamma1 = gamma2 = 1 (admitted here as a
    formula boundary for limit checks).
    """
    pq1 = p * q - 1.0
    first = ((2.0 - gamma2) * p + (3.0 - gamma1) + 1.0 / q) / pq1
    second = ((2.0 - gamma1) * q + (3.0 - gamma2) + 1.0 / p) / pq1
    return np.maximum(first, second)


# exp towers exp^(j)(1), each exponent capped at 700 because math.exp raises
# past about 709.78: j = 4 gives e^700 ~ 1.01e304 for e^(3.8e6), so the
# depth-4 log-iterate on [1, 1e6] reads about 6.3e-313 t, a subnormal.
def _exp_tower(j: int) -> float:
    x = 1.0
    for _ in range(j):
        x = math.exp(min(x, 700.0))
    return x


def log_iterate(t, r: int = 0):
    """Slowly growing unbounded function with value 0 at t = 0.

    (r+1)-fold logarithm of (exp tower of height r at 1, plus t), evaluated
    through nested log1p so the zero at t = 0 is exact.
    """
    if r < 0 or r > MAX_LOG_DEPTH:
        raise UnsupportedError(f"log-iterate depth must be in 0..{MAX_LOG_DEPTH}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise DomainError("log_iterate requires t >= 0")
    delta = t
    for k in range(1, r + 1):
        delta = np.log1p(delta / _exp_tower(r - k + 1))
    out = np.log1p(delta)
    return float(out) if out.ndim == 0 else out


def default_condition_times() -> np.ndarray:
    """The 121-point log-spaced grid on [1, 1e6] on which every asymptotic
    condition and divergence certificate is probed."""
    return np.geomspace(1.0, 1e6, 121)


def _require_class(kernel: MemoryKernel, tag: DecayTag, role: str) -> None:
    cls = kernel.decay_class
    if cls.tag is not tag:
        raise ConfigError(
            f"{role} kernel classified {cls.tag.value}, expected {tag.value}"
        )


def condition_curves(params: ProblemParams, g1: MemoryKernel, g2: MemoryKernel):
    """(times, log LHS, log RHS) of the blow-up condition on ``default_condition_times``.

    log LHS(t) = log(g1 g2 max{g1^(q-1) t^(2q+1/p), g2^(p-1) t^(2p+1/q)}) and
    log RHS(t) = ((n-1)(pq-1)/2 - 3) log t + log of the log-iterate.  A kernel
    whose ``decay_class`` is fast enters at the 1/t threshold: its factor
    1/t moves to the right-hand side and its power folds into the exponent of
    t, so each fast kernel raises the -3 by one.  Every other kernel enters
    through its log g.
    """
    times = default_condition_times()
    n, p, q = params.n, params.p, params.q
    logt = np.log(times)
    slow_logs, terms = [], []
    for g, power, other in ((g1, q, p), (g2, p, q)):
        if g.decay_class.tag is DecayTag.FAST:
            terms.append((power + 1.0 + 1.0 / other) * logt)
        else:
            logg = np.log(np.asarray(g(times), dtype=float))
            slow_logs.append(logg)
            terms.append((power - 1.0) * logg + (2.0 * power + 1.0 / other) * logt)
    lhs = sum(slow_logs) + np.maximum(*terms)
    rhs = ((n - 1) * (p * q - 1.0) / 2.0 - (1.0 + len(slow_logs))) * logt + np.log(
        log_iterate(times, params.r_depth)
    )
    return times, lhs, rhs


def check_condition_slow(
    params: ProblemParams,
    g1: MemoryKernel,
    g2: MemoryKernel,
) -> ConditionVerdict:
    """Blow-up condition for two slow-decay kernels, tested on ``condition_curves``.

    Satisfied when the gap log LHS - log RHS stays above -MARGIN_TOLERANCE
    over the last half of the grid; the reported margin is the gap at the
    largest time.
    """
    _require_class(g1, DecayTag.SLOW, "first")
    _require_class(g2, DecayTag.SLOW, "second")
    times, lhs, rhs = condition_curves(params, g1, g2)
    gap = lhs - rhs
    tail = gap[times.size // 2 :]
    return ConditionVerdict(
        satisfied=bool(np.min(tail) >= -MARGIN_TOLERANCE),
        branch=Branch.SLOW_SLOW,
        margin=float(gap[-1]),
    )


def check_condition_fast(params: ProblemParams) -> ConditionVerdict:
    """Blow-up condition for two fast-decay kernels: alpha_w(p,q) > (n-1)/2.

    Strict inequality; equality is the open critical case and is reported as
    not satisfied with the critical flag set.
    """
    value = float(alpha_w(params.p, params.q))
    threshold = (params.n - 1) / 2.0
    return ConditionVerdict(
        satisfied=value > threshold,
        branch=Branch.FAST_FAST,
        margin=value - threshold,
        critical=value == threshold,
    )


@dataclass
class RegionMap:
    """The blow-up condition over a (p, q) grid, evaluated one p row at a time.

    ``margin_rows`` yields the margin alpha - (n-1)/2 over the q grid for each
    p; a cell is satisfied when its margin is positive.
    """

    p_values: np.ndarray
    q_values: np.ndarray
    branch: Branch
    threshold: float  # (n - 1) / 2
    gammas: tuple[float, float]  # the fractional orders; (1.0, 1.0) for fast-fast

    def margin_rows(self):
        """Yield (p, margin over the q grid) for each p value in order."""
        qs = self.q_values
        for p in self.p_values.tolist():
            yield p, alpha_wm(p, qs, *self.gammas) - self.threshold

    def rows(self):
        """Yield (p, q, branch, satisfied, margin) row tuples, p-major."""
        for p, margin in self.margin_rows():
            for q, m in zip(self.q_values.tolist(), margin.tolist()):
                yield p, q, self.branch.value, m > 0.0, m


def sweep_grids(p_range=(1.1, 3.0), q_range=(1.1, 3.0), resolution: int = 50):
    """The (p, q) grids of a sweep: ``resolution`` evenly spaced values over
    each range, ends included."""
    if resolution < 1:
        raise ConfigError(f"sweep resolution must be >= 1, got {resolution}", param="resolution")
    grids = tuple(np.linspace(*map(float, r), resolution) for r in (p_range, q_range))
    for name, grid in zip("pq", grids):
        _check_grid(name, grid, param=f"{name}_range")
    return grids


def _check_grid(name: str, grid, param: str | None = None) -> None:
    """A sweep grid must be non-empty, non-decreasing and above 1."""
    # checked on Python floats: a first NumPy reduction would add ~0.1 MB of
    # resident memory to a sweep that otherwise makes none
    grid = grid.tolist()
    if not grid or grid != sorted(grid):
        raise ConfigError(f"sweep {name} grid must be non-empty and non-decreasing", param=param)
    if not all(x > 1.0 for x in grid):
        raise ConfigError(f"sweep powers must exceed 1, got {name} = {min(grid):g}", param=param)


def region_from_grids(
    n: int,
    gamma1: float | None,
    gamma2: float | None,
    ps,
    qs,
) -> RegionMap:
    """The blow-up condition on explicitly given p and q grids.

    Each grid must be non-empty, non-decreasing and above 1, the check that
    ``sweep_grids`` also runs on the grids it builds.  The grids are checked
    here, once; the condition itself is evaluated as the map is read.
    """
    ps = np.asarray(ps, dtype=float)
    qs = np.asarray(qs, dtype=float)
    _check_grid("p", ps)
    _check_grid("q", qs)
    if gamma1 is None and gamma2 is None:
        # alpha_wm at orders 1 is alpha_w, bit for bit
        branch, gammas = Branch.FAST_FAST, (1.0, 1.0)
    elif gamma1 is not None and gamma2 is not None:
        if not (0.0 < gamma1 <= 1.0 and 0.0 < gamma2 <= 1.0):
            raise ConfigError("fractional orders must lie in (0, 1]")
        branch, gammas = Branch.SLOW_SLOW, (gamma1, gamma2)
    else:
        raise ConfigError("give both fractional orders or neither")
    return RegionMap(ps, qs, branch, (n - 1) / 2.0, gammas)
