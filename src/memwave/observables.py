"""Blow-up functionals, the U'' identity check, and blow-up detection.

Everything here is pure post-processing over recorded traces or states: the
space averages U, V, their test-function-weighted variants U0, V0, the second
derivative identity that ties U'' to the memory convolution of the spatial
p-norm, and a heuristic blow-up-time extrapolation.  The lower bounds on U0
and U, which no command runs, live with the test references in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, UnsupportedError
from .kernels import MemoryKernel

__all__ = [
    "FunctionalTrace",
    "BlowupVerdict",
    "phi_eigenfunction",
    "sphere_area",
    "radial_integral",
    "RadialGrid",
    "compute_functionals",
    "check_u_doubleprime_identity",
    "detect_blowup",
]

#: surface area of the unit sphere in R^n, n = 1, 2, 3
_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

TRACE_COLUMNS = ("t", "U", "V", "U0", "V0", "Lp_v", "Lq_u", "maxnorm_u", "maxnorm_v")


def sphere_area(n: int) -> float:
    if n not in _SPHERE_AREA:
        raise UnsupportedError(f"dimension {n} not supported")
    return _SPHERE_AREA[n]


def phi_eigenfunction(n: int, r):
    """Positive eigenfunction of the Laplacian with eigenvalue one.

    n=1: e^r + e^-r; n=2: the circle average of e^{x.w}, i.e. 2*pi*I0(r) via
    its power series; n=3: 4*pi*sinh(r)/r with the limit value at r = 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be nonnegative")
    if n == 1:
        out = np.exp(r) + np.exp(-r)
    elif n == 2:
        x = (r * r) / 4.0
        term = np.ones_like(x)
        out = np.ones_like(x)
        for k in range(1, 200):
            term = term * x / (k * k)
            out = out + term
            if np.all(term <= 1e-12 * out):
                break
        out = 2.0 * math.pi * out
    elif n == 3:
        with np.errstate(invalid="ignore"):
            out = np.where(r > 1e-8, 4.0 * math.pi * np.sinh(r) / np.where(r > 0, r, 1.0), 4.0 * math.pi * (1.0 + r * r / 6.0))
    else:
        raise UnsupportedError(f"dimension {n} not supported")
    return float(out) if out.ndim == 0 else out


def _trapezoid_terms(y, d) -> np.ndarray:
    """The panel areas ``d * (y[1:] + y[:-1]) / 2.0`` of the trapezoid rule on
    spacings d.  This is the arithmetic of ``np.trapezoid`` (their sum) and of
    SciPy's ``cumulative_trapezoid`` (their cumulative sum), so both results
    are bitwise the same; the product and the halving act in place on the
    one temporary."""
    terms = y[1:] + y[:-1]
    terms *= d
    terms /= 2.0
    return terms


def radial_integral(f, r, n: int) -> float:
    """Trapezoid integral of f over R^n for a radial profile f(r)."""
    r = np.asarray(r, dtype=float)
    return sphere_area(n) * float(_trapezoid_terms(f * r ** (n - 1), np.diff(r)).sum())


@dataclass(frozen=True)
class RadialGrid:
    """The factors every functional of a run shares, since neither n nor the
    grid r changes: the sphere area, the spacings ``diff(r)``, the radial
    weight ``r^(n-1)`` and the eigenfunction Phi."""

    area: float
    d: np.ndarray
    w: np.ndarray
    phi: np.ndarray

    @classmethod
    def of(cls, n: int, r) -> RadialGrid:
        r = np.asarray(r, dtype=float)
        return cls(sphere_area(n), np.diff(r), r ** (n - 1), phi_eigenfunction(n, r))

    def integral(self, f) -> float:
        """``radial_integral(f, r, n)``, bitwise, without recomputing the grid."""
        return self.area * float(_trapezoid_terms(f * self.w, self.d).sum())


@dataclass
class FunctionalTrace:
    """Time series of the blow-up functionals along a run."""

    t: list = field(default_factory=list)
    U: list = field(default_factory=list)
    V: list = field(default_factory=list)
    U0: list = field(default_factory=list)
    V0: list = field(default_factory=list)
    Lp_v: list = field(default_factory=list)
    Lq_u: list = field(default_factory=list)
    maxnorm_u: list = field(default_factory=list)
    maxnorm_v: list = field(default_factory=list)
    stop_trigger: str = "reached_tmax"
    t_stop: float = math.nan

    def __len__(self):
        return len(self.t)

    def append(self, row: dict) -> None:
        for name in TRACE_COLUMNS:
            getattr(self, name).append(float(row[name]))

    def column(self, name: str) -> np.ndarray:
        return np.asarray(getattr(self, name), dtype=float)

    @property
    def dt(self) -> float:
        if len(self.t) < 2:
            raise InsufficientDataError("trace has fewer than two samples")
        return self.t[1] - self.t[0]


def compute_functionals(state, config, grid: RadialGrid | None = None) -> dict:
    """One trace row from a solver state (duck-typed: r, u, v, t).

    ``grid`` is ``RadialGrid.of(n, state.r)``; a run passes it once for all
    its rows.
    """
    p, q = config.params.p, config.params.q
    u = state.u
    v = state.v if state.v is not None else state.u
    if grid is None:
        grid = RadialGrid.of(config.params.n, state.r)
    psi = math.exp(-state.t) * grid.phi
    abs_u, abs_v = np.abs(u), np.abs(v)
    return {
        "t": state.t,
        "U": grid.integral(u),
        "V": grid.integral(v),
        "U0": grid.integral(u * psi),
        "V0": grid.integral(v * psi),
        "Lp_v": grid.integral(abs_v ** p),
        "Lq_u": grid.integral(abs_u ** q),
        "maxnorm_u": float(abs_u.max()),
        "maxnorm_v": float(abs_v.max()),
    }


def check_u_doubleprime_identity(trace: FunctionalTrace, kernel: MemoryKernel, p: float) -> float:
    """Residual of U'' = (g * spatial p-norm of v)(t), both sides discrete.

    U'' by second central differences on the uniformly recorded trace, the
    right side by product-integration convolution of the recorded Lp_v column.
    Returns max |U'' - rhs| over the middle 80% of the window, normalized by
    the max of |rhs| there.
    """
    from .solver import HistoryWeights  # local import to avoid a cycle

    if len(trace) < 16:
        raise InsufficientDataError("need at least 16 recorded samples")
    t = trace.column("t")
    dt = trace.dt
    U = trace.column("U")
    lp = trace.column("Lp_v")
    upp = (U[2:] - 2.0 * U[1:-1] + U[:-2]) / dt**2
    rhs = HistoryWeights(kernel, dt).convolve(lp[:-1])[1:]
    k = len(upp)
    lo, hi = int(0.1 * k), int(math.ceil(0.9 * k))
    resid = np.abs(upp[lo:hi] - rhs[lo:hi])
    scale = np.max(np.abs(rhs[lo:hi]))
    if scale == 0.0:
        return float(np.max(resid))
    return float(np.max(resid) / scale)


@dataclass
class BlowupVerdict:
    blew_up: bool
    t_stop: float
    trigger: str  # "maxnorm" | "nonfinite" | "reached_tmax"
    T_estimate: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    fit_r2: float | None = None

    def as_dict(self) -> dict:
        return {
            "blew_up": self.blew_up,
            "t_stop": self.t_stop,
            "T_estimate": self.T_estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trigger": self.trigger,
        }


def detect_blowup(
    trace: FunctionalTrace,
    config,
    rate_exponent: float | None = None,
    growth_decades: float = 1.0,
) -> BlowupVerdict:
    """Blow-up verdict plus a heuristic blow-up-time extrapolation.

    The estimate fits maxnorm^-rate_exponent against t over the last decades
    of growth and extrapolates to zero; it is reported only when the fit is
    clean (R^2 > 0.99) and labeled heuristic.  The default exponent p-1 is
    the first-order power-ODE heuristic; memory forcing steepens the rate
    (for g constant the matching exponent is (p-1)/3), so the exponent is a
    parameter rather than a constant.
    """
    blew_up = trace.stop_trigger in ("maxnorm", "nonfinite")
    verdict = BlowupVerdict(blew_up, trace.t_stop, trace.stop_trigger)
    if not blew_up:
        return verdict
    if rate_exponent is None:
        rate_exponent = config.params.p - 1.0
    t = trace.column("t")
    m = trace.column("maxnorm_u")
    finite = np.isfinite(m) & (m > 0.0)
    t, m = t[finite], m[finite]
    if len(t) < 8:
        return verdict
    window = m >= np.max(m) / 10.0**growth_decades
    if window.sum() < 4:
        window = np.zeros_like(window)
        window[-4:] = True
    tw, mw = t[window], m[window]
    y = mw ** (-rate_exponent)
    A = np.vstack([tw, np.ones_like(tw)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = coef
    if slope >= 0.0:
        return verdict
    fitted = A @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    verdict.fit_r2 = r2
    if r2 <= 0.99:
        return verdict
    T = -intercept / slope
    # delta-method CI from the regression covariance
    dof = max(len(tw) - 2, 1)
    sigma2 = ss_res / dof
    cov = sigma2 * np.linalg.inv(A.T @ A)
    grad = np.array([intercept / slope**2, -1.0 / slope])
    sT = math.sqrt(max(float(grad @ cov @ grad), 0.0))
    verdict.T_estimate = float(T)
    verdict.ci_low = float(T - 2.0 * sT)
    verdict.ci_high = float(T + 2.0 * sT)
    return verdict
