"""Blow-up functionals, identity checks, and blow-up detection.

Everything here is pure post-processing over recorded traces or states: the
space averages U, V, their test-function-weighted variants U0, V0, the second
derivative identity that ties U'' to the memory convolution of the spatial
p-norm, and a heuristic blow-up-time extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .errors import InsufficientDataError, UnsupportedError
from .kernels import MemoryKernel

__all__ = [
    "FunctionalTrace",
    "BlowupVerdict",
    "phi_eigenfunction",
    "sphere_area",
    "radial_integral",
    "compute_functionals",
    "check_u_doubleprime_identity",
    "check_u0_lower_bound",
    "check_iteration_frame",
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


def radial_integral(f, r, n: int) -> float:
    """Trapezoid integral of f over R^n for a radial profile f(r)."""
    return sphere_area(n) * float(np.trapezoid(f * r ** (n - 1), r))


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


def compute_functionals(state, config, phi=None) -> dict:
    """One trace row from a solver state (duck-typed: r, u, v, t).

    ``phi`` is ``phi_eigenfunction(n, state.r)``; a run passes it once for
    all its rows, since neither n nor the grid changes.
    """
    n = config.params.n
    p, q = config.params.p, config.params.q
    r = state.r
    u = state.u
    v = state.v if state.v is not None else state.u
    if phi is None:
        phi = phi_eigenfunction(n, r)
    psi = math.exp(-state.t) * phi
    return {
        "t": state.t,
        "U": radial_integral(u, r, n),
        "V": radial_integral(v, r, n),
        "U0": radial_integral(u * psi, r, n),
        "V0": radial_integral(v * psi, r, n),
        "Lp_v": radial_integral(np.abs(v) ** p, r, n),
        "Lq_u": radial_integral(np.abs(u) ** q, r, n),
        "maxnorm_u": float(np.max(np.abs(u))),
        "maxnorm_v": float(np.max(np.abs(v))),
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
    weights = HistoryWeights(kernel, dt)
    rhs = np.array([weights.weights(m) @ lp[: m + 1] for m in range(1, len(t) - 1)])
    k = len(upp)
    lo, hi = int(0.1 * k), int(math.ceil(0.9 * k))
    resid = np.abs(upp[lo:hi] - rhs[lo:hi])
    scale = np.max(np.abs(rhs[lo:hi]))
    if scale == 0.0:
        return float(np.max(resid))
    return float(np.max(resid) / scale)


def initial_weighted_integrals(config) -> tuple[float, float]:
    """(integral of u0*Phi, integral of u1*Phi) from the configured data."""
    n = config.params.n
    r = config.radii()
    phi = phi_eigenfunction(n, r)
    return (
        radial_integral(config.u0(r) * phi, r, n),
        radial_integral(config.u1(r) * phi, r, n),
    )


def check_u0_lower_bound(trace: FunctionalTrace, config) -> tuple[bool, float]:
    """Verify U0(t) >= (1+e^-2t)/2 * <u0,Phi> + (1-e^-2t)/2 * <u1,Phi>.

    This is e^-t times the comparison solution a cosh t + b sinh t of
    y'' - y = 0, which minorizes y = <u(t), Phi> whenever the forcing is
    nonnegative.  Checked at every recorded time with relative tolerance
    1e-3.  Returns (all held, worst signed margin).
    """
    i0, i1 = initial_weighted_integrals(config)
    t = trace.column("t")
    u0_col = trace.column("U0")
    rhs = 0.5 * (1.0 + np.exp(-2.0 * t)) * i0 + 0.5 * (1.0 - np.exp(-2.0 * t)) * i1
    margin = u0_col - rhs
    tol = 1e-3 * (np.abs(rhs) + 1.0)
    return bool(np.all(margin >= -tol)), float(np.min(margin))


def check_iteration_frame(trace: FunctionalTrace, config) -> tuple[bool, float]:
    """Verify the first iteration-frame inequality on a recorded run.

    U(t) must dominate the triple time integral of the memory convolution of
    (R+tau)^(-n(p-1)) V(tau)^p, with the explicit ball-volume constant from
    the Hoelder step.  Checked over the final quarter of recorded times.
    """
    from .solver import HistoryWeights

    if len(trace) < 16:
        raise InsufficientDataError("need at least 16 recorded samples")
    n, p = config.params.n, config.params.p
    R = config.R
    t = trace.column("t")
    dt = trace.dt
    V = np.maximum(trace.column("V"), 0.0)
    c0 = (sphere_area(n) / n) ** (-(p - 1.0))
    samples = (R + t) ** (-n * (p - 1.0)) * V**p
    g1 = config.kernels[0]
    weights = HistoryWeights(g1, dt)
    inner = np.array([weights.weights(m) @ samples[: m + 1] for m in range(len(t))])
    once = integrate.cumulative_trapezoid(inner, t, initial=0.0)
    twice = integrate.cumulative_trapezoid(once, t, initial=0.0)
    rhs = c0 * twice
    U = trace.column("U")
    tail = slice(3 * len(t) // 4, None)
    margin = U[tail] - rhs[tail]
    tol = 1e-9 * (np.abs(U[tail]) + 1.0)
    return bool(np.all(margin >= -tol)), float(np.min(margin))


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
