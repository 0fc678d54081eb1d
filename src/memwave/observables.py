"""Blow-up functionals and blow-up detection.

Everything here is pure post-processing over recorded traces or states: the
space averages U, V, their test-function-weighted variants U0, V0, the
spatial norms of the nonlinearities, and the blow-up verdict with a blow-up
time fitted at the rate the equation's scaling exponents fix.  The checks
that no command runs (the U'' identity that ties U'' to the memory
convolution of the spatial p-norm, and the lower bounds on U0 and U) live
with the test references in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import UnsupportedError

__all__ = [
    "FunctionalTrace",
    "BlowupVerdict",
    "phi_eigenfunction",
    "sphere_area",
    "trace_weights",
    "compute_functionals",
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

    n=1: e^r + e^-r; n=2: the circle average of e^{x.w}, i.e. 2*pi*I0(r)
    (``np.i0``); n=3: 4*pi*sinh(r)/r with the limit value at r = 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be nonnegative")
    if n == 1:
        out = np.exp(r) + np.exp(-r)
    elif n == 2:
        out = 2.0 * math.pi * np.i0(r)
    elif n == 3:
        with np.errstate(invalid="ignore"):
            out = np.where(r > 1e-8, 4.0 * math.pi * np.sinh(r) / np.where(r > 0, r, 1.0), 4.0 * math.pi * (1.0 + r * r / 6.0))
    else:
        raise UnsupportedError(f"dimension {n} not supported")
    return float(out) if out.ndim == 0 else out


def trace_weights(n: int, r) -> np.ndarray:
    """The (3, M + 1) quadrature weights every trace row of a run shares,
    since neither n nor the grid r changes.  With w the sphere area times
    r^(n-1) times the trapezoid node weight (half the spacings on either side
    of a node), the trapezoid integral over R^n of a radial profile f is the
    sum of f * w.  The rows are w, w * Phi and w again, one for each pair of
    integrands in a trace row."""
    r = np.asarray(r, dtype=float)
    half = np.diff(r) / 2.0
    node = np.zeros_like(r)
    node[:-1] += half
    node[1:] += half
    w = sphere_area(n) * r ** (n - 1) * node
    return np.stack((w, w * phi_eigenfunction(n, r), w))


@dataclass
class FunctionalTrace:
    """Time series of the blow-up functionals along a run: one row per
    recorded step, a tuple of floats in ``TRACE_COLUMNS`` order."""

    rows: list = field(default_factory=list)
    stop_trigger: str = "reached_tmax"
    t_stop: float = math.nan

    def __len__(self):
        return len(self.rows)

    def table(self) -> np.ndarray:
        """The rows as one (len, len(TRACE_COLUMNS)) array."""
        return np.array(self.rows, dtype=float).reshape(-1, len(TRACE_COLUMNS))

    def column(self, name: str) -> np.ndarray:
        return self.table()[:, TRACE_COLUMNS.index(name)]


def compute_functionals(state, config, weights: np.ndarray) -> tuple:
    """One trace row, in ``TRACE_COLUMNS`` order, from a solver state
    (duck-typed: fields, t, cut).

    ``weights`` is ``trace_weights(n, state.r)``; a run builds it once for
    all its rows.  The fields are zero from ``state.cut`` on, so the row
    reads the first cut cells only.  Its six integrals are the pairs (u, v),
    (u, v) and (|v|^p, |u|^q), times the rows of ``weights``, each summed
    along the cells by NumPy's pairwise sum; U0 and V0 are e^-t times the
    second pair's sums.
    """
    p, q = config.params.p, config.params.q
    c = state.cut
    fields = state.fields[:, :c]  # (u, v), or (u,) where v is u
    mag = np.abs(fields)
    rows = np.empty((3, 2, c))
    rows[:2] = fields
    rows[2, 0] = mag[-1] ** p
    rows[2, 1] = mag[0] ** q
    rows *= weights[:, None, :c]
    (U, V), (U0, V0), (Lp_v, Lq_u) = rows.sum(axis=-1).tolist()
    peak = mag.max(axis=-1).tolist()
    psi = math.exp(-state.t)
    return (float(state.t), U, V, psi * U0, psi * V0, Lp_v, Lq_u, peak[0], peak[-1])


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
        """The fields ``verdict.json`` records: all but ``fit_r2``."""
        record = asdict(self)
        del record["fit_r2"]
        return record


def _growing(trace: FunctionalTrace) -> bool:
    """Whether U and the peak max(maxnorm_u, maxnorm_v) do not decrease over
    the last four rows where both are finite."""
    U = trace.column("U")
    peak = np.maximum(trace.column("maxnorm_u"), trace.column("maxnorm_v"))
    finite = np.isfinite(U) & np.isfinite(peak)
    last = np.stack((U[finite], peak[finite]))[:, -4:]
    return last.shape[1] == 4 and bool(np.all(np.diff(last) >= 0.0))


def _blowup_rate(config) -> float:
    """The a in maxnorm_u ~ (T - t)^-a near the blow-up time T.  There only
    short lags matter, where each kernel g_i acts as s^-σi (σi its
    singularity order); balancing u'' with g1 ∗ |v|^p and v'' with g2 ∗ |u|^q
    for v ~ (T - t)^-b gives a + 3 - σ1 = p b and b + 3 - σ2 = q a.  In single
    and mgt mode v is u."""
    p, q = config.params.p, config.params.q
    s1, s2 = (g.singularity_order for g in config.kernels)
    if config.mode == "coupled":
        return (p * (3.0 - s2) + 3.0 - s1) / (p * q - 1.0)
    return (3.0 - s1) / (p - 1.0)


def detect_blowup(trace: FunctionalTrace, config) -> BlowupVerdict:
    """Blow-up verdict plus a blow-up-time extrapolation.

    With a = ``_blowup_rate(config)``, maxnorm_u^(-1/a) falls linearly to 0
    at T.  The estimate fits that line against t over the last decade of
    growth (the last four rows if fewer lie in it) and extrapolates it to 0;
    it is reported only when the fit is clean (R^2 > 0.99), so a run that
    does not resolve its growth reports none.

    A ``nonfinite`` stop is blow-up only if the run was growing when its
    fields overflowed (``_growing``); otherwise the run failed.
    """
    blew_up = trace.stop_trigger == "maxnorm" or (
        trace.stop_trigger == "nonfinite" and _growing(trace))
    verdict = BlowupVerdict(blew_up, trace.t_stop, trace.stop_trigger)
    if not blew_up:
        return verdict
    t, m = trace.column("t"), trace.column("maxnorm_u")
    finite = np.isfinite(m) & (m > 0.0)
    t, m = t[finite], m[finite]
    if len(t) < 8:
        return verdict
    window = m >= np.max(m) / 10.0
    tw, mw = (t[window], m[window]) if window.sum() >= 4 else (t[-4:], m[-4:])
    y = mw ** (-1.0 / _blowup_rate(config))
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
    cov = ss_res / max(len(tw) - 2, 1) * np.linalg.inv(A.T @ A)
    grad = np.array([intercept / slope**2, -1.0 / slope])
    sT = math.sqrt(max(float(grad @ cov @ grad), 0.0))
    verdict.T_estimate = float(T)
    verdict.ci_low = float(T - 2.0 * sT)
    verdict.ci_high = float(T + 2.0 * sT)
    return verdict
