"""References that tests compare the package against; no command runs them.

The exact 1-d d'Alembert propagator and the Picard iteration built on it
(local existence by Banach's fixed point), RK4 on the third-order (MGT) form
of the exponential-kernel equation, the identity F' = w - F/beta, the lower
bounds on U0 and U, and the Case 1 sum.  pytest does not collect this.
"""

import math

import numpy as np
from scipy.integrate import simpson

from memwave.errors import ConfigError, DomainError, InsufficientDataError, UnsupportedError
from memwave.iteration import _rat
from memwave.kernels import Exponential
from memwave.observables import (FunctionalTrace, _trapezoid_terms, phi_eigenfunction,
                                 radial_integral, sphere_area)
from memwave.solver import HistoryWeights, SystemConfig, _cone_cut, _laplacian


def margin_plane(region) -> np.ndarray:
    """The (len(p), len(q)) plane of a ``RegionMap``'s margins, row by row."""
    return np.array([margin for _, margin in region.margin_rows()])


def _simpson_nodes(a: float, b: float, resolution: float):
    if b <= a:
        return None
    n = max(2, int(math.ceil((b - a) / resolution)))
    n += n % 2  # Simpson needs an even interval count
    return np.linspace(a, b, n + 1)


def dalembert_reference(u0, u1, source, t: float, x: float, resolution: float = None) -> float:
    """Exact 1-d propagator evaluated by composite Simpson quadrature.

    u0, u1 are callables on the real line; source is None or a callable
    f(t, x).  Returns the half-sum of translated data plus the velocity
    integral plus the light-cone integral of the source.
    """
    if resolution is None:
        resolution = max(t, 1.0) / 400.0
    val = 0.5 * (float(u0(np.asarray(x + t))) + float(u0(np.asarray(x - t))))
    nodes = _simpson_nodes(x - t, x + t, resolution)
    if nodes is not None:
        val += 0.5 * float(simpson(np.asarray(u1(nodes), dtype=float), x=nodes))
    if source is not None and t > 0.0:
        s_nodes = _simpson_nodes(0.0, t, resolution)
        inner = np.zeros_like(s_nodes)
        for i, s in enumerate(s_nodes):
            y = _simpson_nodes(x - (t - s), x + (t - s), resolution)
            if y is None:
                continue
            inner[i] = simpson(
                np.asarray([source(s, yy) for yy in y], dtype=float), x=y
            )
        val += 0.5 * float(simpson(inner, x=s_nodes))
    return val


def _even(profile):
    return lambda x: profile(np.abs(np.asarray(x, dtype=float)))


def _cone_integral(mem: np.ndarray, i: int, dx: float) -> np.ndarray:
    """Light-cone double integral of gridded data, target time index i.

    mem has shape (time, x) on a grid with dt = dx, so cone edges fall on
    nodes; trapezoid in both directions.  Returns values for every x node.
    """
    nx = mem.shape[1]
    out = np.zeros(nx)
    if i == 0:
        return out
    csum = np.cumsum(mem, axis=1)
    for k in range(i + 1):
        w = i - k  # cone half-width in cells at source time k
        if w == 0:
            continue
        row = mem[k]
        c = csum[k]
        j = np.arange(nx)
        lo = np.clip(j - w, 0, nx - 1)
        hi = np.clip(j + w, 0, nx - 1)
        sums = c[hi] - c[lo] + row[lo]
        inner = dx * (sums - 0.5 * row[lo] - 0.5 * row[hi])
        wt = 0.5 if k in (0, i) else 1.0
        out += wt * inner
    return 0.5 * out * dx  # dt = dx


def picard_iterate(config: SystemConfig, T_small: float, iterations: int, dx: float = 0.01):
    """Fixed-point iteration of the Duhamel operator on a short window.

    One spatial dimension only: the linear part comes from the exact
    propagator, the nonlinear part applies the memory convolution followed by
    the light-cone integral on a grid with dt = dx.  Returns the sup-norm
    distances between consecutive iterates.
    """
    if config.params.n != 1:
        raise UnsupportedError("fixed-point iteration uses the 1-d propagator")
    if T_small > 0.5:
        raise ConfigError("window must satisfy T <= 0.5")
    p, q = config.params.p, config.params.q
    g1 = config.kernels[0]
    g2 = config.kernels[1] if config.mode == "coupled" else config.kernels[0]
    nt = max(4, int(round(T_small / dx)))
    dt = T_small / nt
    X = config.R + T_small + 2.0 * dx
    xs = np.arange(-X, X + 0.5 * dx, dx)
    ts = dt * np.arange(nt + 1)

    u0, u1 = _even(config.u0), _even(config.u1)
    v0, v1 = _even(config.v0), _even(config.v1)
    u_lin = np.array(
        [[dalembert_reference(u0, u1, None, t, x, resolution=dx) for x in xs] for t in ts]
    )
    v_lin = np.array(
        [[dalembert_reference(v0, v1, None, t, x, resolution=dx) for x in xs] for t in ts]
    )

    w1 = HistoryWeights(g1, dt)
    w2 = HistoryWeights(g2, dt)

    def apply_operator(u, v):
        mem_u = w1.convolve(np.abs(v) ** p)
        mem_v = w2.convolve(np.abs(u) ** q)
        nu = u_lin.copy()
        nv = v_lin.copy()
        for i in range(nt + 1):
            nu[i] += _cone_integral(mem_u[: i + 1], i, dx)
            nv[i] += _cone_integral(mem_v[: i + 1], i, dx)
        return nu, nv

    u, v = u_lin, v_lin
    distances = []
    for _ in range(iterations):
        nu, nv = apply_operator(u, v)
        d = max(float(np.max(np.abs(nu - u))), float(np.max(np.abs(nv - v))))
        distances.append(d)
        u, v = nu, nv
    return distances


def conv_derivative_identity(kernel: Exponential, samples, t_grid) -> float:
    """Max residual of F' = w - F/beta for F = g * w with g exponential.

    F is built by product-integration convolution on the uniform grid, F' by
    second-order central differences; the residual vanishes in the continuum.
    """
    if not isinstance(kernel, Exponential):
        raise ConfigError("identity holds for exponential kernels only")
    t_grid = np.asarray(t_grid, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if t_grid.size != samples.size or t_grid.size < 3:
        raise ValueError("need matching grids with at least three points")
    dt = t_grid[1] - t_grid[0]
    F = HistoryWeights(kernel, dt).convolve(samples)
    Fp = np.gradient(F, dt, edge_order=2)
    resid = Fp - samples + F / kernel.beta
    return float(np.max(np.abs(resid[1:-1])))


def mgt_reference(config: SystemConfig) -> np.ndarray:
    """Final u of the Moore-Gibson-Thompson equation
    beta u_ttt + u_tt - lap u - beta lap u_t = beta |u|^p, integrated as the
    first-order system (u, u_t, u_tt) by RK4 from u_tt(0) = lap u0, on the
    solver's grid, step and light-cone clamp; a linear run drops its |u|^p
    source.  With g1 = exp(-t / beta) this is the single equation, solved by
    a scheme that shares only the Laplacian with the solver's.  On C1 data,
    such as a cosine_bump, its gap to single mode does not shrink with dr,
    so compare it on smooth data."""
    beta = config.kernels[0].beta
    n, dr, dt, p = config.params.n, config.dr, config.dt, config.params.p
    r = config.radii()

    def rhs(y):
        lap = _laplacian(y[:2], r, dr, n)
        uttt = lap[0] / beta + lap[1] - y[2] / beta
        if not config.linear:
            uttt += np.abs(y[0]) ** p
        return np.stack((y[1], y[2], uttt))

    u0 = config.u0(r)
    y = np.stack((u0, config.u1(r), _laplacian(u0, r, dr, n)))
    t = 0.0
    for _ in range(config.n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        y[..., _cone_cut(r, t, config):] = 0.0
    return y[0]


def _cumulative_trapezoid(y, x) -> np.ndarray:
    """``scipy.integrate.cumulative_trapezoid(y, x, initial=0.0)``."""
    return np.concatenate(([0.0], np.cumsum(_trapezoid_terms(y, np.diff(x)))))


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
    if len(trace) < 16:
        raise InsufficientDataError("need at least 16 recorded samples")
    n, p = config.params.n, config.params.p
    R = config.R
    t = trace.column("t")
    dt = trace.dt
    V = np.maximum(trace.column("V"), 0.0)
    c0 = (sphere_area(n) / n) ** (-(p - 1.0))
    samples = (R + t) ** (-n * (p - 1.0)) * V**p
    inner = HistoryWeights(config.kernels[0], dt).convolve(samples)
    once = _cumulative_trapezoid(inner, t)
    twice = _cumulative_trapezoid(once, t)
    rhs = c0 * twice
    U = trace.column("U")
    tail = slice(3 * len(t) // 4, None)
    margin = U[tail] - rhs[tail]
    tol = 1e-9 * (np.abs(U[tail]) + 1.0)
    return bool(np.all(margin >= -tol)), float(np.min(margin))


def sum_formula(j: int, pq):
    """Closed form of sum_{k=0}^{(j-3)/2} (j - 2k) (pq)^k for odd j >= 3."""
    if j % 2 == 0 or j < 3:
        raise DomainError("sum formula requires odd j >= 3")
    pq = _rat(pq)
    if pq <= 1:
        raise DomainError("requires pq > 1")
    w = pq ** ((j - 1) // 2)
    return (2 + 3 * (pq - 1)) / (pq - 1) ** 2 * w - (2 * pq + j * (pq - 1)) / (pq - 1) ** 2
