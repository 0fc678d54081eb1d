"""References that tests compare the package against; no command runs them.

The exact 1-d d'Alembert propagator and the Picard iteration built on it
(local existence by Banach's fixed point), RK4 on the third-order (MGT) form
of the exponential-kernel equation, the leapfrog energy and the light-cone
support of a solver state, the product-integration convolution of a whole
sample series, the identities F' = w - F/beta and U'' = g * Lp_v, the lower
bounds on U0 and U, the Case 1 sum, the iteration frame's index thresholds
and divergence certificates, the non-increasing minorant of a Slow kernel,
the closed-form G of the kernel families that have one, and 40-digit step
weights of every kernel family.  pytest does not collect this.
"""

import bisect
import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import simpson

from memwave.errors import ConfigError, DomainError, InsufficientDataError, UnsupportedError
from memwave.exponents import default_condition_times
from memwave.kernels import (Constant, Custom, DecayTag, Exponential, IteratedExponential,
                             MemoryKernel, OscillatingPolynomial, PolynomialShifted,
                             RiemannLiouville)
from memwave.observables import FunctionalTrace, RadialGrid, _trapezoid_terms, sphere_area
from memwave.solver import HistoryWeights, SystemConfig, WaveState, _cone_cut, _laplacian


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


def convolve(weights: HistoryWeights, samples) -> np.ndarray:
    """The convolution at every grid time of samples recorded at t_0,
    t_1, ...: row m is ``weights.weights(m) @ samples[: m + 1]``."""
    return np.array([weights.weights(m) @ samples[: m + 1] for m in range(len(samples))])


def trace_dt(trace: FunctionalTrace) -> float:
    """The time step between the first two recorded rows of a trace."""
    if len(trace.rows) < 2:
        raise InsufficientDataError("trace has fewer than two samples")
    return trace.rows[1][0] - trace.rows[0][0]


def discrete_energy(state: WaveState, config: SystemConfig) -> float:
    """Time-staggered leapfrog energy of the u field (linear runs)."""
    if state.prev is None:
        raise DomainError("energy needs two time levels")
    u_prev = state.prev[0]
    dr, dt = config.dr, config.dt
    ut = (state.u - u_prev) / dt
    ur_now = np.gradient(state.u, dr)
    ur_prev = np.gradient(u_prev, dr)
    density = ut**2 + ur_now * ur_prev
    return RadialGrid.of(config.params.n, state.r).integral(density)


def support_violation(state: WaveState, config: SystemConfig) -> float:
    """Largest wave-field magnitude outside the allowed light cone."""
    c = _cone_cut(state.r, state.t, config)
    if c == state.r.size:
        return 0.0
    return float(np.max(np.abs(state.fields[:, c:])))


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
        mem_u = convolve(w1, np.abs(v) ** p)
        mem_v = convolve(w2, np.abs(u) ** q)
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
    F = convolve(HistoryWeights(kernel, dt), samples)
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
    r = config.radii()
    grid = RadialGrid.of(config.params.n, r)
    return grid.integral(config.u0(r) * grid.phi), grid.integral(config.u1(r) * grid.phi)


def check_u_doubleprime_identity(trace: FunctionalTrace, kernel: MemoryKernel, p: float) -> float:
    """Residual of U'' = (g * spatial p-norm of v)(t), both sides discrete.

    U'' by second central differences on the uniformly recorded trace, the
    right side by product-integration convolution of the recorded Lp_v column.
    Returns max |U'' - rhs| over the middle 80% of the window, normalized by
    the max of |rhs| there.
    """
    if len(trace) < 16:
        raise InsufficientDataError("need at least 16 recorded samples")
    dt = trace_dt(trace)
    U = trace.column("U")
    lp = trace.column("Lp_v")
    upp = (U[2:] - 2.0 * U[1:-1] + U[:-2]) / dt**2
    rhs = convolve(HistoryWeights(kernel, dt), lp[:-1])[1:]
    k = len(upp)
    lo, hi = int(0.1 * k), int(math.ceil(0.9 * k))
    resid = np.abs(upp[lo:hi] - rhs[lo:hi])
    scale = np.max(np.abs(rhs[lo:hi]))
    if scale == 0.0:
        return float(np.max(resid))
    return float(np.max(resid) / scale)


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
    dt = trace_dt(trace)
    V = np.maximum(trace.column("V"), 0.0)
    c0 = (sphere_area(n) / n) ** (-(p - 1.0))
    samples = (R + t) ** (-n * (p - 1.0)) * V**p
    inner = convolve(HistoryWeights(config.kernels[0], dt), samples)
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
    pq = Fraction(pq)
    if pq <= 1:
        raise DomainError("requires pq > 1")
    w = pq ** ((j - 1) // 2)
    return (2 + 3 * (pq - 1)) / (pq - 1) ** 2 * w - (2 * pq + j * (pq - 1)) / (pq - 1) ** 2


# Concrete stand-in for the "much smaller than one" slicing-offset regime.
_SMALLNESS = 0.1


class IterationCase(enum.Enum):
    CASE1 = "case1"  # slow-decay kernels, direct iteration
    CASE2 = "case2"  # fast-decay kernels, sliced iteration


@dataclass(frozen=True)
class IndexThresholds:
    j0: int
    j1: int
    j1_t: int
    j2: int
    j_m: int

    @property
    def j_start(self) -> int:
        return max(self.j0, self.j1, self.j1_t, self.j2, self.j_m)


def index_thresholds(
    p: float,
    q: float,
    t0: float,
    L: float,
    g1_data,
    g2_data,
) -> IndexThresholds:
    """Indices past which the iteration lower bounds take their final shape.

    With the non-constructive constants normalized to one (log 0), the
    thresholds j0 and j2 that they set are 1 for every p, q > 1.  The kernel
    data are (g(0), g'(0)) pairs.
    """
    if p <= 1.0 or q <= 1.0:
        raise ConfigError("need p, q > 1")
    lpq = math.log(p * q)

    def j1_of(data) -> int:
        g0, gp0 = data
        if gp0 > 0.0:
            return 1
        return max(1, math.ceil(2.0 * math.log(1.0 / g0 - gp0 * L * t0 / (2.0 * g0)) / lpq))

    j1 = j1_of(g1_data)
    j1_t = j1_of(g2_data)
    j_m = 1
    while L * t0 * (p * q) ** (-j_m / 2.0) >= _SMALLNESS:
        j_m += 1
    return IndexThresholds(j0=1, j1=j1, j1_t=j1_t, j2=1, j_m=j_m)


@dataclass
class DivergenceCertificate:
    """Evidence that the iterated lower bound diverges at some time.

    The certificate records the first probed time where the log-base of the
    doubly exponential bound turns positive (constants normalized to one) and
    the tail slopes of that log-base in log time for both components.
    """

    t_first: float
    branch: str  # "U" or "V", whichever turns positive first
    u_exponent: float
    v_exponent: float


def divergence_certificate(
    case: IterationCase,
    p: float,
    q: float,
    n: int,
    kernels=None,
) -> DivergenceCertificate | None:
    """Probe whether the iterated lower bound diverges as the index grows.

    Evaluates the time-dependent base inside the exponential lower bound on
    ``exponents.default_condition_times``, with the seeds and all
    non-constructive constants normalized to one (log 0); the bound diverges
    with the iteration index exactly where that base exceeds one.  Returns
    None when the base stays below one on the whole probed grid.
    """
    case = IterationCase(case)
    if p <= 1.0 or q <= 1.0:
        raise ConfigError("need p, q > 1")
    if kernels is not None:
        want = DecayTag.SLOW if case is IterationCase.CASE1 else DecayTag.FAST
        for k in kernels:
            got = k.decay_class.tag
            if got is not want:
                raise UnsupportedError(
                    f"{case.value} requires {want.value} kernels, got {got.value}"
                )
    times = default_condition_times()
    logt = np.log(times)
    pq1 = p * q - 1.0

    if case is IterationCase.CASE1:
        if kernels is None:
            raise ConfigError("case1 certificate needs the kernel pair")
        g1, g2 = kernels
        lg1 = np.log(np.asarray(g1(times), dtype=float))
        lg2 = np.log(np.asarray(g2(times), dtype=float))
        log_b_u = (
            (-(n - 1) * p / 2.0 - n) * math.log(2.0)
            + (p * q / pq1) * lg1
            + (p / pq1) * lg2
            + (-(n - 1) * p / 2.0 + 2.0 + 3.0 * (p + 1) / pq1) * logt
        )
        log_b_v = (
            (-(n - 1) * q / 2.0 - n) * math.log(2.0)
            + (q / pq1) * lg1
            + (p * q / pq1) * lg2
            + (-(n - 1) * q / 2.0 + 2.0 + 3.0 * (q + 1) / pq1) * logt
        )
    else:
        log_b_u = (
            (-(2 * n + (n - 1) * p) / 2.0 - ((n + 1) * pq1 + 2 * (p + 1)) / pq1)
            * math.log(2.0)
            + (-(n - 1) * p / 2.0 + 1.0 + 2.0 * (p + 1) / pq1) * logt
        )
        log_b_v = (
            (-(2 * n + (n - 1) * q) / 2.0 - ((n + 1) * pq1 + 2 * (q + 1)) / pq1)
            * math.log(2.0)
            + (-(n - 1) * q / 2.0 + 1.0 + 2.0 * (q + 1) / pq1) * logt
        )

    u_exp = (log_b_u[-1] - log_b_u[-2]) / (logt[-1] - logt[-2])
    v_exp = (log_b_v[-1] - log_b_v[-2]) / (logt[-1] - logt[-2])
    positive = (log_b_u > 0.0) | (log_b_v > 0.0)
    if not np.any(positive):
        return None
    i = int(np.argmax(positive))
    branch = "U" if log_b_u[i] > 0.0 else "V"
    return DivergenceCertificate(float(times[i]), branch, float(u_exp), float(v_exp))


def minorant(kernel: MemoryKernel) -> MemoryKernel:
    """Return a non-increasing kernel bounded above by g everywhere.

    Identity for already monotone Slow kernels; strips the oscillating factor
    of OscillatingPolynomial; running right-minimum envelope for tabulated
    kernels.  Fast kernels are rejected.
    """
    cls = kernel.decay_class
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


def closed_form_antiderivative(kernel, t: float) -> float:
    """G(t) = ∫_0^t g of a kernel family in closed form, from its parameters:
    PolynomialShifted's in its expm1/log1p form, which keeps its digits at
    small t, and OscillatingPolynomial's, (3 + 2 sin s) s^-gamma, integrated
    term by term.  IteratedExponential has one at depth 1 only."""
    if isinstance(kernel, RiemannLiouville):
        return kernel.scale * t ** (1 - kernel.gamma) / math.gamma(2 - kernel.gamma)
    if isinstance(kernel, PolynomialShifted):
        a = 1.0 - kernel.gamma
        return math.log1p(t) if a == 0.0 else math.expm1(a * math.log1p(t)) / a
    if isinstance(kernel, Exponential):
        return -kernel.beta * math.expm1(-t / kernel.beta)
    if isinstance(kernel, Constant):
        return kernel.value * t
    if isinstance(kernel, IteratedExponential) and kernel.depth == 1:
        return -math.expm1(-kernel.c * t) / kernel.c
    if isinstance(kernel, OscillatingPolynomial):
        a = 1.0 - kernel.gamma
        return math.fsum([3.0 * t**a / a] + [
            2.0 * (-1) ** j * t ** (2 * j + 1 + a) / (math.factorial(2 * j + 1) * (2 * j + 1 + a))
            for j in range(30)])
    raise UnsupportedError(f"no closed-form G for {kernel!r}")


def _mp_kernel(kernel):
    """g of a kernel family in mpmath arithmetic, from its parameters."""
    mpf = mpmath.mpf
    if isinstance(kernel, RiemannLiouville):
        norm = mpf(kernel.scale) / mpmath.gamma(1 - mpf(kernel.gamma))
        return lambda s: norm * s ** -mpf(kernel.gamma)
    if isinstance(kernel, PolynomialShifted):
        return lambda s: (1 + s) ** -mpf(kernel.gamma)
    if isinstance(kernel, Exponential):
        return lambda s: mpmath.exp(-s / mpf(kernel.beta))
    if isinstance(kernel, Constant):
        return lambda s: mpf(kernel.value)
    if isinstance(kernel, OscillatingPolynomial):
        return lambda s: (3 + 2 * mpmath.sin(s)) * s ** -mpf(kernel.gamma)
    if isinstance(kernel, IteratedExponential):
        def tower(s):
            x = mpf(kernel.c) * s
            for _ in range(kernel.depth - 1):
                x = mpmath.exp(x)
            return mpmath.exp(-x)
        return tower
    T = [mpf(float(x)) for x in kernel.times]
    V = [mpf(float(x)) for x in kernel.values]

    def power_law(s):  # the segment's power law, the end ones extended
        i = min(max(bisect.bisect(T, s) - 1, 0), len(T) - 2)
        return V[i] * (s / T[i]) ** (mpmath.log(V[i + 1] / V[i]) / mpmath.log(T[i + 1] / T[i]))
    return power_law


@functools.cache
def step_weights_reference(kernel, dt: float, lag: int) -> tuple[float, float]:
    """X(lag) and Y(lag) of ``HistoryWeights``, ∫ (s - lo) g(s) ds / dt and
    ∫ (hi - s) g(s) ds / dt over [lo, hi] = [(lag - 1) dt, lag dt], by
    40-digit quadrature cut at a tabulated kernel's sample times."""
    with mpmath.workdps(40):
        g = _mp_kernel(kernel)
        h = mpmath.mpf(dt)
        lo, hi = (lag - 1) * h, lag * h
        cuts = [lo, *(mpmath.mpf(float(t)) for t in getattr(kernel, "times", ())
                      if lo < t < hi), hi]
        return (float(mpmath.quad(lambda s: (s - lo) * g(s), cuts) / h),
                float(mpmath.quad(lambda s: (hi - s) * g(s), cuts) / h))
