"""Radial finite-difference solver with memory-convolution forcing.

The single equation and the coupled system are integrated with an explicit
second-order leapfrog scheme on a uniform radial grid; the memory term is a
time convolution against the full nonlinearity history, discretized by product
integration so that weakly singular kernels are integrated exactly against
piecewise-linear histories.  A d'Alembert evaluator provides an independent
reference in one dimension, both for convergence ladders and as the exact
propagator inside the fixed-point iteration.  The third-order-in-time
reformulation of the exponential-kernel equation is integrated as a
first-order system with RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate as _sci_integrate

from . import observables
from .errors import ConfigError, DomainError, UnsupportedError
from .exponents import ProblemParams
from .kernels import Exponential, MemoryKernel
from .observables import FunctionalTrace

__all__ = [
    "Profile",
    "SystemConfig",
    "WaveState",
    "HistoryWeights",
    "SimulationResult",
    "initial_state",
    "step",
    "run_simulation",
    "dalembert_reference",
    "picard_iterate",
    "conv_derivative_identity",
    "discrete_energy",
]

#: numerical support halo, in grid cells, added to the light-cone radius
SUPPORT_HALO = 2

PROFILE_KINDS = ("zero", "cosine_bump", "smoothed_indicator", "gaussian")


@dataclass(frozen=True)
class Profile:
    """Named radial bump, supported in r <= radius."""

    kind: str
    amplitude: float = 0.0
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ConfigError(f"unknown profile kind {self.kind!r}")
        if self.radius <= 0.0:
            raise ConfigError("support radius must be positive")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        s = r / self.radius
        if self.kind == "zero" or self.amplitude == 0.0:
            return np.zeros_like(s)
        if self.kind == "cosine_bump":
            out = np.where(s < 1.0, np.cos(0.5 * math.pi * np.minimum(s, 1.0)) ** 2, 0.0)
        elif self.kind == "gaussian":
            # steep enough that the support-edge mismatch (~e^-16) is far
            # below discretization error, so the profile acts C-infinity
            out = np.maximum(np.exp(-16.0 * s * s) - math.exp(-16.0), 0.0)
        else:  # smoothed_indicator: flat core, quintic-smooth shoulder
            x = np.clip((1.0 - s) / 0.4, 0.0, 1.0)
            out = x * x * (3.0 - 2.0 * x)
        return self.amplitude * out


def _zero_profile(radius=1.0):
    return Profile("zero", 0.0, radius)


@dataclass
class SystemConfig:
    """Full description of one simulation run."""

    params: ProblemParams
    kernels: tuple  # (g1, g2); single mode uses only g1
    u0: Profile
    u1: Profile
    v0: Profile = None
    v1: Profile = None
    t_max: float = 2.0
    dr: float = 0.01
    cfl: float = 0.9
    mode: str = "coupled"  # "single" | "coupled" | "mgt"
    maxnorm_threshold: float = 1e6
    tail_truncation: bool = False
    linear: bool = False  # drop the memory forcing (free wave propagation)
    record_every: int = 1
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.mode not in ("single", "coupled", "mgt"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.cfl < 1.0:
            raise ConfigError("cfl must lie in (0, 1)")
        if self.dr <= 0.0 or self.t_max <= 0.0:
            raise ConfigError("dr and t_max must be positive")
        if self.v0 is None:
            self.v0 = _zero_profile(self.u0.radius)
        if self.v1 is None:
            self.v1 = _zero_profile(self.u0.radius)
        if self.mode == "mgt" and not isinstance(self.kernels[0], Exponential):
            raise ConfigError("mgt mode requires an Exponential kernel")

    @property
    def R(self) -> float:
        return max(p.radius for p in (self.u0, self.u1, self.v0, self.v1))

    @property
    def dt(self) -> float:
        return self.cfl * self.dr

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))

    @property
    def n_cells(self) -> int:
        return int(math.ceil((self.R + self.t_max) / self.dr)) + SUPPORT_HALO + 1

    def radii(self) -> np.ndarray:
        return self.dr * np.arange(self.n_cells + 1)


class HistoryWeights:
    """Product-integration weights for the memory convolution.

    For step m the weights w satisfy sum_k w_k f(t_k) = integral of
    g(t_m - tau) f(tau) over [0, t_m], exactly whenever f is piecewise linear
    on the step grid.  Built from the kernel antiderivative G and its own
    antiderivative, so singular kernels lose no accuracy; values of G at grid
    multiples are cached incrementally.
    """

    def __init__(self, kernel: MemoryKernel, dt: float, tail_truncation: bool = False):
        if dt <= 0.0:
            raise ConfigError("dt must be positive")
        self.kernel = kernel
        self.dt = dt
        self.tail_truncation = tail_truncation
        self._G = [0.0]
        self._G2 = [0.0]

    def _extend(self, m: int) -> None:
        while len(self._G) <= m:
            j = len(self._G)
            t = j * self.dt
            self._G.append(self.kernel.antiderivative(t))
            self._G2.append(self.kernel.second_antiderivative(t))

    def weights(self, m: int) -> np.ndarray:
        """Weight vector of length m+1 for the convolution at t = m*dt."""
        self._extend(m)
        w = np.zeros(m + 1)
        if m == 0:
            return w
        dt = self.dt
        # s_j = (m - j) dt is the kernel argument at node j
        s = dt * np.arange(m, -1, -1.0)
        G = np.array(self._G[m::-1])
        G2 = np.array(self._G2[m::-1])
        m0 = G[:-1] - G[1:]
        m1 = s[:-1] * G[:-1] - s[1:] * G[1:] - (G2[:-1] - G2[1:])
        w[:-1] += (m1 - s[1:] * m0) / dt
        w[1:] += (s[:-1] * m0 - m1) / dt
        if self.tail_truncation and isinstance(self.kernel, Exponential):
            beta = self.kernel.beta
            total = self._G[m]
            # drop history nodes whose kernel weight is below 1e-12 of G(t_m)
            cutoff = beta * math.log(max(beta / (1e-12 * total), 1.0)) if total > 0 else math.inf
            w[s > cutoff] = 0.0
        return w


@dataclass
class WaveState:
    """Stacked fields, their previous time level, and the forcing history.

    The rows of ``fields`` are (u,) in single mode, (u, v) in coupled mode and
    (u, u_t, u_tt) in mgt mode; the first ``n_wave`` rows are the wave fields.
    Entry i of ``forcing`` is ``(src, power)``: row i is driven by the
    convolution of ``weights[i]`` with ``history[i]``, the recorded profiles
    of ``|fields[src]|**power``.  The forcing is empty and the history None
    for linear runs and in mgt mode, whose right-hand side forces locally.
    """

    r: np.ndarray
    fields: np.ndarray
    prev: np.ndarray | None  # the previous time level; None before the first step
    velocity: np.ndarray | None  # initial velocities of the leapfrog rows
    t: float
    step: int
    n_wave: int
    forcing: tuple
    weights: tuple
    history: np.ndarray | None  # (len(forcing), n_steps + 1, M + 1)

    @property
    def waves(self) -> np.ndarray:
        return self.fields[: self.n_wave]

    @property
    def u(self) -> np.ndarray:
        return self.fields[0]

    @property
    def v(self) -> np.ndarray | None:
        return self.fields[1] if self.n_wave == 2 else None

    @property
    def u_prev(self) -> np.ndarray | None:
        return None if self.prev is None else self.prev[0]

    def support_violation(self, config: SystemConfig) -> float:
        """Largest wave-field magnitude outside the allowed light cone."""
        outside = _outside_cone(self.r, self.t, config)
        if not np.any(outside):
            return 0.0
        return float(np.max(np.abs(self.waves[:, outside])))


def _laplacian(u: np.ndarray, r: np.ndarray, dr: float, n: int) -> np.ndarray:
    """Radial Laplacian along the last axis of one field or a stack of them."""
    lap = np.zeros_like(u)
    lap[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dr**2
    if n > 1:
        lap[..., 1:-1] += (n - 1) / r[1:-1] * (u[..., 2:] - u[..., :-2]) / (2.0 * dr)
    # origin: symmetry gives u_r(0) = 0 and the limit n * u_rr
    lap[..., 0] = n * 2.0 * (u[..., 1] - u[..., 0]) / dr**2
    lap[..., -1] = 0.0  # homogeneous Dirichlet, never reached by the cone
    return lap


def _outside_cone(r, t, config: SystemConfig) -> np.ndarray:
    return r > config.R + t + SUPPORT_HALO * config.dr


def _initial_layout(config: SystemConfig, r: np.ndarray):
    """Initial fields, leapfrog velocities, wave-row count and forcing map.

    One of the two places that read the mode; the other is the choice of
    update in ``step``.
    """
    p, q = config.params.p, config.params.q
    u0 = config.u0(r)
    if config.mode == "mgt":
        utt = _laplacian(u0, r, config.dr, config.params.n)
        return np.stack((u0, config.u1(r), utt)), None, 1, ()
    if config.mode == "coupled":
        fields = np.stack((u0, config.v0(r)))
        return fields, np.stack((config.u1(r), config.v1(r))), 2, ((1, p), (0, q))
    return u0[None], config.u1(r)[None], 1, ((0, p),)


def _record_history(state: WaveState) -> None:
    for i, (src, power) in enumerate(state.forcing):
        state.history[i, state.step] = np.abs(state.fields[src]) ** power


def initial_state(config: SystemConfig) -> WaveState:
    """Initial fields and forcing history at t = 0, for any mode."""
    r = config.radii()
    fields, velocity, n_wave, forcing = _initial_layout(config, r)
    if config.linear:
        forcing = ()
    weights = tuple(
        HistoryWeights(g, config.dt, config.tail_truncation)
        for g in config.kernels[: len(forcing)]
    )
    history = np.zeros((len(forcing), config.n_steps + 1, r.size)) if forcing else None
    state = WaveState(r, fields, None, velocity, 0.0, 0, n_wave, forcing, weights, history)
    _record_history(state)
    return state


def _leapfrog(state: WaveState, config: SystemConfig) -> np.ndarray:
    dt, m = config.dt, state.step
    f = 0.0
    if state.forcing:
        # one matvec per row: a product batched over rows may sum in another order
        f = np.stack([w.weights(m) @ state.history[i, : m + 1]
                      for i, w in enumerate(state.weights)])
    lap = _laplacian(state.fields, state.r, config.dr, config.params.n)
    if m == 0:
        return state.fields + dt * state.velocity + 0.5 * dt**2 * (lap + f)
    return 2.0 * state.fields - state.prev + dt**2 * (lap + f)


def _rk4(state: WaveState, config: SystemConfig) -> np.ndarray:
    """One RK4 step of the first-order system (u, u_t, u_tt)."""
    beta = config.kernels[0].beta
    n, dr, dt, p = config.params.n, config.dr, config.dt, config.params.p
    r = state.r

    def rhs(y):
        lap = _laplacian(y[:2], r, dr, n)
        return np.stack((y[1], y[2], lap[0] / beta + lap[1] - y[2] / beta + np.abs(y[0]) ** p))

    y = state.fields
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(state: WaveState, config: SystemConfig) -> WaveState:
    """Advance one time level, in place.

    The wave modes use leapfrog with a Taylor start; their forcing at the
    current level is the product-integration convolution of the stored
    nonlinearity history.  Mgt mode takes one RK4 step of the third-order
    reformulation of the exponential-kernel equation.  Fields outside the
    light cone (plus halo) are clamped to zero, which is consistent with
    finite propagation speed and keeps the scheme second order.
    """
    new = _rk4(state, config) if config.mode == "mgt" else _leapfrog(state, config)
    state.t += config.dt
    new[..., _outside_cone(state.r, state.t, config)] = 0.0
    state.prev, state.fields = state.fields, new
    state.step += 1
    if state.history is not None and state.step < state.history.shape[1]:
        with np.errstate(over="ignore", invalid="ignore"):
            _record_history(state)
    return state


def discrete_energy(state: WaveState, config: SystemConfig) -> float:
    """Time-staggered leapfrog energy of the u field (linear runs)."""
    if state.u_prev is None:
        raise DomainError("energy needs two time levels")
    n, dr, dt = config.params.n, config.dr, config.dt
    r = state.r
    ut = (state.u - state.u_prev) / dt
    ur_now = np.gradient(state.u, dr)
    ur_prev = np.gradient(state.u_prev, dr)
    density = ut**2 + ur_now * ur_prev
    return observables.radial_integral(density, r, n)


@dataclass
class SimulationResult:
    """A finished run; ``trace.stop_trigger`` and ``trace.t_stop`` say why
    and when it stopped."""

    config: SystemConfig
    trace: FunctionalTrace
    snapshots: dict = field(default_factory=dict)


def run_simulation(config: SystemConfig) -> SimulationResult:
    """Integrate to t_max or until the fields blow up; record the trace."""
    state = initial_state(config)
    trace = FunctionalTrace()
    trace.append(observables.compute_functionals(state, config))
    snapshot_steps = {
        int(round(ts / config.dt)): ts for ts in config.snapshot_times
    }
    snapshots = {}
    for _ in range(config.n_steps):
        step(state, config)
        if not np.all(np.isfinite(state.waves)):
            trace.stop_trigger = "nonfinite"
            break
        if state.step % config.record_every == 0:
            trace.append(observables.compute_functionals(state, config))
        if state.step in snapshot_steps:
            snapshots[snapshot_steps[state.step]] = (
                state.u.copy(),
                None if state.v is None else state.v.copy(),
            )
        if np.max(np.abs(state.waves)) > config.maxnorm_threshold:
            trace.stop_trigger = "maxnorm"
            break
    trace.t_stop = state.t
    return SimulationResult(config, trace, snapshots)


# ---------------------------------------------------------------------------
# d'Alembert reference and fixed-point iteration (one spatial dimension)
# ---------------------------------------------------------------------------


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
        val += 0.5 * float(_sci_integrate.simpson(np.asarray(u1(nodes), dtype=float), x=nodes))
    if source is not None and t > 0.0:
        s_nodes = _simpson_nodes(0.0, t, resolution)
        inner = np.zeros_like(s_nodes)
        for i, s in enumerate(s_nodes):
            y = _simpson_nodes(x - (t - s), x + (t - s), resolution)
            if y is None:
                continue
            inner[i] = _sci_integrate.simpson(
                np.asarray([source(s, yy) for yy in y], dtype=float), x=y
            )
        val += 0.5 * float(_sci_integrate.simpson(inner, x=s_nodes))
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
        vp = np.abs(v) ** p
        uq = np.abs(u) ** q
        mem_u = np.array([w1.weights(m) @ vp[: m + 1] for m in range(nt + 1)])
        mem_v = np.array([w2.weights(m) @ uq[: m + 1] for m in range(nt + 1)])
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


# ---------------------------------------------------------------------------
# Third-order-in-time reformulation for exponential kernels
# ---------------------------------------------------------------------------


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
    hw = HistoryWeights(kernel, dt)
    F = np.array([hw.weights(m) @ samples[: m + 1] for m in range(t_grid.size)])
    Fp = np.gradient(F, dt, edge_order=2)
    resid = Fp - samples + F / kernel.beta
    return float(np.max(np.abs(resid[1:-1])))
