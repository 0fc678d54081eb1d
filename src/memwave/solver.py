"""Radial finite-difference solver with memory-convolution forcing.

The single equation and the coupled system are integrated with an explicit
second-order leapfrog scheme on a uniform radial grid; the memory term is a
time convolution against the full nonlinearity history, discretized by product
integration so that weakly singular kernels are integrated exactly against
piecewise-linear histories.  The product-integration weights are Toeplitz in
the lag and are built once per run.  The grid and the light cone start from
R, the largest support radius of the nonzero initial profiles, so a zero
profile widens neither.  Every product with stored history runs over the
c(t) cells inside the light cone only, since the history is zero outside it.
Costs per step, for M + 1 cells:

- a kernel with a recursion factor (``MemoryKernel.recursion_factor``:
  exponential, constant or PolynomialShifted(0)) follows the exact one-term
  recursion of its convolution, O(M) per step, and keeps one level of
  history;
- a RiemannLiouville or PolynomialShifted kernel keeps its latest
  ``WINDOW`` to ``WINDOW + BLOCK - 1`` lags exact, over a window of
  WINDOW + BLOCK history levels, and folds everything older into K modes of
  a sum-of-exponentials fit of the kernel, accurate to 1e-11 relative
  (``kernels.SOE_TOLERANCE``) on [WINDOW dt, n_steps dt].  The modes advance
  once per ``BLOCK`` steps by one matrix product, so a step costs
  O((WINDOW + BLOCK + K) c) and the row holds (WINDOW + BLOCK + K)(M + 1)
  numbers, with K about 10 to 30;
- every other kernel, and a fit that misses its bound, keeps the whole
  (n_steps, M + 1) history and costs O(m c) at step m.

Every mode runs this one scheme.  Mgt mode is the Moore-Gibson-Thompson form
beta u_ttt + u_tt - lap u - beta lap u_t = beta |u|^p of the single equation
with g1 = exp(-t / beta), so it runs the single-mode layout.  The d'Alembert,
Picard and third-order RK4 references that tests compare the scheme against,
and the leapfrog energy and light-cone support checks, live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import observables
from .errors import ConfigError
from .exponents import ProblemParams
from .kernels import Exponential, MemoryKernel, _piece_moments
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
]

#: numerical support halo, in grid cells, added to the light-cone radius
SUPPORT_HALO = 2

#: a row with a sum-of-exponentials tail keeps at least this many lags exact
WINDOW = 32
#: its modes advance once per this many steps, in one matrix product
BLOCK = 32

PROFILE_KINDS = ("zero", "cosine_bump", "smoothed_indicator", "gaussian")

#: leapfrog is stable for cfl < 2 / sqrt(rho(dr^2 L)), with L the matrix of
#: ``_laplacian``; rho(dr^2 L) is 4, 4.8419... and 6 for n = 1, 2, 3, set by
#: the rows at the origin whatever the grid size
CFL_BOUNDS = {1: 1.0, 2: 0.9089085575485424, 3: math.sqrt(2.0 / 3.0)}
#: the cfl of a run that sets none, below each dimension's bound
DEFAULT_CFL = {1: 0.9, 2: 0.9, 3: 0.8}


@dataclass(frozen=True)
class Profile:
    """Named radial bump, supported in r <= radius."""

    kind: str
    amplitude: float = 0.0
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ConfigError(f"unknown profile kind {self.kind!r}", param="kind")
        if self.radius <= 0.0:
            raise ConfigError("support radius must be positive", param="radius")

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


@dataclass
class SystemConfig:
    """Full description of one simulation run."""

    params: ProblemParams
    kernels: tuple  # (g1, g2); single mode uses only g1
    u0: Profile
    u1: Profile
    v0: Profile = Profile("zero")
    v1: Profile = Profile("zero")
    t_max: float = 2.0
    dr: float = 0.01
    cfl: float | None = None  # None: DEFAULT_CFL for the dimension
    mode: str = "coupled"  # "single" | "coupled" | "mgt"
    maxnorm_threshold: float = 1e6
    linear: bool = False  # drop the memory forcing (free wave propagation)
    record_every: int = 1
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.params.n not in (1, 2, 3):
            raise ConfigError(f"the solver supports n = 1, 2, 3, got n = {self.params.n}",
                              param="n")
        if len(self.kernels) != 2:
            raise ConfigError("kernels must be a (g1, g2) pair", param="kernels")
        if self.mode not in ("single", "coupled", "mgt"):
            raise ConfigError(f"unknown mode {self.mode!r}", param="mode")
        if self.cfl is None:
            self.cfl = DEFAULT_CFL[self.params.n]
        bound = CFL_BOUNDS[self.params.n]
        if not 0.0 < self.cfl < bound:
            raise ConfigError(f"cfl must lie in (0, {bound:.6g}) for n = {self.params.n}",
                              param="cfl")
        if self.dr <= 0.0:
            raise ConfigError("dr must be positive", param="dr")
        if self.n_steps < 1:
            raise ConfigError(f"t_max must span at least one step, dt = {self.dt:g}",
                              param="t_max")
        if self.record_every < 1:
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}",
                              param="record_every")
        # a time at or below dt/2 rounds to step 0, where no snapshot is taken
        if not all(self.dt / 2 < t <= self.t_max for t in self.snapshot_times):
            raise ConfigError(f"snapshot times must lie in (dt/2, t_max] = "
                              f"({self.dt / 2:g}, {self.t_max:g}]", param="snapshot_times")
        if self.mode == "mgt" and not isinstance(self.kernels[0], Exponential):
            raise ConfigError("mgt mode requires an Exponential kernel", param="mode")

    @property
    def R(self) -> float:
        """The largest support radius of the nonzero initial profiles, 0 when
        every profile is zero: a zero profile widens neither the grid nor the
        light cone."""
        return max((p.radius for p in (self.u0, self.u1, self.v0, self.v1)
                    if p.kind != "zero" and p.amplitude != 0.0), default=0.0)

    @property
    def dt(self) -> float:
        return self.cfl * self.dr

    @property
    def n_steps(self) -> int:
        """The last step at or before t_max.  The slack keeps a whole quotient
        whole where the division rounds it down (0.36 / 0.018 gives
        19.999999999999996)."""
        return int(self.t_max / self.dt + 1e-9)

    @property
    def n_cells(self) -> int:
        return int(math.ceil((self.R + self.t_max) / self.dr)) + SUPPORT_HALO + 1

    def radii(self) -> np.ndarray:
        return self.dr * np.arange(self.n_cells + 1)


class HistoryWeights:
    """Product-integration weights for the memory convolution.

    For step m the weights w satisfy sum_k w_k f(t_k) = integral of
    g(t_m - tau) f(tau) over [0, t_m], exactly whenever f is piecewise linear
    on the step grid.  Built from the moments of g over each step, so
    singular kernels lose no accuracy.

    The weights are Toeplitz in the lag.  The interval whose kernel arguments
    are (l - 1) dt and l dt contributes X(l) to its left node and Y(l) to its
    right node, so with the lag weights L[0] = Y(1), L[l] = X(l) + Y(l + 1),
    ``weights(m)`` is [X(m), L[m - 1], ..., L[0]].  X and Y come from one
    ``MemoryKernel.step_moments`` call over the step grid, for the row's
    ``levels`` lags at first and for twice as many each time a call asks for
    more, so a run of N steps builds its weights in O(N) and each call copies
    m + 1 values.  A kernel with a recursion factor needs only X(1) and Y(1):
    its convolution follows the exact one-term recursion in ``update``, O(M)
    per step for M cells, with no stored history.

    Given the run's ``n_steps``, a kernel with a sum-of-exponentials fit
    g(t) ≈ Σ_k w_k exp(-s_k (t - WINDOW dt)) on [WINDOW dt, n_steps dt]
    (``MemoryKernel.exponential_sum``) also gets the tables of a mode tail.
    With F_k(j) the convolution of exp(-s_k t) with the samples over
    [0, t_j], the convolution at t_m, for j a multiple of ``BLOCK`` with
    d = m - j >= WINDOW, is ``weights(d)`` applied to the samples j..m plus
    the mode weights at lag d applied to F(j); ``update`` advances F once per
    block.  ``rates`` holds the s_k of such a row and is None for every other.
    """

    def __init__(self, kernel: MemoryKernel, dt: float, n_steps: int = 0):
        if dt <= 0.0:
            raise ConfigError("dt must be positive")
        self.kernel = kernel
        self.dt = dt
        #: the factor of the recursion in ``update``, or None when the kernel
        #: has none (``MemoryKernel.recursion_factor``)
        self.decay = kernel.recursion_factor(dt)
        self._X = self._Y = np.zeros(1)  # X(l) and Y(l) at index l; index 0 is unused
        self._lag = np.zeros(0)  # L[l] for l < len(self._X) - 1
        self.rates = None
        #: history levels the row keeps: 1 for a recursion, WINDOW + BLOCK for
        #: a mode tail, n_steps otherwise
        self.levels = 1 if self.decay is not None else n_steps
        if self.decay is None and n_steps >= WINDOW + BLOCK:
            fit = kernel.exponential_sum(WINDOW * dt, n_steps * dt)
            if fit is not None:
                self._tabulate_tail(*fit)

    def _tabulate_tail(self, rates, weights) -> None:
        dt = self.dt
        self.rates = rates
        self.levels = WINDOW + BLOCK
        # sample j + i enters F(j + BLOCK) as the left node of interval i, whose
        # right end lies BLOCK - 1 - i steps back, and as the right node of
        # interval i - 1; each interval is integrated by the kernels' rule, on
        # [0, 1] in units of dt, where every s_k dt is below 3
        m0, m1 = _piece_moments(lambda u: np.exp(-np.multiply.outer(rates * dt, u)),
                                np.array([0.0, 1.0]))
        x, y = m1[:, 0], m0[:, 0] - m1[:, 0]
        lags = dt * np.arange(BLOCK + 1)
        decay = np.exp(-np.outer(rates, lags[-2::-1]))
        self._block = np.zeros((rates.size, BLOCK + 1))
        self._block[:, :-1] = (dt * x)[:, None] * decay
        self._block[:, 1:] += (dt * y)[:, None] * decay
        self._damp = np.exp(-rates * lags[-1])
        # row d - WINDOW: the mode weights w_k exp(-s_k (d - WINDOW) dt)
        self._lead = weights * np.exp(-np.outer(lags[:-1], rates))

    def _tabulate(self, m: int) -> None:
        """Make X(l) and Y(l) known for every lag l <= m."""
        done = self._X.size - 1
        if m <= done:
            return
        m0, m1 = self.kernel.step_moments(self.dt, done + 1, max(m, self.levels, 2 * done))
        self._X = np.concatenate((self._X, self.dt * m1))
        self._Y = np.concatenate((self._Y, self.dt * (m0 - m1)))
        self._lag = np.concatenate((self._Y[1:2], self._X[1:-1] + self._Y[2:]))

    def weights(self, m: int) -> np.ndarray:
        """Weight vector of length m+1 for the convolution at t = m*dt."""
        self._tabulate(m)
        w = np.empty(m + 1)
        w[0] = self._X[m]
        w[1:] = self._lag[:m][::-1]
        return w

    def update(self, memory, history, modes, f, m: int, c: int) -> None:
        """Record the samples f at t_m in a forced row's ``history`` (laid out
        as in ``WaveState``) and bring its ``memory`` up to t_m, in place;
        only the first c cells enter products with stored history.  Since
        g(t + dt) = decay * g(t), a recursion scales the previous convolution
        by decay and adds X(1) and Y(1) times the last interval's samples."""
        if self.decay is not None:
            if m > 0:
                self._tabulate(1)
                memory[:] = self.decay * memory + self._X[1] * history[0] + self._Y[1] * f
            history[0] = f
            return
        d = m  # the exact product covers the levels m - d..m
        if modes is not None and m >= WINDOW:
            d = WINDOW + (m - WINDOW) % BLOCK
            if d == WINDOW and m > WINDOW:  # the window moves up one block
                modes[:, :c] *= self._damp[:, None]
                modes[:, :c] += self._block @ history[: BLOCK + 1, :c]
                history[:WINDOW] = history[BLOCK:]
        history[d] = f
        memory[:c] = self.weights(d) @ history[: d + 1, :c]
        if d < m:  # the part over [0, t_j], from F(j)
            memory[:c] += self._lead[d - WINDOW] @ modes[:, :c]


@dataclass
class WaveState:
    """Stacked fields, their previous time level, and the memory forcing.

    The rows of ``fields`` are (u, v) in coupled mode and (u,) in single and
    mgt mode, and ``velocity`` holds their initial velocities.  Entry i of
    ``forcing`` is ``(src, power)``: row i is driven by ``memory[i]``, the
    convolution of ``weights[i]`` with the profiles of ``|fields[src]|**power``,
    brought up to the current level when a step starts from it.
    ``history[i]`` holds those profiles, in one of three layouts chosen by
    ``weights[i]``:

    - its recursion (a kernel with a recursion factor): only the latest one,
      shape (1, M + 1), and ``modes[i]`` is None;
    - its mode tail: the levels j..m of the exact window, shape
      (WINDOW + BLOCK, M + 1), and ``modes[i]`` is F(j), shape (K, M + 1);
    - otherwise: every level a step started from, shape (n_steps, M + 1), and
      ``modes[i]`` is None.

    The forcing, history and modes are empty and the memory None for linear
    runs.
    """

    r: np.ndarray
    fields: np.ndarray
    prev: np.ndarray | None  # the previous time level; None before the first step
    velocity: np.ndarray
    t: float
    step: int
    forcing: tuple
    weights: tuple
    history: tuple
    modes: tuple
    memory: np.ndarray | None  # (len(forcing), M + 1)

    @property
    def u(self) -> np.ndarray:
        return self.fields[0]

    @property
    def v(self) -> np.ndarray | None:
        return self.fields[1] if len(self.fields) == 2 else None


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


def _cone_cut(r, t, config: SystemConfig) -> int:
    """The number c of cells inside the light cone (plus halo) at time t: r
    increases, so the cells with r > R + t + halo are exactly r[c:]."""
    return int(np.searchsorted(r, config.R + t + SUPPORT_HALO * config.dr, side="right"))


def _update_memory(state: WaveState, config: SystemConfig) -> None:
    """Record the nonlinearities at the current level and bring the memory
    terms up to it.  A stored history is zero outside the light cone, so only
    its first c columns enter the products; ``memory`` and the modes keep
    zeros beyond them."""
    c = _cone_cut(state.r, state.t, config)
    for i, (src, power) in enumerate(state.forcing):
        state.weights[i].update(state.memory[i], state.history[i], state.modes[i],
                                np.abs(state.fields[src]) ** power, state.step, c)


def initial_state(config: SystemConfig) -> WaveState:
    """Initial fields, the forced rows' weights, each with its
    sum-of-exponentials tail if it has one, and an empty forcing history at
    t = 0, for any mode.  The one place that reads the mode: mgt runs the
    single-mode layout."""
    r = config.radii()
    p, q = config.params.p, config.params.q
    if config.mode == "coupled":
        fields = np.stack((config.u0(r), config.v0(r)))
        velocity = np.stack((config.u1(r), config.v1(r)))
        forcing = ((1, p), (0, q))
    else:
        fields, velocity, forcing = config.u0(r)[None], config.u1(r)[None], ((0, p),)
    if config.linear:
        forcing = ()
    weights = tuple(HistoryWeights(g, config.dt, config.n_steps)
                    for g in config.kernels[: len(forcing)])
    history = tuple(np.zeros((w.levels, r.size)) for w in weights)
    modes = tuple(None if w.rates is None else np.zeros((w.rates.size, r.size))
                  for w in weights)
    memory = np.zeros((len(forcing), r.size)) if forcing else None
    return WaveState(r, fields, None, velocity, 0.0, 0, forcing, weights, history, modes,
                     memory)


def step(state: WaveState, config: SystemConfig) -> WaveState:
    """Advance one time level, in place, in any mode.

    Leapfrog with a Taylor start; the forcing at the current level is the
    product-integration convolution of the nonlinearity history, brought up
    to this level first.  Fields outside the light cone (plus halo) are
    clamped to zero, which is consistent with finite propagation speed and
    keeps the scheme second order.  Overflow is left to the caller's
    ``np.errstate``: ``run_simulation`` silences it for the whole run.
    """
    dt = config.dt
    f = 0.0
    if state.forcing:
        _update_memory(state, config)
        f = state.memory
    lap = _laplacian(state.fields, state.r, config.dr, config.params.n)
    if state.step == 0:
        new = state.fields + dt * state.velocity + 0.5 * dt**2 * (lap + f)
    else:
        new = 2.0 * state.fields - state.prev + dt**2 * (lap + f)
    state.t += dt
    new[..., _cone_cut(state.r, state.t, config):] = 0.0
    state.prev, state.fields = state.fields, new
    state.step += 1
    return state


@dataclass
class SimulationResult:
    """A finished run; ``trace.stop_trigger`` and ``trace.t_stop`` say why
    and when it stopped.  ``snapshots`` maps each requested time to the time
    reached and a copy of ``WaveState.fields``."""

    trace: FunctionalTrace
    snapshots: dict = field(default_factory=dict)


def run_simulation(config: SystemConfig) -> SimulationResult:
    """Integrate to t_max or until the fields blow up; record the trace.

    A run that blows up may overflow to inf or NaN before its
    ``maxnorm_threshold``, in the memory update, the stencil or a trace row;
    that is the ``nonfinite`` stop, not a fault, so the whole run is under
    one ``np.errstate`` that silences overflow and invalid operations.
    """
    state = initial_state(config)
    trace = FunctionalTrace()
    grid = observables.RadialGrid.of(config.params.n, state.r)
    # the step nearest each requested time; one at t_max is the last step
    snapshot_steps = {
        min(round(ts / config.dt), config.n_steps): ts for ts in config.snapshot_times
    }
    snapshots = {}
    with np.errstate(over="ignore", invalid="ignore"):
        trace.rows.append(observables.compute_functionals(state, config, grid))
        for _ in range(config.n_steps):
            step(state, config)
            # one reduction serves both triggers: a NaN or inf propagates to the peak
            peak = np.max(np.abs(state.fields))
            if not np.isfinite(peak):
                trace.stop_trigger = "nonfinite"
                break
            if state.step % config.record_every == 0:
                trace.rows.append(observables.compute_functionals(state, config, grid))
            if state.step in snapshot_steps:
                snapshots[snapshot_steps[state.step]] = (state.t, state.fields.copy())
            if peak > config.maxnorm_threshold:
                trace.stop_trigger = "maxnorm"
                break
    trace.t_stop = state.t
    return SimulationResult(trace, snapshots)

