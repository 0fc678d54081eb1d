"""Radial finite-difference solver with memory-convolution forcing.

The single equation and the coupled system are integrated with an explicit
second-order leapfrog scheme on a uniform radial grid; the memory term is a
time convolution against the full nonlinearity history, discretized by product
integration so that weakly singular kernels are integrated exactly against
piecewise-linear histories.  The product-integration weights are Toeplitz in
the lag and are built once per run.  The grid and the light cone start from
R, the largest support radius of the nonzero initial profiles, so a zero
profile widens neither.  The fields, the memory and the history are exactly
zero outside the light cone, so every per-step pass (the memory update, the
stencil, the leapfrog update and the read of the new level's peaks and
nonlinearities) runs over the c(t) cells inside it only.  Every step is one
leapfrog update, from a level before t = 0 set by Taylor.  Costs per step,
for M + 1 cells:

- a kernel with a recursion factor (``MemoryKernel.recursion_factor``:
  exponential, constant, PolynomialShifted(0) or IteratedExponential(1, c))
  follows the exact one-term recursion of its convolution, O(M) per step,
  and keeps one level of history;
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
from functools import cached_property

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
        if self.dt <= 0.0:  # cfl * dr underflows
            raise ConfigError(f"cfl * dr = {self.cfl:g} * {self.dr:g} underflows to a zero "
                              "time step", param="cfl")
        # the largest array a run may make, the whole history of n_steps by
        # n_cells + 1 doubles, counted in floats: NumPy cannot index past this
        steps, cells = self.t_max / self.dt, (self.R + self.t_max) / self.dr + SUPPORT_HALO + 2
        if not steps * cells <= np.iinfo(np.intp).max // 8:
            raise ConfigError(f"a grid of {steps:.3g} steps by {cells:.3g} cells is too large "
                              "for NumPy to index")
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
        # every profile kind peaks at r = 0, so data at or above the threshold
        # would stop the first step as a false blow-up
        data = (self.u0, self.v0) if self.mode == "coupled" else (self.u0,)
        start = max(abs(float(f(0.0))) for f in data)
        if not self.maxnorm_threshold > start:
            raise ConfigError(f"maxnorm_threshold must exceed the initial peak {start}",
                              param="maxnorm_threshold")

    @cached_property
    def R(self) -> float:
        """The largest support radius of the nonzero initial profiles, 0 when
        every profile is zero: a zero profile widens neither the grid nor the
        light cone.  Scanned once per config."""
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
    ``weights(m)`` is [X(m), L[m - 1], ..., L[0]] for any m <= n_steps.  X
    and Y come from one ``MemoryKernel.step_moments`` call over the run's
    n_steps lags, made by the constructor; the tables never change after it,
    so a run of N steps builds its weights in O(N) and each call copies
    m + 1 values.  A kernel with a recursion factor reads only X(1) and Y(1)
    in a run: its convolution follows the exact one-term recursion in
    ``update``, O(M) per step for M cells, with no stored history.

    Given the run's ``n_steps``, a kernel with a sum-of-exponentials fit
    g(t) ≈ Σ_k w_k exp(-s_k (t - WINDOW dt)) on [WINDOW dt, n_steps dt]
    (``MemoryKernel.exponential_sum``) also gets the tables of a mode tail.
    With F_k(j) the convolution of exp(-s_k t) with the samples over
    [0, t_j], the convolution at t_m, for j a multiple of ``BLOCK`` with
    d = m - j >= WINDOW, is ``weights(d)`` applied to the samples j..m plus
    the mode weights at lag d applied to F(j); ``update`` advances F once per
    block.  ``rates`` holds the s_k of such a row and is None for every other.
    """

    def __init__(self, kernel: MemoryKernel, dt: float, n_steps: int):
        if dt <= 0.0:
            raise ConfigError("dt must be positive")
        self.dt = dt
        #: the factor of the recursion in ``update``, or None when the kernel
        #: has none (``MemoryKernel.recursion_factor``)
        self.decay = kernel.recursion_factor(dt)
        self.rates = None
        #: history levels the row keeps: 1 for a recursion, WINDOW + BLOCK for
        #: a mode tail, n_steps otherwise
        self.levels = 1 if self.decay is not None else n_steps
        if self.decay is None and n_steps >= WINDOW + BLOCK:
            fit = kernel.exponential_sum(WINDOW * dt, n_steps * dt)
            if fit is not None:
                self._tabulate_tail(*fit)
        m0, m1 = kernel.step_moments(dt, n_steps)
        # X(l) and Y(l) at index l, index 0 unused, and L[l] for l < n_steps;
        # made before the fit, they raised a 2,666-step run's peak RSS 0.8 MB
        self._X = np.concatenate(([0.0], dt * m1))
        self._Y = np.concatenate(([0.0], dt * (m0 - m1)))
        self._lag = np.concatenate((self._Y[1:2], self._X[1:-1] + self._Y[2:]))

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

    def weights(self, m: int) -> np.ndarray:
        """Weight vector of length m+1 for the convolution at t = m*dt."""
        w = np.empty(m + 1)
        w[0] = self._X[m]
        w[1:] = self._lag[:m][::-1]
        return w

    def update(self, memory, history, modes, f, m: int, c: int) -> None:
        """Record the samples f at t_m on the first c cells in a forced row's
        ``history`` (laid out as in ``WaveState``) and bring its ``memory`` up
        to t_m, in place; the history, the memory and the modes are zero from
        cell c on, so they are left as they are there.  Since
        g(t + dt) = decay * g(t), a recursion scales the previous convolution
        by decay and adds X(1) and Y(1) times the last interval's samples."""
        if self.decay is not None:
            if m > 0:
                memory[:c] = self.decay * memory[:c] + self._X[1] * history[0, :c] + self._Y[1] * f
            history[0, :c] = f
            return
        d = m  # the exact product covers the levels m - d..m
        if modes is not None and m >= WINDOW:
            d = WINDOW + (m - WINDOW) % BLOCK
            if d == WINDOW and m > WINDOW:  # the window moves up one block
                modes[:, :c] *= self._damp[:, None]
                modes[:, :c] += self._block @ history[: BLOCK + 1, :c]
                history[:WINDOW, :c] = history[BLOCK:, :c]
        history[d, :c] = f
        memory[:c] = self.weights(d) @ history[: d + 1, :c]
        if d < m:  # the part over [0, t_j], from F(j)
            memory[:c] += self._lead[d - WINDOW] @ modes[:, :c]


@dataclass
class WaveState:
    """Stacked fields, their previous time level, and the memory forcing.

    The rows of ``fields`` are (u, v) in coupled mode and (u,) in single and
    mgt mode.  ``cut`` is the number c of cells inside the light cone (plus
    halo) at t: from cell c on, every field, memory term, history level and
    mode is exactly +0.0, so every per-step pass runs over the first c cells
    only.  ``peak`` and ``nonlinearity``, each field's peak and the profiles
    N = (|v|^p, |u|^q) on the first c cells (v is u in single and mgt mode),
    are read once per level.  Row i is driven by ``memory[i]``, the
    convolution of ``weights[i]`` with the profiles N[i], brought up to the
    current level when a step starts from it.  ``history[i]`` holds those
    profiles, in one of three layouts chosen by ``weights[i]``:

    - its recursion (a kernel with a recursion factor): only the latest one,
      shape (1, M + 1), and ``modes[i]`` is None;
    - its mode tail: the levels j..m of the exact window, shape
      (WINDOW + BLOCK, M + 1), and ``modes[i]`` is F(j), shape (K, M + 1);
    - otherwise: every level a step started from, shape (n_steps, M + 1), and
      ``modes[i]`` is None.

    A linear run has no weight rows, so no history or modes, and no memory.
    """

    r: np.ndarray
    fields: np.ndarray
    prev: np.ndarray  # the previous level; a step writes the next one into it
    stencil: np.ndarray  # the Laplacian's buffer
    t: float
    step: int
    cut: int
    weights: tuple
    history: tuple
    modes: tuple
    memory: np.ndarray | None  # (len(weights), M + 1)
    peak: np.ndarray = field(init=False)
    nonlinearity: tuple = field(init=False)

    @property
    def u(self) -> np.ndarray:
        return self.fields[0]


def _laplacian(u: np.ndarray, r: np.ndarray, dr: float, n: int, out=None) -> np.ndarray:
    """Radial Laplacian along the last axis of one field or a stack of them,
    written into ``out`` (an array of u's shape) when one is given."""
    lap = np.empty_like(u) if out is None else out
    inner = lap[..., 1:-1]
    # (u[2:] - 2 u[1:-1] + u[:-2]) / dr^2, in that order
    np.multiply(u[..., 1:-1], -2.0, out=inner)
    inner += u[..., 2:]
    inner += u[..., :-2]
    inner /= dr**2
    if n > 1:
        drift = u[..., 2:] - u[..., :-2]
        drift *= (n - 1) / r[1:-1]
        drift /= 2.0 * dr
        inner += drift
    # origin: symmetry gives u_r(0) = 0 and the limit n * u_rr
    lap[..., 0] = n * 2.0 * (u[..., 1] - u[..., 0]) / dr**2
    lap[..., -1] = 0.0  # homogeneous Dirichlet, never reached by the cone
    return lap


def _cone_cut(r, t, config: SystemConfig) -> int:
    """The number c of cells inside the light cone (plus halo) at time t: r
    increases, so the cells with r > R + t + halo are exactly r[c:]."""
    return int(np.searchsorted(r, config.R + t + SUPPORT_HALO * config.dr, side="right"))


def _read_level(state: WaveState, config: SystemConfig) -> None:
    """Read the current level once, for the memory, the trace and the stop."""
    mag = np.abs(state.fields[:, : state.cut])
    state.peak = mag.max(axis=-1)
    state.nonlinearity = (mag[-1] ** config.params.p, mag[0] ** config.params.q)


def _update_memory(state: WaveState) -> None:
    """Record N at the current level and bring the memory terms up to it."""
    for i, hw in enumerate(state.weights):
        hw.update(state.memory[i], state.history[i], state.modes[i], state.nonlinearity[i],
                  state.step, state.cut)


def initial_state(config: SystemConfig) -> WaveState:
    """Initial fields and the level before them, the stencil's buffer, the
    forced rows' weights, each with its sum-of-exponentials tail if it has
    one, and an empty forcing history at t = 0, for any mode.  The one place
    that reads the mode: mgt runs the single-mode layout."""
    r, dt = config.radii(), config.dt
    rows = 2 if config.mode == "coupled" else 1
    fields, velocity = (np.stack([f(r) for f in data[:rows]])
                        for data in ((config.u0, config.v0), (config.u1, config.v1)))
    # the profiles vanish beyond R; a negative amplitude makes that -0.0, and
    # each buffer a step writes into must hold +0.0 beyond its cut
    cut = _cone_cut(r, 0.0, config)
    fields[:, cut:] = 0.0
    # u0 - dt u1 + dt^2 / 2 lap u0, in that order: the memory is 0 at t = 0,
    # so the first leapfrog step makes u0 + dt u1 + dt^2 / 2 lap u0
    stencil, prev = np.empty_like(fields), np.zeros_like(fields)
    lap = _laplacian(fields[:, : cut + 1], r[: cut + 1], config.dr, config.params.n,
                     stencil[:, : cut + 1])[:, :cut]
    prev[:, :cut] = fields[:, :cut] - dt * velocity[:, :cut] + 0.5 * dt**2 * lap
    weights = tuple(HistoryWeights(g, dt, config.n_steps)
                    for g in config.kernels[: 0 if config.linear else rows])
    history = tuple(np.zeros((w.levels, r.size)) for w in weights)
    modes = tuple(None if w.rates is None else np.zeros((w.rates.size, r.size))
                  for w in weights)
    memory = np.zeros((len(weights), r.size)) if weights else None
    state = WaveState(r, fields, prev, stencil, 0.0, 0, cut, weights, history, modes, memory)
    _read_level(state, config)
    return state


def step(state: WaveState, config: SystemConfig) -> WaveState:
    """Advance one time level, in place, in any mode.

    Leapfrog; the forcing at the current level is the product-integration
    convolution of the nonlinearity history, brought up to this level first.
    Fields outside the light cone (plus halo) stay zero, which is consistent
    with finite propagation speed and keeps the scheme second order: the new
    level is made over the c cells inside the cone at t + dt, from a stencil
    over c + 1 cells, in the buffer of the previous level, which is zero from
    its own smaller cut on, and then read once.  Overflow is left to the
    caller's ``np.errstate``, which ``run_simulation`` sets for the run.
    """
    _update_memory(state)
    state.t += config.dt
    c = state.cut = _cone_cut(state.r, state.t, config)
    fields, new = state.fields[:, :c], state.prev[:, :c]
    lap = _laplacian(state.fields[:, : c + 1], state.r[: c + 1], config.dr, config.params.n,
                     state.stencil[:, : c + 1])[:, :c]
    # the arithmetic of 2 fields - prev + dt^2 (lap + f), in that order; a
    # free wave's f = 0.0 still turns a -0.0 in lap into +0.0
    lap += 0.0 if state.memory is None else state.memory[:, :c]
    lap *= config.dt**2
    np.subtract(2.0 * fields, new, out=new)
    new += lap
    state.prev, state.fields = state.fields, state.prev
    state.step += 1
    _read_level(state, config)
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
    trace, snapshots, snapshot_steps = FunctionalTrace(), {}, {}
    # the requested times by the step nearest each; one at t_max is the last
    # step, and two times may share a step
    for ts in config.snapshot_times:
        snapshot_steps.setdefault(min(round(ts / config.dt), config.n_steps), []).append(ts)
    with np.errstate(over="ignore", invalid="ignore"):
        state = initial_state(config)
        weights = observables.trace_weights(config.params.n, state.r)
        trace.rows.append(observables.compute_functionals(state, weights))
        for _ in range(config.n_steps):
            step(state, config)
            peak = state.peak.max()  # a NaN or inf propagates to the peak
            if not np.isfinite(peak):
                trace.stop_trigger = "nonfinite"
                break
            if state.step % config.record_every == 0:
                trace.rows.append(observables.compute_functionals(state, weights))
            if state.step in snapshot_steps:
                taken = (state.t, state.fields.copy())
                snapshots.update(dict.fromkeys(snapshot_steps[state.step], taken))
            if peak > config.maxnorm_threshold:
                trace.stop_trigger = "maxnorm"
                break
    trace.t_stop = state.t
    return SimulationResult(trace, snapshots)

