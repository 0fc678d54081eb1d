"""Solver: quadrature weights, stepping, oracles, MGT, fixed-point iteration."""

import copy
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from memwave import kernels, solver
from memwave.errors import ConfigError, UnsupportedError
from memwave.exponents import ProblemParams
from memwave.kernels import (
    Constant,
    Custom,
    Exponential,
    IteratedExponential,
    OscillatingPolynomial,
    PolynomialShifted,
    RiemannLiouville,
)
from memwave.solver import (
    HistoryWeights,
    Profile,
    SystemConfig,
    initial_state,
    run_simulation,
    step,
)
from oracles import (
    closed_form_antiderivative,
    conv_derivative_identity,
    dalembert_reference,
    discrete_energy,
    full_grid_step,
    mgt_reference,
    picard_iterate,
    step_weights_reference,
    support_violation,
)

PARAMS = ProblemParams(1, 2.0, 2.0)


def _config(**kw):
    defaults = dict(
        params=PARAMS,
        kernels=(Constant(1.0), Constant(1.0)),
        u0=Profile("gaussian", 1.0, 1.0),
        u1=Profile("zero"),
        t_max=1.0,
        dr=0.02,
        mode="single",
    )
    defaults.update(kw)
    return SystemConfig(**defaults)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cosine_bump", "smoothed_indicator", "gaussian"])
def test_profile_support(kind):
    prof = Profile(kind, 2.0, 1.5)
    r = np.linspace(0.0, 4.0, 200)
    vals = prof(r)
    assert np.all(vals[r >= 1.5] == 0.0)
    assert vals[0] > 0.0
    assert np.max(vals) <= 2.0 + 1e-12


def test_profile_amplitude_scaling():
    r = np.linspace(0.0, 1.0, 50)
    assert np.allclose(Profile("cosine_bump", 3.0, 1.0)(r),
                       3.0 * Profile("cosine_bump", 1.0, 1.0)(r))


def test_profile_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        Profile("triangle", 1.0, 1.0)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

QUAD_FAMILIES = [
    RiemannLiouville(0.5),
    RiemannLiouville(0.2),
    PolynomialShifted(0.5),
    PolynomialShifted(1.0),
    Exponential(1.0),
    Exponential(3.0),
    Constant(2.0),
    IteratedExponential(1, 1.0),
    OscillatingPolynomial(0.5),
]


@pytest.mark.parametrize("kernel", QUAD_FAMILIES, ids=lambda k: repr(type(k).__name__))
def test_weights_row_sum_telescopes(kernel):
    # the weights integrate g exactly, so ones must reproduce G(t_m), here
    # in closed form: the kernel's own G comes from the rule that built them
    slow = isinstance(kernel, (OscillatingPolynomial, IteratedExponential))
    steps = 100 if slow else 1000
    hw = HistoryWeights(kernel, 0.01, steps)
    for m in (1, 7, steps // 2, steps):
        w = hw.weights(m)
        want = closed_form_antiderivative(kernel, m * 0.01)
        assert w @ np.ones(m + 1) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_convolution_examples():
    # g = 1, f = 1, t = 2 -> 2
    hw = HistoryWeights(Constant(1.0), 0.01, 200)
    assert hw.weights(200) @ np.ones(201) == pytest.approx(2.0, rel=1e-12)
    # fractional integral of 1 at t = 1: t^0.5 / Gamma(1.5)
    hw = HistoryWeights(RiemannLiouville(0.5), 0.01, 100)
    assert hw.weights(100) @ np.ones(101) == pytest.approx(1.1283791671, abs=1e-8)
    # exponential convolution of 1: 1 - e^-t
    hw = HistoryWeights(Exponential(1.0), 0.01, 100)
    assert hw.weights(100) @ np.ones(101) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-8)


def test_weights_exact_for_linear_samples():
    # oracle: adaptive quadrature of g(t - tau)(2 + 3 tau)
    dt = 0.05
    m = 40
    t_m = m * dt
    samples = 2.0 + 3.0 * dt * np.arange(m + 1)
    for kernel in (Exponential(1.5), Constant(0.7), PolynomialShifted(0.5)):
        want, _ = integrate.quad(lambda s: kernel(t_m - s) * (2.0 + 3.0 * s), 0.0, t_m,
                                 epsrel=1e-12, limit=200)
        got = HistoryWeights(kernel, dt, m).weights(m) @ samples
        assert got == pytest.approx(want, rel=1e-10)


def test_weights_exact_for_singular_kernel_linear_samples():
    dt = 0.05
    m = 40
    t_m = m * dt
    kernel = RiemannLiouville(0.5)
    samples = 1.0 + 0.5 * dt * np.arange(m + 1)
    # quad's weight="alg" supplies the (t_m - s)^-0.5 factor; the integrand is
    # just the smooth part, renormalized by Gamma(0.5) afterwards
    want, _ = integrate.quad(
        lambda s: 1.0 + 0.5 * s, 0.0, t_m,
        weight="alg", wvar=(0.0, -0.5), epsrel=1e-12, limit=200,
    )
    want = want / math.gamma(0.5)
    got = HistoryWeights(kernel, dt, m).weights(m) @ samples
    assert got == pytest.approx(want, rel=1e-9)


def test_convolve_history_length_mismatch():
    hw = HistoryWeights(Constant(1.0), 0.1, 5)
    with pytest.raises(ValueError):
        hw.weights(5) @ np.ones(4)


@pytest.mark.parametrize("kernel", [
    RiemannLiouville(0.5),
    PolynomialShifted(0.5),
    PolynomialShifted(2.0),
    Exponential(1.0),
    OscillatingPolynomial(0.0),
    Constant(0.7),
    IteratedExponential(2, 1.0),
    Custom(np.geomspace(0.005, 10.0, 12), np.geomspace(0.005, 10.0, 12) ** -0.4),
], ids=lambda k: type(k).__name__)
@pytest.mark.parametrize("order", [(0, 1, 2, 3, 17, 500), (500, 3, 17, 0, 2, 1)],
                         ids=["sequential", "shuffled"])
def test_weights_match_vectorised_formula(kernel, order):
    # in whatever order they are asked for, weights(m) is [X(m), L[m - 1],
    # ..., L[0]] with L[0] = Y(1), L[l] = X(l) + Y(l + 1), from the exact
    # step integrals
    dt = 0.01
    hw = HistoryWeights(kernel, dt, max(order))
    for m in order:
        w = hw.weights(m)
        assert w.size == m + 1
        if m == 0:
            assert w.tolist() == [0.0]
            continue
        assert w[0] == pytest.approx(step_weights_reference(kernel, dt, m)[0], rel=1e-13)
        for l in {0, 1, 2, 16, m - 1} & set(range(m)):
            want = step_weights_reference(kernel, dt, l + 1)[1]
            if l > 0:
                want += step_weights_reference(kernel, dt, l)[0]
            assert w[m - l] == pytest.approx(want, rel=1e-13), l


@pytest.mark.parametrize("kernel", [Exponential(0.05), Exponential(1.0), Exponential(20.0),
                                    Constant(0.7)],
                         ids=lambda k: str(k.beta) if isinstance(k, Exponential) else "constant")
def test_exponential_recursion_matches_weights(kernel):
    # a constant kernel is the one-term exponential sum with rate 0
    dt = 0.01
    samples = 1.0 + np.sin(3.0 * dt * np.arange(2001)) ** 2
    hw = HistoryWeights(kernel, dt, samples.size - 1)
    memory, history = np.zeros(1), np.zeros((hw.levels, 1))
    assert history.shape == (1, 1)
    for m in range(samples.size):
        hw.update(memory, history, None, samples[m : m + 1], m, 1)
        assert memory[0] == pytest.approx(hw.weights(m) @ samples[: m + 1], rel=1e-10)


@pytest.mark.parametrize("c", [2.0, 0.3])
def test_iterated_exponential_depth_one_takes_the_exponential_recursion(c):
    # IteratedExponential(1, c) is exp(-c t): past the mode tail's WINDOW +
    # BLOCK steps its row still keeps one level, and its memory follows an
    # Exponential(1 / c) row's
    dt, n_steps, cells = 0.01, 200, 5
    assert n_steps > solver.WINDOW + solver.BLOCK
    rows = [HistoryWeights(g, dt, n_steps) for g in (IteratedExponential(1, c), Exponential(1 / c))]
    assert [hw.levels for hw in rows] == [1, 1]
    samples = 1.0 + np.outer(np.sin(3.0 * dt * np.arange(n_steps)), np.linspace(0.0, 1.0, cells))
    memory, history = np.zeros((2, cells)), np.zeros((2, 1, cells))
    for m in range(n_steps):
        for hw, mem, hist in zip(rows, memory, history):
            hw.update(mem, hist, None, samples[m], m, cells)
        np.testing.assert_allclose(memory[0], memory[1], rtol=1e-13, atol=0.0)
    assert np.min(memory) > 0.0


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_zero_data_stays_zero():
    cfg = _config(u0=Profile("zero"), u1=Profile("zero"), t_max=0.5)
    state = initial_state(cfg)
    for _ in range(10):
        step(state, cfg)
    assert np.all(state.u == 0.0)


def test_support_invariant():
    cfg = _config(t_max=1.0, dr=0.02, mode="coupled",
                  v0=Profile("gaussian", 0.5, 1.0), v1=Profile("zero"))
    state = initial_state(cfg)
    n_steps = int(round(cfg.t_max / cfg.dt))
    for _ in range(n_steps):
        step(state, cfg)
        assert support_violation(state, cfg) < 1e-12


def test_linear_run_matches_dalembert():
    cfg = _config(dr=0.01, t_max=1.0, linear=True, cfl=0.5)
    state = initial_state(cfg)
    for _ in range(int(round(cfg.t_max / cfg.dt))):
        step(state, cfg)
    u0 = lambda x: cfg.u0(np.abs(np.asarray(x, dtype=float)))
    sel = state.r <= 2.5
    ref = np.array([dalembert_reference(u0, lambda x: 0.0 * np.asarray(x), None,
                                        state.t, x) for x in state.r[sel]])
    assert np.max(np.abs(state.u[sel] - ref)) < 5e-3  # O(dr^2) regime


def test_constant_forcing_grows_like_t():
    # frozen v = 1 history with g = 1: forcing = t on the support interior
    cfg = _config(mode="single", t_max=0.3)
    state = initial_state(cfg)
    m = 10
    hw = HistoryWeights(Constant(1.0), cfg.dt, m)
    forcing = hw.weights(m) @ np.ones(m + 1)
    assert forcing == pytest.approx(m * cfg.dt, rel=1e-12)


def test_energy_drift_linear():
    cfg = _config(dr=1.0 / 200.0, t_max=5.0, linear=True)
    state = initial_state(cfg)
    energies = []
    for _ in range(int(round(cfg.t_max / cfg.dt))):
        step(state, cfg)
        energies.append(discrete_energy(state, cfg))
    energies = np.asarray(energies)
    drift = np.max(np.abs(energies - energies[0])) / energies[0]
    assert drift < 0.005


def test_run_simulation_linear_reaches_tmax():
    cfg = _config(t_max=0.5, linear=True)
    res = run_simulation(cfg)
    assert res.trace.stop_trigger == "reached_tmax"
    assert res.trace.t_stop == pytest.approx(0.5, abs=cfg.dt)
    assert len(res.trace) > 10


@pytest.mark.parametrize("t_max, dr, n, steps", [
    (0.36, 0.02, 1, 20),  # 0.36 / 0.018 is 19.999999999999996
    (0.4, 0.02, 1, 22),
    (4.0, 0.0025, 2, 1777),  # 1777.8 steps; rounding took 1778, to t = 4.0005
])
def test_run_stops_at_the_last_step_before_t_max(t_max, dr, n, steps):
    cfg = _config(params=ProblemParams(n, 2.0, 2.0), t_max=t_max, dr=dr, linear=True)
    assert cfg.n_steps == steps
    assert cfg.n_steps * cfg.dt <= t_max * (1 + 1e-12) < (cfg.n_steps + 1) * cfg.dt
    if steps < 100:
        trace = run_simulation(cfg).trace
        assert len(trace) == steps + 1
        assert trace.t_stop == pytest.approx(steps * cfg.dt, rel=1e-12)


# trace end points recorded from the per-mode drivers that preceded the
# stepping loop every mode now shares; any change to the floating-point
# operations shows here
PINNED_RUNS = {
    "single_n3": (
        dict(params=ProblemParams(3, 2.0, 3.0), mode="single", cfl=0.5,
             kernels=(RiemannLiouville(0.5), RiemannLiouville(0.5))),
        21,
        (0.5000000000000001, 0.29368624421042644, 0.29368624421042644,
         2.488464849296245, 2.488464849296245, 0.026708245140007955,
         0.002782862567079033, 0.1331618413808649, 0.1331618413808649),
    ),
    "coupled_n2": (
        dict(params=ProblemParams(2, 2.0, 3.0), mode="coupled", record_every=3,
             kernels=(RiemannLiouville(0.5), Exponential(1.0)),
             v0=Profile("smoothed_indicator", 0.8, 1.0)),
        4,
        (0.40499999999999997, 0.41738442175175305, 1.6280064229804687,
         1.913177822325771, 8.037166164459306, 0.6117402983265022,
         0.023927265325577693, 0.32162163060759263, 0.8018211401995272),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_simulation_pinned_trace(name):
    kw, rows, last = PINNED_RUNS[name]
    cfg = _config(u1=Profile("cosine_bump", 0.5, 1.0), t_max=0.5, dr=0.05, **kw)
    trace = run_simulation(cfg).trace
    assert len(trace) == rows
    assert trace.stop_trigger == "reached_tmax"
    got = trace.rows[-1]
    assert got == pytest.approx(last, rel=1e-12)


def test_mgt_reference_pinned_end_point():
    # the RK4 third-order form, pinned where the solver ran it as mgt mode
    cfg = _config(params=ProblemParams(1, 2.0, 3.0), mode="mgt", kernels=(Exponential(1.0),) * 2,
                  u1=Profile("cosine_bump", 0.5, 1.0), t_max=0.5, dr=0.05)
    assert cfg.n_steps * cfg.dt == pytest.approx(0.495, rel=1e-12)
    assert np.max(np.abs(mgt_reference(cfg))) == 0.6252464746564075


def test_run_simulation_computes_eigenfunction_once(monkeypatch):
    calls = []
    phi = solver.observables.phi_eigenfunction

    def counted(n, r):
        calls.append(n)
        return phi(n, r)

    monkeypatch.setattr(solver.observables, "phi_eigenfunction", counted)
    kw, rows, _ = PINNED_RUNS["coupled_n2"]
    cfg = _config(u1=Profile("cosine_bump", 0.5, 1.0), t_max=0.5, dr=0.05, **kw)
    assert len(run_simulation(cfg).trace) == rows
    assert calls == [2]


MEMORY_RUN = dict(mode="coupled", kernels=(RiemannLiouville(0.5), Exponential(1.0)),
                  u0=Profile("gaussian", 2.0, 1.0), v0=Profile("gaussian", 1.0, 1.0),
                  v1=Profile("zero"), t_max=1.0)


def test_memory_run_keeps_light_cone_exact():
    # the clipped history product and the recursion must leave every cell
    # outside the cone exactly zero, in the fields and in the memory terms
    cfg = _config(**MEMORY_RUN)
    state = initial_state(cfg)
    for _ in range(cfg.n_steps):
        step(state, cfg)
        outside = state.r > cfg.R + state.t + 2 * cfg.dr
        assert np.any(outside)
        assert np.all(state.fields[:, outside] == 0.0)
        assert np.all(state.memory[:, outside] == 0.0)
    assert np.max(np.abs(state.memory)) > 0.0


# (mode, overrides) of the runs the cone step is checked against the full grid
# on: a full history, a mode tail and a recursion, the mgt layout and a free
# wave; the negative amplitudes put -0.0 outside their profiles' support
LOCKSTEP_RUNS = {
    "single": dict(kernels=(OscillatingPolynomial(0.3), Constant(1.0)),
                   u0=Profile("gaussian", -1.5, 1.0), u1=Profile("cosine_bump", 0.5, 0.6)),
    "coupled": dict(kernels=(RiemannLiouville(0.5), Exponential(1.0)),
                    v0=Profile("smoothed_indicator", -0.8, 0.8)),
    "mgt": dict(kernels=(Exponential(0.5), Constant(1.0))),
    "linear": dict(mode="coupled", linear=True, v0=Profile("gaussian", -0.5, 1.0)),
}


def _state_arrays(state):
    yield state.fields
    if state.memory is not None:
        yield state.memory
    yield from state.history
    yield from (f for f in state.modes if f is not None)


@pytest.mark.parametrize("run", sorted(LOCKSTEP_RUNS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cone_step_bitwise_equals_full_grid_step(n, run):
    # step runs each pass over the cells inside the light cone; the reference
    # makes whole rows and clamps them afterwards, from the profiles as they
    # come, so the fields, memory, history and modes must match byte for
    # byte, the sign of every zero included, past the first block of the tail
    cfg = _config(**{"mode": run, **LOCKSTEP_RUNS[run]}, params=ProblemParams(n, 2.0, 3.0),
                  t_max=3.6, dr=0.04)
    assert cfg.n_steps > solver.WINDOW + 2 * solver.BLOCK
    state = initial_state(cfg)
    ref = copy.deepcopy(state)
    ref.fields = np.stack((cfg.u0(state.r), cfg.v0(state.r))[: len(state.fields)])
    layouts = {h.shape[0] for h in state.history}
    assert layouts == {"single": {cfg.n_steps}, "coupled": {solver.WINDOW + solver.BLOCK, 1},
                       "mgt": {1}, "linear": set()}[run]
    for _ in range(cfg.n_steps):
        step(state, cfg)
        full_grid_step(ref, cfg)
        assert state.cut == ref.cut < state.r.size
        for got, want in zip(_state_arrays(state), _state_arrays(ref), strict=True):
            assert got.tobytes() == want.tobytes(), state.step
    assert np.all(np.isfinite(state.fields)) and np.max(np.abs(state.fields)) > 1e-3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cone_cut_never_reaches_the_dirichlet_cell(n):
    # the stencil reads cell c, and the last cell M holds the boundary value,
    # so c <= M at every step, on grids whose cone edge R + t_max falls on,
    # below or above a grid point
    for dr, t_max, radius in itertools.product((0.02, 0.025, 0.03, 1 / 30), (0.4, 0.45, 1.0),
                                               (0.5, 0.7, 1.0)):
        cfg = _config(params=ProblemParams(n, 2.0, 2.0), dr=dr, t_max=t_max, linear=True,
                      u0=Profile("gaussian", 1.0, radius))
        state = initial_state(cfg)
        M = state.r.size - 1
        assert state.cut <= M
        for _ in range(cfg.n_steps):
            step(state, cfg)
            assert state.cut <= M
        assert state.fields[0, M] == 0.0


def test_trace_rows_do_not_depend_on_earlier_rows():
    # a trace row reads its own step's state only: the rows of a run that
    # records every third step are rows 0, 3, 6, ... of one that records
    # every step, byte for byte
    cfg = _config(**MEMORY_RUN)
    every = run_simulation(cfg).trace.table()
    third = run_simulation(dataclasses.replace(cfg, record_every=3)).trace.table()
    assert len(third) == len(every[::3]) > 10
    assert third.tobytes() == every[::3].tobytes()


def _direct_update(cfg):
    """Oracle for the solver's memory update: every forced row stores its full
    history and convolves all of it over all cells with weights(m), as the
    solver did before the exponential recursion and the light-cone clip."""
    weights = [HistoryWeights(g, cfg.dt, cfg.n_steps) for g in cfg.kernels]
    history = np.zeros((2, cfg.n_steps, cfg.radii().size))

    def update(state):
        m = state.step
        for i, (src, power) in enumerate(state.forcing):
            history[i, m] = np.abs(state.fields[src]) ** power
            state.memory[i] = weights[i].weights(m) @ history[i, : m + 1]

    return update


def _run_against_direct(monkeypatch, cfg):
    """Step a memory run to t_max; at every step, the solver's memory terms
    and those of the ``_direct_update`` oracle on the same fields, which the
    solver's run then continues from.  Cells outside the light cone must stay
    exactly zero in the fields, the memory and the modes."""
    update, direct = solver._update_memory, _direct_update(cfg)
    got, want = [], []

    def record(state):
        update(state)
        got.append(state.memory.copy())
        direct(state)
        want.append(state.memory.copy())
        state.memory[...] = got[-1]

    monkeypatch.setattr(solver, "_update_memory", record)
    state = initial_state(cfg)
    for _ in range(cfg.n_steps):
        step(state, cfg)
        outside = state.r > cfg.R + state.t + 2 * cfg.dr
        assert np.any(outside)
        assert np.all(state.fields[:, outside] == 0.0)
        assert np.all(state.memory[:, outside] == 0.0)
        assert all(np.all(f[:, outside] == 0.0) for f in state.modes if f is not None)
    return state, np.array(got), np.array(want)


def test_initial_state_history_layouts():
    # one level for a recursion, window and modes for a fitted tail, the whole
    # history otherwise
    long_run = {**MEMORY_RUN, "t_max": 2.0, "mode": "single"}
    cfg = _config(**long_run)
    n_steps, cells = cfg.n_steps, cfg.radii().size
    for kernel, rows in ((Constant(0.7), 1), (Exponential(1.0), 1), (PolynomialShifted(0.0), 1),
                         (RiemannLiouville(0.5), solver.WINDOW + solver.BLOCK),
                         (PolynomialShifted(0.5), solver.WINDOW + solver.BLOCK),
                         (OscillatingPolynomial(0.3), n_steps)):
        state = initial_state(_config(**{**long_run, "kernels": (kernel, kernel)}))
        assert state.history[0].shape == (rows, cells), kernel
        fitted = rows == solver.WINDOW + solver.BLOCK
        assert (state.modes[0] is not None) == fitted, kernel
        if fitted:
            assert state.modes[0].shape == (state.weights[0].rates.size, cells)
    # a run inside the window needs no tail
    short = _config(**MEMORY_RUN)
    state = initial_state(short)
    assert state.modes == (None, None) and state.history[0].shape[0] == short.n_steps


def test_initial_state_makes_the_buffers_a_run_alternates():
    # the next level is written into the previous level's buffer, so the two
    # arrays initial_state makes trade places at every step, and the stencil
    # keeps its own
    cfg = _config(**MEMORY_RUN)
    state = initial_state(cfg)
    first, second, stencil = state.fields, state.prev, state.stencil
    assert first.shape == second.shape == stencil.shape
    assert second.tobytes() == np.zeros_like(first).tobytes()
    for k in range(1, cfg.n_steps + 1):
        step(state, cfg)
        now, before = (second, first) if k % 2 else (first, second)
        assert state.fields is now and state.prev is before and state.stencil is stencil


def test_rows_tabulate_their_lags_at_construction(monkeypatch):
    # each row's table covers the lags its layout uses once it is built, so
    # the steps of a run integrate no kernel moments
    long_run = {**MEMORY_RUN, "t_max": 2.0, "mode": "single"}
    for kernel in (Constant(0.7), Exponential(1.0), IteratedExponential(1, 2.0),
                   RiemannLiouville(0.5), OscillatingPolynomial(0.3)):
        cfg = _config(**{**long_run, "kernels": (kernel, kernel)})
        state = initial_state(cfg)
        (hw,) = state.weights
        assert hw._X.size - 1 >= hw.levels == state.history[0].shape[0], kernel
        calls = []
        moments = kernel.step_moments
        monkeypatch.setattr(kernel, "step_moments", lambda *a: calls.append(a) or moments(*a))
        for _ in range(cfg.n_steps):
            step(state, cfg)
        assert calls == [], kernel


@pytest.mark.parametrize("run", [{}, {"mode": "single",
                                      "kernels": (OscillatingPolynomial(0.3),) * 2}],
                         ids=["tail-and-recursion", "whole-history"])
def test_built_row_never_changes(monkeypatch, run):
    # a row tabulates every lag of its run when it is built: weights(m) for
    # any m <= n_steps, in any order, reads the tables and never replaces them
    cfg = _config(**{**MEMORY_RUN, "t_max": 2.0, **run})
    state = initial_state(cfg)
    assert cfg.n_steps >= solver.WINDOW + solver.BLOCK
    calls = []
    for kernel in set(cfg.kernels):
        moments = kernel.step_moments
        monkeypatch.setattr(kernel, "step_moments",
                            lambda *a, moments=moments: calls.append(a) or moments(*a))
    tables = [(hw._X, hw._Y, hw._lag) for hw in state.weights]
    before = [[t.tobytes() for t in row] for row in tables]
    order = np.random.default_rng(0).permutation(cfg.n_steps + 1)
    for hw in state.weights:
        for m in order:
            assert hw.weights(int(m)).size == m + 1
    assert calls == []
    for hw, row, data in zip(state.weights, tables, before):
        assert all(a is b for a, b in zip((hw._X, hw._Y, hw._lag), row))
        assert [t.tobytes() for t in row] == data


@pytest.mark.parametrize("kernel", [RiemannLiouville(0.5), RiemannLiouville(0.05),
                                    PolynomialShifted(0.7)],
                         ids=lambda k: f"{type(k).__name__}{k.gamma}")
def test_mode_tail_matches_direct_convolution(monkeypatch, kernel):
    # past WINDOW + BLOCK steps the old lags come from the fitted modes; every
    # step's memory must still match the full product cell by cell
    cfg = _config(**{**MEMORY_RUN, "kernels": (kernel, Exponential(1.0)), "t_max": 5.0,
                     "u0": Profile("gaussian", 1.0, 1.0), "v0": Profile("gaussian", 0.5, 1.0)})
    assert cfg.n_steps >= 4 * (solver.WINDOW + solver.BLOCK)
    state, got, want = _run_against_direct(monkeypatch, cfg)
    assert state.modes[0] is not None and np.max(state.modes[0]) > 0.0
    assert state.history[0].shape[0] == solver.WINDOW + solver.BLOCK
    assert np.all(np.isfinite(state.fields)) and np.max(want[-1, 0]) > 0.0
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_fit_that_misses_its_bound_keeps_the_whole_history(monkeypatch):
    # an unreachable tolerance: the row warns and runs the direct product
    monkeypatch.setattr(kernels, "SOE_TOLERANCE", 1e-300)
    cfg = _config(**{**MEMORY_RUN, "t_max": 2.0})
    with pytest.warns(RuntimeWarning, match="whole history"):
        state, got, want = _run_against_direct(monkeypatch, cfg)
    assert state.modes == (None, None)
    assert state.history[0].shape == (cfg.n_steps, cfg.radii().size)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kernel", [RiemannLiouville(0.5), RiemannLiouville(0.05),
                                    PolynomialShifted(0.7)],
                         ids=lambda k: f"{type(k).__name__}{k.gamma}")
def test_mode_tail_block_matches_mpmath(kernel):
    # sample j + i enters F(j + BLOCK) through the intervals on either side of
    # it: dt times ∫_0^1 x e^(-z x) dx and ∫_0^1 (1 - x) e^(-z x) dx, z = s dt,
    # each decayed to the block's end
    mpmath = pytest.importorskip("mpmath")
    dt = 0.00225
    hw = HistoryWeights(kernel, dt, 2666)  # simulate-blowup's time step and horizon
    assert np.max(hw.rates) * dt < 2.7
    B = solver.BLOCK
    with mpmath.workdps(40):
        h = mpmath.mpf(dt)
        for s, row in zip(hw.rates, hw._block):
            s = mpmath.mpf(float(s))
            z, e = s * h, mpmath.exp(-s * h)
            left, right = (1 - (1 + z) * e) / z**2, (z - 1 + e) / z**2
            for i, got in enumerate(row):
                want = 0
                if i < B:
                    want += h * left * mpmath.exp(-s * (B - 1 - i) * h)
                if i > 0:
                    want += h * right * mpmath.exp(-s * (B - i) * h)
                assert got == pytest.approx(float(want), rel=1e-13, abs=0.0), i


def test_polynomial_shifted_zero_is_the_constant_kernel():
    # (1 + t)^0 is the constant kernel 1: the same recursion, bit for bit
    cfgs = [_config(**{**MEMORY_RUN, "kernels": (k, k)})
            for k in (PolynomialShifted(0.0), Constant(1.0))]
    states = [initial_state(cfg) for cfg in cfgs]
    assert all(s.weights[0].decay == 1.0 and s.history[0].shape[0] == 1 for s in states)
    for _ in range(cfgs[0].n_steps):
        a, b = (step(state, cfg) for state, cfg in zip(states, cfgs))
        assert np.array_equal(a.memory, b.memory) and np.array_equal(a.fields, b.fields)
    assert np.max(a.memory) > 0.0


def test_memory_run_matches_direct_convolution(monkeypatch):
    # the memory terms that drive each step must agree cell by cell, and the
    # traces to rounding
    cfg = _config(**MEMORY_RUN)
    runs = []
    for update in (solver._update_memory, _direct_update(cfg)):
        memory = []

        def record(state, update=update, memory=memory):
            update(state)
            memory.append(state.memory.copy())

        monkeypatch.setattr(solver, "_update_memory", record)
        runs.append((run_simulation(cfg).trace, np.array(memory)))
    (trace, memory), (want, want_memory) = runs
    assert memory.shape == (cfg.n_steps, 2, cfg.radii().size)
    np.testing.assert_allclose(memory, want_memory, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(trace.table(), want.table(), rtol=1e-12, atol=0.0)


def test_nonfinite_field_stops_the_run(monkeypatch):
    # a NaN in the forcing of step 5 reaches the fields that step makes; the
    # run stops there, before it records them
    update = solver._update_memory

    def poisoned(state):
        update(state)
        if state.step == 5:
            state.memory[0, 0] = np.nan

    monkeypatch.setattr(solver, "_update_memory", poisoned)
    cfg = _config(t_max=0.5)
    trace = run_simulation(cfg).trace
    assert trace.stop_trigger == "nonfinite"
    assert trace.t_stop == pytest.approx(6 * cfg.dt, rel=1e-12)
    assert len(trace) == 6 and np.all(np.isfinite(trace.column("maxnorm_u")))


# (a, b, t_max) of the runs the scaling test maps onto their images, by mode
_SCALING = {"single": (2.5, 2.5, 4.0), "coupled": (1.7, 2.1, 3.0)}


@pytest.mark.parametrize("mode", ["single", "coupled"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_scaling_covariance(n, mode):
    # if (u, v) solves the system, so does (l^a u(l t, l r), l^b v(l t, l r)):
    # a power-law kernel stays, Exponential(beta) becomes Exponential(beta / l),
    # and a + 2 = p b + gamma1 - 1, b + 2 = q a - 1 (g2 exponential), or
    # a = (3 - gamma) / (p - 1) for the single equation.  At l = 2, dr, dt, r,
    # t, R and the cone cut scale exactly in binary and the step count stays,
    # so the scheme maps onto itself up to rounding: a metamorphic test (Chen
    # et al., ACM Computing Surveys 51, 2018).  Every profile radius halves,
    # since R is the largest of them.  The 166-250 steps run the mode tail.
    lam = 2.0
    a, b, t_max = _SCALING[mode]
    params = ProblemParams(n, 2.0, 2.0 if mode == "single" else 3.0)

    def run(s, beta):
        R = 1.0 / s
        cfg = SystemConfig(params, (RiemannLiouville(0.5), Exponential(beta)),
                           u0=Profile("gaussian", s**a, R), u1=Profile("zero", 0.0, R),
                           v0=Profile("gaussian", 0.5 * s**b, R), v1=Profile("zero", 0.0, R),
                           t_max=t_max / s, dr=0.02 / s, mode=mode)
        trace = run_simulation(cfg).trace
        assert trace.stop_trigger == "reached_tmax"
        return trace

    base, image = run(1.0, 1.0), run(lam, 1.0 / lam)
    assert len(image) == len(base) >= 166
    # single mode records u in the v columns, and b = a there
    powers = {"t": -1.0, "U": a - n, "V": b - n, "Lp_v": b * params.p - n,
              "Lq_u": a * params.q - n, "maxnorm_u": a, "maxnorm_v": b}
    for name, k in powers.items():
        np.testing.assert_allclose(image.column(name), lam**k * base.column(name),
                                   rtol=1e-12, atol=0.0, err_msg=name)


def test_run_simulation_snapshot_capture():
    cfg = _config(t_max=0.5, snapshot_times=(0.25,))
    res = run_simulation(cfg)
    assert len(res.snapshots) == 1
    (t, fields), = res.snapshots.values()
    assert fields.shape == (1, cfg.radii().size)
    assert t == pytest.approx(0.25, abs=cfg.dt / 2)


# ---------------------------------------------------------------------------
# d'Alembert oracle
# ---------------------------------------------------------------------------


def test_dalembert_velocity_indicator():
    u1 = lambda x: np.where(np.abs(np.asarray(x, dtype=float)) <= 1.0, 1.0, 0.0)
    val = dalembert_reference(lambda x: 0.0 * np.asarray(x), u1, None, 0.5, 0.0,
                              resolution=1e-4)
    assert val == pytest.approx(0.5, abs=1e-3)


def test_dalembert_source_cone_area():
    val = dalembert_reference(lambda x: 0.0 * np.asarray(x),
                              lambda x: 0.0 * np.asarray(x),
                              lambda t, x: 1.0, 1.0, 0.0, resolution=1e-3)
    assert val == pytest.approx(0.5, rel=1e-6)  # half the unit cone area


def test_dalembert_splitting():
    prof = Profile("gaussian", 1.0, 1.0)
    u0 = lambda x: prof(np.abs(np.asarray(x, dtype=float)))
    t = 3.0
    val = dalembert_reference(u0, lambda x: 0.0 * np.asarray(x), None, t, 3.0)
    assert val == pytest.approx(0.5 * float(u0(np.array(0.0))), rel=1e-10)


# ---------------------------------------------------------------------------
# fixed-point iteration
# ---------------------------------------------------------------------------


def test_picard_zero_data_fixed_point():
    cfg = _config(mode="coupled", u0=Profile("zero"), u1=Profile("zero"),
                  v0=Profile("zero"), v1=Profile("zero"))
    d = picard_iterate(cfg, 0.25, 3, dx=0.05)
    assert all(x == 0.0 for x in d)


def test_picard_contracts():
    cfg = _config(mode="coupled", dr=0.02,
                  kernels=(RiemannLiouville(0.5), Exponential(1.0)),
                  v0=Profile("gaussian", 1.0, 1.0), v1=Profile("zero"))
    d = picard_iterate(cfg, 0.25, 3, dx=0.025)
    assert d[1] < d[0] and d[2] < d[1]


def test_picard_rejects_higher_dimension():
    cfg = _config(params=ProblemParams(2, 2.0, 2.0))
    with pytest.raises(UnsupportedError):
        picard_iterate(cfg, 0.25, 2)


def test_picard_rejects_long_window():
    with pytest.raises(ConfigError):
        picard_iterate(_config(mode="coupled"), 0.75, 2)


# ---------------------------------------------------------------------------
# mgt mode: the third-order (MGT) form of the exponential-kernel equation
# ---------------------------------------------------------------------------


def test_mgt_requires_exponential_kernel():
    with pytest.raises(ConfigError):
        _config(mode="mgt", kernels=(Constant(1.0), Constant(1.0)))


def test_mgt_zero_data_stays_zero():
    cfg = _config(mode="mgt", kernels=(Exponential(1.0), Exponential(1.0)),
                  u0=Profile("zero"), u1=Profile("zero"), t_max=0.5)
    state = initial_state(cfg)
    for _ in range(10):
        step(state, cfg)
    assert np.all(state.u == 0.0)


@pytest.mark.parametrize("linear", [False, True], ids=["nonlinear", "linear"])
@pytest.mark.parametrize("dr", [0.02, 0.01, 0.005])
def test_mgt_mode_is_single_mode(dr, linear):
    # with u_tt(0) = lap u0 the MGT equation is the single equation with
    # g1 = exp(-t / beta), and both modes run it through one scheme; on this
    # C1 cosine bump the third-order RK4 scheme once stayed 3.3e-3 to 3.8e-3
    # away from single mode at every dr
    common = dict(kernels=(Exponential(1.0),) * 2, u0=Profile("cosine_bump", 0.5, 1.0),
                  u1=Profile("zero"), t_max=2.0, dr=dr, linear=linear)
    single = run_simulation(_config(mode="single", **common)).trace
    mgt = run_simulation(_config(mode="mgt", **common)).trace
    assert mgt.stop_trigger == single.stop_trigger == "reached_tmax"
    assert np.array_equal(mgt.table(), single.table())


def _mgt_single_orders(linear):
    """Observed orders of the final max|u| gap between single mode with an
    exponential kernel and the RK4 third-order reference, for an n = 2
    Gaussian at dr = 0.02, 0.01 and 0.005."""
    gaps = []
    for dr in (0.02, 0.01, 0.005):
        cfg = _config(mode="single", params=ProblemParams(2, 2.0, 2.0),
                      kernels=(Exponential(1.0),) * 2, u0=Profile("gaussian", 0.5, 1.0),
                      u1=Profile("zero"), t_max=2.0, dr=dr, linear=linear)
        single = run_simulation(cfg).trace
        assert single.stop_trigger == "reached_tmax"
        gaps.append(abs(single.column("maxnorm_u")[-1] - np.max(np.abs(mgt_reference(cfg)))))
    return gaps, np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))


def test_mgt_matches_single_mode_at_second_order():
    # single mode with an exponential kernel (its recursion) and the RK4
    # reference on the third-order form solve one equation through code they
    # do not share; their gap must fall at the scheme's second order.  In
    # n = 1 the leading error terms of the two nearly cancel, and the gap
    # falls faster
    gaps, orders = _mgt_single_orders(linear=False)
    assert np.all((1.8 <= orders) & (orders <= 2.2)), (gaps, orders)


def test_linear_mgt_matches_linear_single_mode_at_second_order():
    # without the nonlinearity both schemes solve the same free wave: the
    # third-order form reduces to (d/dt + 1/beta)(u_tt - lap u) = 0 with
    # u_tt(0) = lap u0
    gaps, orders = _mgt_single_orders(linear=True)
    assert np.all((1.8 <= orders) & (orders <= 2.2)), (gaps, orders)


def test_mgt_linear_drops_the_nonlinearity():
    common = dict(mode="mgt", kernels=(Exponential(1.0),) * 2,
                  u0=Profile("cosine_bump", 0.5, 1.0), u1=Profile("zero"), t_max=2.0, dr=0.02)
    nonlinear = run_simulation(_config(**common)).trace.column("maxnorm_u")[-1]
    linear = run_simulation(_config(linear=True, **common)).trace.column("maxnorm_u")[-1]
    assert abs(nonlinear - linear) > 1e-3, (nonlinear, linear)


def test_mgt_run_keeps_snapshots():
    cfg = _config(mode="mgt", kernels=(Exponential(1.0), Exponential(1.0)),
                  t_max=0.5, snapshot_times=(0.25,))
    res = run_simulation(cfg)
    (_, fields), = res.snapshots.values()
    assert fields.shape == (1, cfg.radii().size)
    assert np.max(np.abs(fields)) > 0.0


def test_conv_derivative_identity_zero():
    t = np.arange(0.0, 1.0, 1e-3)
    assert conv_derivative_identity(Exponential(1.0), np.zeros_like(t), t) == 0.0


def test_conv_derivative_identity_constant():
    t = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    resid = conv_derivative_identity(Exponential(1.0), np.ones_like(t), t)
    assert resid < 1e-4


def test_conv_derivative_identity_linear():
    t = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    resid = conv_derivative_identity(Exponential(2.0), t.copy(), t)
    assert resid < 1e-4


def test_conv_derivative_identity_rejects_other_kernels():
    t = np.arange(0.0, 1.0, 1e-2)
    with pytest.raises(ConfigError):
        conv_derivative_identity(Constant(1.0), np.ones_like(t), t)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_cfl():
    with pytest.raises(ConfigError):
        _config(cfl=1.5)


def _laplacian_matrix(n, cells):
    """dr^2 times the matrix of ``solver._laplacian`` on a grid of cells + 1
    points; column j is the image of the j-th unit vector."""
    dr = 1.0 / cells
    r = dr * np.arange(cells + 1)
    return dr**2 * solver._laplacian(np.eye(cells + 1), r, dr, n).T


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cfl_bound_is_the_leapfrog_stability_limit(n):
    # leapfrog on u'' = L u is stable iff dt^2 rho(L) < 4, that is
    # cfl < 2 / sqrt(rho(dr^2 L)); the rows at the origin set rho in n = 2
    # and 3 on every grid, and in n = 1 rho tends to 4 from below
    bound = solver.CFL_BOUNDS[n]
    for cells in (50, 400):
        eig = np.linalg.eigvals(_laplacian_matrix(n, cells))
        limit = 2.0 / math.sqrt(np.max(np.abs(eig)))
        assert limit >= bound * (1.0 - 1e-14)
        assert limit == pytest.approx(bound, rel=2e-4 if n == 1 else 1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_default_cfl_lies_below_the_bound(n):
    # n = 1 and 2 keep 0.9, so configs without cfl keep their time step
    cfg = _config(params=ProblemParams(n, 2.0, 2.0))
    assert cfg.cfl == solver.DEFAULT_CFL[n] == (0.8 if n == 3 else 0.9)
    assert cfg.cfl < solver.CFL_BOUNDS[n]


def test_cone_cut_is_the_suffix_outside_the_cone():
    # dr = 0.25, R = 1 and t = 1 put the cone edge R + t + halo on a grid
    # point, which stays inside
    cfg = _config(dr=0.25, t_max=2.0)
    r = cfg.radii()
    for t in (0.0, 0.1, 1.0, 1.3, 2.0):
        c = solver._cone_cut(r, t, cfg)
        edge = cfg.R + t + solver.SUPPORT_HALO * cfg.dr
        assert np.all(r[:c] <= edge) and np.all(r[c:] > edge)
    assert r[solver._cone_cut(r, 1.0, cfg) - 1] == 2.5


def test_free_3d_wave_at_cfl_above_the_bound_is_rejected():
    # a free 3-d Gaussian at cfl 0.9 grew at the origin rows until it stopped
    # on maxnorm at t = 0.288 and was reported as blow-up; below the bound
    # the same wave reaches t_max
    common = dict(params=ProblemParams(3, 2.0, 2.0), dr=0.01, t_max=2.0, linear=True)
    with pytest.raises(ConfigError) as exc:
        _config(cfl=0.9, **common)
    assert exc.value.param == "cfl"
    trace = run_simulation(_config(cfl=0.81, **common)).trace
    assert trace.stop_trigger == "reached_tmax"


def test_config_rejects_bad_mode():
    with pytest.raises(ConfigError):
        _config(mode="implicit")


@pytest.mark.parametrize("kw, param", [
    (dict(record_every=0), "record_every"),
    (dict(params=ProblemParams(4, 2.0, 2.0)), "n"),
    (dict(t_max=0.5, snapshot_times=(0.9,)), "snapshot_times"),
    (dict(snapshot_times=(0.0,)), "snapshot_times"),
    (dict(params=ProblemParams(2, 2.0, 2.0), cfl=0.91), "cfl"),
    # data already at the threshold would stop the first step as a blow-up
    (dict(maxnorm_threshold=0.0), "maxnorm_threshold"),
    (dict(maxnorm_threshold=float(Profile("gaussian", 1.0, 1.0)(0.0))), "maxnorm_threshold"),
    (dict(mode="coupled", v0=Profile("cosine_bump", -3.0, 1.0), maxnorm_threshold=2.0),
     "maxnorm_threshold"),
], ids=["record_every_0", "n_4", "snapshot_after_t_max", "snapshot_at_0", "cfl_above_n2_bound",
        "threshold_0", "threshold_at_u0_peak", "threshold_below_v0_peak"])
def test_config_rejects_value_the_solver_cannot_run(kw, param):
    with pytest.raises(ConfigError) as exc:
        _config(**kw)
    assert exc.value.param == param


def test_cone_radius_is_scanned_once_per_run(monkeypatch):
    # the light cone reads R at every step; the scan of the profiles behind
    # it runs once per config, however many steps the run takes
    scan, scans = SystemConfig.R.func, []

    def counted(config):
        scans.append(config.t_max)
        return scan(config)

    radius = functools.cached_property(counted)
    radius.__set_name__(SystemConfig, "R")
    monkeypatch.setattr(SystemConfig, "R", radius)
    for t_max in (0.4, 1.6):
        cfg = _config(**{**MEMORY_RUN, "t_max": t_max})
        assert len(run_simulation(cfg).trace) == cfg.n_steps + 1
    assert scans == [0.4, 1.6]


def test_config_grid_covers_light_cone():
    cfg = _config(t_max=2.0, dr=0.05)
    assert cfg.n_cells * cfg.dr >= cfg.R + cfg.t_max + 2 * cfg.dr


def test_zero_profile_does_not_widen_grid():
    # the grid spans the nonzero profiles only: the zero u1 (radius 1.0 by
    # default) and the absent v0, v1 leave R at u0's 0.5
    cfg = _config(u0=Profile("gaussian", 1.0, 0.5), u1=Profile("zero"), t_max=0.4, dr=0.02)
    assert cfg.R == 0.5
    assert cfg.n_cells == 48
