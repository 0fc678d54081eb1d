"""Functionals, identity checks, lower bounds, and blow-up detection."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from memwave.errors import InsufficientDataError, UnsupportedError
from memwave.exponents import ProblemParams
from memwave.kernels import Constant, Exponential, RiemannLiouville
from memwave.observables import (
    TRACE_COLUMNS,
    FunctionalTrace,
    compute_functionals,
    detect_blowup,
    phi_eigenfunction,
    sphere_area,
    trace_weights,
)
from memwave.solver import Profile, SystemConfig, run_simulation
from oracles import (_cumulative_trapezoid, check_iteration_frame, check_u0_lower_bound,
                     check_u_doubleprime_identity, initial_weighted_integrals, radial_integral,
                     trace_dt)

PARAMS = ProblemParams(1, 2.0, 2.0)


def _coupled_config(**kw):
    defaults = dict(
        params=PARAMS,
        kernels=(RiemannLiouville(0.5), Exponential(1.0)),
        u0=Profile("gaussian", 1.0, 1.0),
        u1=Profile("zero"),
        v0=Profile("gaussian", 0.5, 1.0),
        v1=Profile("zero"),
        t_max=1.5,
        dr=0.02,
        mode="coupled",
    )
    defaults.update(kw)
    return SystemConfig(**defaults)


def test_phi_values():
    assert phi_eigenfunction(1, 0.0) == 2.0
    assert phi_eigenfunction(3, 0.0) == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert phi_eigenfunction(1, 1.0) == pytest.approx(math.e + 1.0 / math.e, rel=1e-14)


def test_phi_circle_mean_oracle():
    # oracle: direct quadrature of the circle mean of e^{x.w} at |x| = 1
    want, _ = integrate.quad(lambda th: math.exp(math.cos(th)), 0.0, 2.0 * math.pi,
                             epsabs=1e-13)
    assert phi_eigenfunction(2, 1.0) == pytest.approx(want, rel=1e-11)
    assert phi_eigenfunction(2, 1.0) == pytest.approx(2.0 * math.pi * 1.2660658778,
                                                      rel=1e-9)


def test_phi_circle_mean_matches_mpmath_bessel():
    # n = 2 is 2 pi I0(r); a truncated power series was off by 1.9e-14
    mpmath = pytest.importorskip("mpmath")
    r = 0.0025 * np.arange(2001)
    want = np.array([float(2 * mpmath.pi * mpmath.besseli(0, x)) for x in r])
    assert np.max(np.abs(phi_eigenfunction(2, r) / want - 1.0)) <= 1e-15


def test_phi_sphere_mean_oracle():
    # n = 3: the sphere mean of e^{x.w} is 4 pi sinh(r)/r
    r = 0.7
    want, _ = integrate.quad(
        lambda th: math.exp(r * math.cos(th)) * math.sin(th) * 2.0 * math.pi, 0.0, math.pi
    )
    assert phi_eigenfunction(3, r) == pytest.approx(want, rel=1e-10)


def test_phi_rejects_unsupported_dimension():
    with pytest.raises(UnsupportedError):
        phi_eigenfunction(4, 1.0)
    with pytest.raises(UnsupportedError):
        sphere_area(5)


def test_radial_integral_ball_volume():
    r = np.linspace(0.0, 1.0, 4001)
    vol = trace_weights(3, r)[0].sum()
    assert vol == pytest.approx(4.0 * math.pi / 3.0, rel=1e-6)
    assert radial_integral(3, r, np.ones_like(r)) == pytest.approx(vol, rel=1e-14)


def _state(r, u, v, t):
    """A solver state's duck type, with the whole grid inside the cone."""
    return SimpleNamespace(r=r, fields=np.stack((u, v)), t=t, cut=r.size)


def test_compute_functionals_zero_state():
    cfg = _coupled_config(u0=Profile("zero"), u1=Profile("zero"),
                          v0=Profile("zero"), v1=Profile("zero"))
    r = cfg.radii()
    S = _state(r, np.zeros_like(r), np.zeros_like(r), 0.3)
    row = compute_functionals(S, cfg, trace_weights(1, S.r))
    assert row == (0.3,) + (0.0,) * 8


def test_u0_at_time_zero_is_phi_weighted_data():
    cfg = _coupled_config()
    r = cfg.radii()
    S = _state(r, cfg.u0(r), cfg.v0(r), 0.0)
    row = dict(zip(TRACE_COLUMNS, compute_functionals(S, cfg, trace_weights(1, S.r))))
    i0, _ = initial_weighted_integrals(cfg)
    assert row["U0"] == pytest.approx(i0, rel=1e-12)


def test_psi_factorization():
    # U0 must equal e^{-t} times the Phi-weighted integral, by definition
    cfg = _coupled_config()
    r = cfg.radii()
    S = _state(r, cfg.u0(r), cfg.v0(r), 0.8)
    u = S.fields[0]
    row = dict(zip(TRACE_COLUMNS, compute_functionals(S, cfg, trace_weights(1, S.r))))
    phi_weighted = radial_integral(1, S.r, u * phi_eigenfunction(1, S.r))
    assert row["U0"] == pytest.approx(math.exp(-0.8) * phi_weighted, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_functionals_bitwise_equal_numpy_trapezoid(n):
    # the one-integral reference must reproduce np.trapezoid exactly; a trace
    # row sums each integrand against the grid's weights in one pass, which
    # adds the same terms in another order, so it may differ from the
    # reference by rounding only, on the whole grid and on a cone inside it
    rng = np.random.default_rng(n)
    r = np.linspace(0.0, 3.0, 301)
    p, q = 2.5, 1.7
    config = SimpleNamespace(params=ProblemParams(n, p, q))
    for cut in (r.size, 200):
        u, v = rng.standard_normal((2, r.size))
        u[cut:] = v[cut:] = 0.0
        state = SimpleNamespace(fields=np.stack((u, v)), t=0.37, cut=cut)
        psi = math.exp(-state.t) * phi_eigenfunction(n, r)
        integrands = {"U": u, "V": v, "U0": u * psi, "V0": v * psi,
                      "Lp_v": np.abs(v) ** p, "Lq_u": np.abs(u) ** q}
        row = dict(zip(TRACE_COLUMNS, compute_functionals(state, config, trace_weights(n, r))))
        for name, f in integrands.items():
            want = sphere_area(n) * float(np.trapezoid(f * r ** (n - 1), r))
            assert radial_integral(n, r, f) == want, name
            assert abs(row[name] - want) <= 1e-14 * radial_integral(n, r, np.abs(f)), name


def test_cumulative_trapezoid_bitwise_equals_scipy():
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.01, 0.3, 200))  # non-uniform spacing
    y = np.sin(3.0 * x) + rng.standard_normal(x.size)
    got = _cumulative_trapezoid(y, x)
    want = integrate.cumulative_trapezoid(y, x, initial=0.0)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_trace_append_and_columns():
    trace = FunctionalTrace()
    for t in (0.0, 0.1, 0.2):
        trace.rows.append((t,) * len(TRACE_COLUMNS))
    assert len(trace) == 3
    assert trace.table().shape == (3, len(TRACE_COLUMNS))
    assert trace_dt(trace) == pytest.approx(0.1)
    assert np.array_equal(trace.column("U"), [0.0, 0.1, 0.2])


def test_doubleprime_identity_requires_samples():
    trace = FunctionalTrace()
    with pytest.raises(InsufficientDataError):
        check_u_doubleprime_identity(trace, Constant(1.0), 2.0)


def test_doubleprime_identity_on_run():
    cfg = _coupled_config()
    res = run_simulation(cfg)
    resid = check_u_doubleprime_identity(res.trace, cfg.kernels[0], cfg.params.p)
    assert resid < 0.05


def test_doubleprime_identity_zero_when_linear():
    # forcing off and v identically zero: both U'' and the convolution side
    # vanish, so the returned absolute residual is pure discretization noise
    cfg = _coupled_config(linear=True, v0=Profile("zero"), v1=Profile("zero"))
    res = run_simulation(cfg)
    resid = check_u_doubleprime_identity(res.trace, cfg.kernels[0], cfg.params.p)
    assert resid < 1e-6


def test_u0_lower_bound_holds():
    cfg = _coupled_config()
    res = run_simulation(cfg)
    ok, margin = check_u0_lower_bound(res.trace, cfg)
    assert ok


def test_u0_lower_bound_velocity_data():
    cfg = _coupled_config(u0=Profile("zero"), u1=Profile("gaussian", 1.0, 1.0))
    res = run_simulation(cfg)
    ok, _ = check_u0_lower_bound(res.trace, cfg)
    assert ok


def test_iteration_frame_holds():
    cfg = _coupled_config()
    res = run_simulation(cfg)
    ok, margin = check_iteration_frame(res.trace, cfg)
    assert ok
    assert margin >= -1e-9


def test_detect_blowup_linear_run():
    cfg = _coupled_config(linear=True)
    res = run_simulation(cfg)
    verdict = detect_blowup(res.trace, cfg)
    assert not verdict.blew_up
    assert verdict.trigger == "reached_tmax"
    assert verdict.T_estimate is None


def test_detect_blowup_single_constant_kernel():
    cfg = SystemConfig(
        params=PARAMS,
        kernels=(Constant(1.0), Constant(1.0)),
        u0=Profile("cosine_bump", 10.0, 1.0),
        u1=Profile("zero"),
        t_max=20.0,
        dr=0.02,
        mode="single",
    )
    res = run_simulation(cfg)
    verdict = detect_blowup(res.trace, cfg, rate_exponent=(PARAMS.p - 1.0) / 3.0,
                            growth_decades=2.0)
    assert verdict.blew_up
    assert verdict.trigger == "maxnorm"
    assert verdict.t_stop < 20.0
    assert verdict.T_estimate is not None and verdict.fit_r2 > 0.99
    assert verdict.ci_low <= verdict.T_estimate <= verdict.ci_high


def test_overflow_before_threshold_stops_without_warning():
    # |v|^p overflows in the trace row before the peak passes a threshold this
    # high; pytest turns the RuntimeWarning NumPy would print into an error
    cfg = SystemConfig(
        params=PARAMS,
        kernels=(Constant(1.0), Constant(1.0)),
        u0=Profile("cosine_bump", 10.0, 1.0),
        u1=Profile("zero"),
        t_max=6.0,
        dr=0.02,
        mode="single",
        maxnorm_threshold=1e308,
    )
    res = run_simulation(cfg)
    verdict = detect_blowup(res.trace, cfg)
    assert (verdict.blew_up, verdict.trigger) == (True, "nonfinite")
    assert verdict.t_stop == pytest.approx(3.006, abs=0.01)


@pytest.mark.parametrize("maxnorm, decades, T_estimate, fit_r2", [
    ([1, 2, np.nan, np.inf, 0.0, 4, 8, 16, 32, 64], 1.0, None, None),
    ([1, 2, np.nan, np.inf, 3.0, 4, 8, 16, 32, 64], 1.0, None, 0.92),
    # only the peak is within 0.1 decades of it: fit the last four, 1/maxnorm = 9.5 - t
    ([0.1] * 6 + [1 / 3.5, 1 / 2.5, 1 / 1.5, 2.0], 0.1, 9.5, 1.0),
    (list(range(10, 0, -1)), 1.0, None, None),
], ids=["seven-finite-samples", "eight-samples-poor-fit", "last-four-window", "falling-maxnorm"])
def test_detect_blowup_fit_exits(maxnorm, decades, T_estimate, fit_r2):
    rows = [(float(k), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, float(m), 0.0) for k, m in enumerate(maxnorm)]
    trace = FunctionalTrace(rows, stop_trigger="maxnorm", t_stop=9.0)
    verdict = detect_blowup(trace, SimpleNamespace(params=PARAMS), growth_decades=decades)
    for got, want in ((verdict.T_estimate, T_estimate), (verdict.fit_r2, fit_r2)):
        assert got == (None if want is None else pytest.approx(want, rel=1e-12))


_RISE = [1.0, 2.0, 4.0, 8.0, 16.0]


@pytest.mark.parametrize("U, maxnorm_u, maxnorm_v, blew_up", [
    (_RISE, _RISE, [0.0] * 5, True),
    (_RISE, _RISE[::-1], [0.0] * 5, False),
    (_RISE[::-1], _RISE, [0.0] * 5, False),
    # the peak is max(maxnorm_u, maxnorm_v): 5, 4, 4, 8, 16
    (_RISE, [5.0, 4.0, 3.0, 2.0, 1.0], _RISE, True),
    # rows with a non-finite U or peak are skipped, and four must be left
    ([1.0, 2.0, 4.0, 8.0, math.inf], _RISE, [0.0] * 5, True),
    ([1.0, 2.0, 4.0, math.nan, math.inf], _RISE, [0.0] * 5, False),
], ids=["growing", "peak-falls", "U-falls", "v-holds-the-peak", "last-row-overflows",
        "three-finite-rows"])
def test_detect_blowup_nonfinite_stop(U, maxnorm_u, maxnorm_v, blew_up):
    # a non-finite stop is blow-up only while U and the peak grow
    rows = [(float(k), U[k], 0.0, 0.0, 0.0, 0.0, 0.0, maxnorm_u[k], maxnorm_v[k])
            for k in range(5)]
    trace = FunctionalTrace(rows, stop_trigger="nonfinite", t_stop=5.0)
    verdict = detect_blowup(trace, SimpleNamespace(params=PARAMS))
    assert (verdict.blew_up, verdict.trigger) == (blew_up, "nonfinite")


def test_monotone_growth_after_minimum():
    # nonnegative-data blow-up run: U is nondecreasing past its first minimum
    cfg = SystemConfig(
        params=PARAMS,
        kernels=(Constant(1.0), Constant(1.0)),
        u0=Profile("cosine_bump", 10.0, 1.0),
        u1=Profile("zero"),
        t_max=20.0,
        dr=0.02,
        mode="single",
    )
    res = run_simulation(cfg)
    U = res.trace.column("U")
    i_min = int(np.argmin(U))
    assert np.all(np.diff(U[i_min:]) >= -1e-9 * (1.0 + np.abs(U[i_min:-1])))
