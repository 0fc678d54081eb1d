"""Critical exponents, critical curves, log-iterate, condition checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave.errors import ConfigError, DomainError, UnsupportedError
from memwave.exponents import (
    Branch,
    ProblemParams,
    alpha_w,
    alpha_wm,
    check_condition_fast,
    check_condition_slow,
    default_condition_times,
    experimental_mixed_condition,
    generalized_strauss,
    log_iterate,
    region_from_grids,
    strauss_exponent,
    sweep_region,
)
from memwave.kernels import Constant, Exponential, RiemannLiouville


def test_strauss_one_dimension_infinite():
    assert strauss_exponent(1) == math.inf


def test_strauss_known_values():
    # oracle: quadratic formula by hand
    assert strauss_exponent(3) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-14)
    assert strauss_exponent(2) == pytest.approx((3.0 + math.sqrt(17.0)) / 2.0, rel=1e-14)
    assert strauss_exponent(3) == pytest.approx(2.4142135624, abs=1e-9)
    assert strauss_exponent(2) == pytest.approx(3.5615528128, abs=1e-9)


@pytest.mark.parametrize("n", range(2, 10))
def test_strauss_root_residual(n):
    p = strauss_exponent(n)
    assert abs((n - 1) * p * p - (n + 1) * p - 2) < 1e-12


def test_strauss_domain_error():
    with pytest.raises(DomainError):
        strauss_exponent(0)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_generalized_strauss_limit(n, eps):
    assert abs(generalized_strauss(n, 1.0 - eps) - strauss_exponent(n)) <= 10.0 * eps


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
def test_generalized_strauss_root_residual(n, gamma):
    p = generalized_strauss(n, gamma)
    assert abs((n - 1) * p * p - (n + 3 - 2 * gamma) * p - 2) < 1e-10


def test_generalized_strauss_one_dimension():
    assert generalized_strauss(1, 0.5) == math.inf


def test_generalized_strauss_domain():
    with pytest.raises(DomainError):
        generalized_strauss(3, 1.0)
    with pytest.raises(DomainError):
        generalized_strauss(3, 0.0)


def test_alpha_w_values():
    assert alpha_w(2.0, 2.0) == pytest.approx(1.5, rel=1e-15)
    assert alpha_w(2.0, 3.0) == pytest.approx(1.1, rel=1e-14)


def test_alpha_wm_values():
    assert alpha_wm(2.0, 2.0, 0.5, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert alpha_wm(2.0, 2.0, 1.0, 1.0) == pytest.approx(1.5, rel=1e-15)


@given(p=st.floats(1.01, 10.0), q=st.floats(1.01, 10.0))
@settings(max_examples=200, deadline=None)
def test_alpha_w_symmetry(p, q):
    assert alpha_w(p, q) == alpha_w(q, p)


@given(p=st.floats(1.01, 10.0), q=st.floats(1.01, 10.0))
@settings(max_examples=200, deadline=None)
def test_alpha_wm_boundary_equals_alpha_w(p, q):
    assert alpha_wm(p, q, 1.0, 1.0) == alpha_w(p, q)


@given(
    p=st.floats(1.01, 5.0), q=st.floats(1.01, 5.0),
    g1=st.floats(0.05, 0.95), g2=st.floats(0.05, 0.95),
)
@settings(max_examples=100, deadline=None)
def test_alpha_wm_decreasing_in_gamma(p, q, g1, g2):
    assert alpha_wm(p, q, g1, g2) >= alpha_wm(p, q, min(g1 + 0.01, 1.0), g2)


@pytest.mark.parametrize("r", range(0, 5))
def test_log_iterate_zero(r):
    assert log_iterate(0.0, r) == 0.0


def test_log_iterate_values():
    assert log_iterate(math.e - 1.0, 0) == pytest.approx(1.0, rel=1e-14)


def test_log_iterate_depth_cap():
    with pytest.raises(UnsupportedError):
        log_iterate(1.0, 5)
    with pytest.raises(DomainError):
        log_iterate(-1.0, 0)


@given(
    t=st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)).filter(lambda x: x[0] != x[1]),
    r=st.integers(0, 2),
)
@settings(max_examples=300, deadline=None)
def test_log_iterate_monotone(t, r):
    lo, hi = sorted(t)
    assert log_iterate(lo, r) <= log_iterate(hi, r)
    # strict once the true increase (>= ~1e-12 for r <= 2 on [0, 1e6]) is far
    # above one ulp of the result; adjacent inputs may round to equal values,
    # and near zero a subnormal step underflows inside the nested log1p
    if hi - lo > 1e-9 * max(lo, 1.0):
        assert log_iterate(lo, r) < log_iterate(hi, r)


def test_problem_params_validation():
    with pytest.raises(ConfigError):
        ProblemParams(0, 2.0, 2.0)
    with pytest.raises(ConfigError):
        ProblemParams(1, 1.0, 2.0)
    with pytest.raises(ConfigError):
        ProblemParams(1, 2.0, 2.0, gamma1=1.5)
    with pytest.raises(ConfigError):
        ProblemParams(1, 2.0, 2.0, r_depth=5)


def test_sobolev_flag():
    assert ProblemParams(3, 4.0, 2.0).sobolev_violated
    assert not ProblemParams(3, 2.0, 2.0).sobolev_violated
    assert not ProblemParams(1, 50.0, 50.0).sobolev_violated


def test_condition_fast_examples():
    assert check_condition_fast(ProblemParams(3, 2.0, 2.0)).satisfied
    assert not check_condition_fast(ProblemParams(9, 2.0, 2.0)).satisfied
    assert check_condition_fast(ProblemParams(1, 1.1, 8.0)).satisfied


def test_condition_fast_swap_invariant():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p, q = rng.uniform(1.01, 5.0, size=2)
        a = check_condition_fast(ProblemParams(3, p, q))
        b = check_condition_fast(ProblemParams(3, q, p))
        assert a.satisfied == b.satisfied


def test_condition_fast_critical_flag():
    # alpha_w(2,2) = 1.5 equals (n-1)/2 at n = 4: open critical case
    verdict = check_condition_fast(ProblemParams(4, 2.0, 2.0))
    assert not verdict.satisfied
    assert verdict.critical
    assert verdict.branch is Branch.FAST_FAST


def test_condition_slow_low_dimension_satisfied():
    params = ProblemParams(1, 2.0, 3.0)
    verdict = check_condition_slow(params, RiemannLiouville(0.5), Constant(1.0))
    assert verdict.satisfied
    assert verdict.branch is Branch.SLOW_SLOW
    assert verdict.margin > 0.0


def test_condition_slow_reduced_corollary_case():
    # g1 = g2 = RiemannLiouville(0.5), p = q = 2, n = 3: the polynomial side
    # dominates, so the condition holds
    params = ProblemParams(3, 2.0, 2.0)
    verdict = check_condition_slow(params, RiemannLiouville(0.5), RiemannLiouville(0.5))
    assert verdict.satisfied


def test_condition_slow_fails_high_dimension():
    params = ProblemParams(9, 2.0, 2.0)
    verdict = check_condition_slow(params, Constant(1.0), Constant(1.0))
    assert not verdict.satisfied
    assert verdict.margin < 0.0


def test_condition_slow_rejects_fast_kernel():
    with pytest.raises(ConfigError):
        check_condition_slow(ProblemParams(1, 2.0, 2.0), Exponential(1.0), Constant(1.0))


def test_default_condition_times():
    t = default_condition_times()
    assert t.size == 121 and t[0] == 1.0 and t[-1] == pytest.approx(1e6)
    assert np.all(np.diff(t) > 0)


def test_sweep_single_point_matches_pointwise():
    m = sweep_region(3, None, None, (2.0, 2.0), (2.0, 2.0), 1)
    verdict = check_condition_fast(ProblemParams(3, 2.0, 2.0))
    rows = list(m.rows())
    assert len(rows) == 1
    assert rows[0][3] == verdict.satisfied


def test_sweep_gamma_monotonicity():
    lo = sweep_region(3, 0.3, 0.3, (1.5, 3.0), (1.5, 3.0), 20)
    hi = sweep_region(3, 0.8, 0.8, (1.5, 3.0), (1.5, 3.0), 20)
    # larger gamma shrinks the satisfied region
    assert np.all(lo.satisfied >= hi.satisfied)


def test_sweep_rejects_mixed_gammas():
    with pytest.raises(ConfigError):
        sweep_region(3, 0.5, None, (1.5, 3.0), (1.5, 3.0), 5)


def test_sweep_rejects_empty_range():
    with pytest.raises(ConfigError):
        sweep_region(3, None, None, (3.0, 2.0), (1.5, 3.0), 5)
    with pytest.raises(ConfigError):
        sweep_region(3, None, None, (0.5, 2.0), (1.5, 3.0), 5)
    for resolution in (0, -1):
        with pytest.raises(ConfigError):
            sweep_region(3, None, None, (1.5, 3.0), (1.5, 3.0), resolution)


@pytest.mark.parametrize("ps, qs", [
    ([], [1.5, 2.0]),
    ([1.5, 2.0], []),
    ([2.0, 1.5], [1.5, 2.0]),
    ([1.5, 2.0], [1.5, 2.0, 1.8]),
    ([1.0, 2.0], [1.5, 2.0]),
    ([1.5, 2.0], [0.5, 2.0]),
    ([1.5, np.nan], [1.5, 2.0]),
])
def test_region_from_grids_rejects_bad_grid(ps, qs):
    with pytest.raises(ConfigError):
        region_from_grids(3, None, None, ps, qs)


def test_region_from_grids_matches_sweep():
    a = sweep_region(3, None, None, (1.5, 3.0), (1.5, 3.0), 7)
    b = region_from_grids(3, None, None, np.linspace(1.5, 3.0, 7), np.linspace(1.5, 3.0, 7))
    assert np.array_equal(a.margin, b.margin)


@pytest.mark.parametrize("gammas", [(None, None), (0.5, 0.7)])
def test_region_rows_bitwise_equal_meshgrid_plane(gammas):
    # the streamed p rows are the values the full (p, q) planes give
    ps, qs = np.linspace(1.1, 4.0, 37), np.linspace(1.2, 3.5, 23)
    region = region_from_grids(3, *gammas, ps, qs)
    P, Q = np.meshgrid(ps, qs, indexing="ij")
    alpha = alpha_w(P, Q) if gammas[0] is None else alpha_wm(P, Q, *gammas)
    plane = alpha - 1.0
    rows = list(region.margin_rows())
    assert [p for p, _ in rows] == ps.tolist()
    assert np.array_equal(np.array([m for _, m in rows]), plane)
    assert np.array_equal(region.margin, plane)
    assert np.array_equal(region.satisfied, plane > 0.0)
    cells = list(region.rows())
    assert [c[4] for c in cells] == plane.ravel().tolist()
    assert [c[3] for c in cells] == (plane > 0.0).ravel().tolist()


def test_experimental_mixed_condition_returns_raw_curves():
    params = ProblemParams(3, 2.0, 2.0)
    times, lhs, rhs = experimental_mixed_condition(
        params, RiemannLiouville(0.5), Exponential(1.0), slow_index=1
    )
    assert len(times) == len(lhs) == len(rhs)
    assert np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))
    with pytest.raises(ConfigError):
        experimental_mixed_condition(params, RiemannLiouville(0.5), Exponential(1.0), 3)
