"""Kernel families: closed-form values, antiderivatives, classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from memwave.errors import (
    ConfigError,
    DomainError,
    InsufficientDataError,
    UnsupportedError,
)
from memwave.kernels import (
    Constant,
    Custom,
    DecayTag,
    Exponential,
    IteratedExponential,
    OscillatingPolynomial,
    PolynomialShifted,
    RiemannLiouville,
    classify_decay,
    minorant,
)

SMOOTH_FAMILIES = [
    RiemannLiouville(0.5),
    RiemannLiouville(0.3),
    PolynomialShifted(0.5),
    PolynomialShifted(2.0),
    Exponential(1.0),
    Exponential(2.5),
    Constant(1.5),
]

ALL_FAMILIES = SMOOTH_FAMILIES + [
    IteratedExponential(1, 1.0),
    IteratedExponential(2, 0.5),
    OscillatingPolynomial(0.5),
    OscillatingPolynomial(0.0),
]


def test_riemann_liouville_value():
    # oracle: Gamma(0.5) = sqrt(pi)
    k = RiemannLiouville(0.5)
    assert k(1.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    assert k(1.0) == pytest.approx(0.5641895835, abs=1e-9)


def test_constant_value():
    assert Constant(1.0)(7.0) == 1.0


def test_exponential_at_zero():
    assert Exponential(1.0)(0.0) == 1.0


def test_singular_kernel_rejects_zero():
    with pytest.raises(DomainError):
        RiemannLiouville(0.5)(0.0)
    with pytest.raises(DomainError):
        OscillatingPolynomial(0.3)(0.0)


def test_negative_argument_rejected():
    with pytest.raises(DomainError):
        Exponential(1.0)(-0.1)


@pytest.mark.parametrize(
    "bad", [lambda: RiemannLiouville(0.0), lambda: RiemannLiouville(1.0),
            lambda: Exponential(0.0), lambda: Constant(-1.0),
            lambda: PolynomialShifted(-0.5), lambda: IteratedExponential(5, 1.0)]
)
def test_bad_parameters_rejected(bad):
    with pytest.raises(ConfigError):
        bad()


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=lambda k: repr(type(k).__name__))
def test_positivity(kernel):
    t = np.geomspace(1e-3, 1e3, 200)
    vals = np.asarray(kernel(t))
    assert np.all(vals >= 0.0)
    # strictly positive wherever e^-t itself is representable
    assert np.all(vals[t <= 50.0] > 0.0)


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=lambda k: repr(type(k).__name__))
def test_antiderivative_starts_at_zero(kernel):
    assert kernel.antiderivative(0.0) == 0.0


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=lambda k: repr(type(k).__name__))
def test_antiderivatives_reject_negative_argument(kernel):
    with pytest.raises(DomainError):
        kernel.antiderivative(-1.0)
    with pytest.raises(DomainError):
        kernel.second_antiderivative(-1.0)


def test_exponential_antiderivative_limit():
    # oracle: integral of e^-t over [0, inf) = 1
    assert Exponential(1.0).antiderivative(60.0) == pytest.approx(1.0, rel=1e-12)
    assert Exponential(2.0).antiderivative(120.0) == pytest.approx(2.0, rel=1e-12)


def test_riemann_liouville_antiderivative_value():
    # oracle: closed-form fractional integral of 1: t^(1-g)/((1-g) Gamma(1-g))
    k = RiemannLiouville(0.5)
    want = 1.0 / (0.5 * math.gamma(0.5))
    assert k.antiderivative(1.0) == pytest.approx(want, rel=1e-12)
    assert k.antiderivative(1.0) == pytest.approx(1.1283791671, abs=1e-9)


@pytest.mark.parametrize("kernel", SMOOTH_FAMILIES, ids=lambda k: repr(type(k).__name__))
def test_fundamental_theorem(kernel):
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.1, 10.0, size=100)
    h = 1e-5
    for t in ts:
        deriv = (kernel.antiderivative(t + h) - kernel.antiderivative(t - h)) / (2 * h)
        assert deriv == pytest.approx(kernel(t), rel=1e-6)


def test_fundamental_theorem_oscillating():
    kernel = OscillatingPolynomial(0.5)
    h = 1e-5
    for t in np.linspace(0.5, 9.5, 10):
        deriv = (kernel.antiderivative(t + h) - kernel.antiderivative(t - h)) / (2 * h)
        assert deriv == pytest.approx(kernel(t), rel=1e-6)


@pytest.mark.parametrize(
    "kernel",
    [k for k in ALL_FAMILIES if not isinstance(k, (OscillatingPolynomial, Custom))],
    ids=lambda k: repr(type(k).__name__),
)
def test_monotone_nonincreasing(kernel):
    t = np.geomspace(1e-3, 1e3, 1000)
    g = np.asarray(kernel(t))
    assert np.all(np.diff(g) <= 1e-15)


@pytest.mark.parametrize("kernel", ALL_FAMILIES, ids=lambda k: repr(type(k).__name__))
def test_l1_integrability(kernel):
    assert kernel.singularity_order < 1.0
    assert math.isfinite(kernel.antiderivative(100.0))


@pytest.mark.parametrize(
    "kernel,expected",
    [
        (RiemannLiouville(0.5), DecayTag.SLOW),
        (OscillatingPolynomial(0.5), DecayTag.SLOW),
        (Constant(1.0), DecayTag.SLOW),
        (PolynomialShifted(0.5), DecayTag.SLOW),
        (PolynomialShifted(1.0), DecayTag.FAST),
        (PolynomialShifted(2.0), DecayTag.FAST),
        (Exponential(2.0), DecayTag.FAST),
        (IteratedExponential(2, 1.0), DecayTag.FAST),
    ],
)
def test_analytic_classification(kernel, expected):
    assert classify_decay(kernel).tag is expected


def _power_law_samples(slope, num=64):
    # a flat first segment keeps the table integrable at t = 0 whatever the tail
    t = np.geomspace(0.1, 100.0, num)
    g = t**slope
    g[0] = g[1]
    return t, g


def test_custom_classification_slow():
    k = Custom(*_power_law_samples(-0.5))
    assert classify_decay(k).tag is DecayTag.SLOW


def test_custom_classification_fast():
    k = Custom(*_power_law_samples(-2.0))
    assert classify_decay(k).tag is DecayTag.FAST


def test_custom_classification_indeterminate():
    k = Custom(*_power_law_samples(-1.0))
    assert classify_decay(k).tag is DecayTag.INDETERMINATE
    k = Custom(*_power_law_samples(-0.97))
    assert classify_decay(k).tag is DecayTag.INDETERMINATE


def test_custom_too_few_samples():
    t = np.geomspace(0.1, 10.0, 8)
    with pytest.raises(InsufficientDataError):
        classify_decay(Custom(t, t**-0.5))


def test_custom_interpolation_matches_power_law():
    t, g = _power_law_samples(-0.5)
    k = Custom(t, g)
    probe = np.geomspace(0.2, 50.0, 37)
    assert np.allclose(k(probe), probe**-0.5, rtol=1e-12)


def test_minorant_oscillating_strips_oscillation():
    k = OscillatingPolynomial(0.5)
    m = minorant(k)
    t = np.geomspace(0.1, 100.0, 50)
    assert np.allclose(np.asarray(m(t)), t**-0.5, rtol=1e-12)


def test_minorant_identity_for_monotone():
    k = RiemannLiouville(0.3)
    assert minorant(k) is k
    c = Constant(2.0)
    assert minorant(c) is c


def test_minorant_rejects_fast():
    with pytest.raises(UnsupportedError):
        minorant(Exponential(1.0))


@pytest.mark.parametrize(
    "kernel",
    [OscillatingPolynomial(0.5), OscillatingPolynomial(0.0),
     Custom(np.geomspace(0.1, 100, 64), (3 + 2 * np.sin(np.geomspace(0.1, 100, 64)))
            * np.geomspace(0.1, 100, 64) ** -0.3)],
    ids=["osc_half", "osc_zero", "custom"],
)
def test_minorant_domination(kernel):
    m = minorant(kernel)
    rng = np.random.default_rng(11)
    t = rng.uniform(0.1, 100.0, size=1000)
    assert np.all(np.asarray(kernel(t)) >= np.asarray(m(t)) - 1e-12)


def test_second_antiderivative_closed_forms():
    # oracle: independent quadrature of G
    for kernel in [RiemannLiouville(0.4), Exponential(1.5), Constant(2.0),
                   PolynomialShifted(0.5), PolynomialShifted(1.0), PolynomialShifted(2.0)]:
        for t in (0.5, 2.0, 7.0):
            want, _ = integrate.quad(kernel.antiderivative, 0.0, t, epsrel=1e-11)
            assert kernel.second_antiderivative(t) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("gamma", [0.3, 0.5])
@pytest.mark.parametrize("t", [0.009, 0.5, 2.0])
def test_oscillating_antiderivatives_match_power_series(gamma, t):
    # oracle, free of quadrature: (3 + 2 sin s) s^-gamma integrated termwise,
    # with M(a) the k-fold integral of s^a (k = 1 for G, 2 for its integral)
    for k, got in ((1, OscillatingPolynomial(gamma).antiderivative(t)),
                   (2, OscillatingPolynomial(gamma).second_antiderivative(t))):
        def M(a):
            return t ** (a + k) / math.prod(a + i for i in range(1, k + 1))

        want = 3.0 * M(-gamma) + 2.0 * sum(
            (-1) ** j / math.factorial(2 * j + 1) * M(2 * j + 1 - gamma) for j in range(30)
        )
        assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_generic_antiderivatives_match_exponential(c):
    # oracle: IteratedExponential(1, c) is exp(-c t), whose G and integral of G
    # Exponential states in closed form
    generic, closed = IteratedExponential(1, c), Exponential(1.0 / c)
    for t in (0.009, 0.5, 2.0, 10.0):
        assert generic.antiderivative(t) == pytest.approx(closed.antiderivative(t), rel=1e-12)
        assert generic.second_antiderivative(t) == pytest.approx(
            closed.second_antiderivative(t), rel=1e-12
        )


def test_custom_rejects_non_integrable_first_segment():
    # g = 100 t^-2 below t = 1 has no integral from 0; G(0.5) came out as -2.0
    with pytest.raises(ConfigError, match="non-integrable"):
        Custom([0.1, 1.0], [100.0, 1.0])
    with pytest.raises(ConfigError, match="non-integrable"):
        Custom([0.5, 1.0, 2.0], [2.0, 1.0, 0.5])  # 1/t, singularity order exactly 1
    assert Custom([0.5, 1.0, 2.0], [1.5, 1.0, 0.5]).singularity_order < 1.0


def test_derivative_at_zero():
    assert Exponential(1.0).derivative_at_zero() == -1.0
    assert Exponential(2.0).derivative_at_zero() == -0.5
    assert Constant(3.0).derivative_at_zero() == 0.0
    assert PolynomialShifted(0.7).derivative_at_zero() == pytest.approx(-0.7)
    with pytest.raises(UnsupportedError):
        RiemannLiouville(0.5).derivative_at_zero()


def test_iterated_exponential_depth_one_is_exponential():
    k = IteratedExponential(1, 2.0)
    t = np.linspace(0.0, 5.0, 50)
    assert np.allclose(np.asarray(k(t)), np.exp(-2.0 * t))


def test_iterated_exponential_decays_faster_with_depth():
    shallow = IteratedExponential(1, 1.0)
    deep = IteratedExponential(3, 1.0)
    for t in (1.0, 2.0, 5.0):
        assert deep(t) <= shallow(t)


@given(gamma=st.floats(0.05, 0.95), t=st.floats(0.01, 100.0))
@settings(max_examples=50, deadline=None)
def test_riemann_liouville_positive_anywhere(gamma, t):
    assert RiemannLiouville(gamma)(t) > 0.0


@given(slope=st.floats(-3.0, -0.1))
@settings(max_examples=30, deadline=None)
def test_custom_envelope_is_nonincreasing_minorant(slope):
    rng = np.random.default_rng(3)
    t = np.geomspace(0.1, 100.0, 64)
    g = t**slope * np.exp(rng.uniform(0.0, 0.5, size=t.size))
    g[0] = g[1]  # integrable at t = 0
    k = Custom(t, g)
    if classify_decay(k).tag is DecayTag.FAST:
        return
    m = minorant(k)
    assert np.all(np.diff(np.asarray(m(t))) <= 1e-12)
    assert np.all(np.asarray(k(t)) >= np.asarray(m(t)) - 1e-12)


# ---------------------------------------------------------------------------
# sum-of-exponentials fits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", [RiemannLiouville, PolynomialShifted],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("gamma", [0.05, 0.3, 0.5, 0.7, 0.95])
@pytest.mark.parametrize("dt, t_max", [(0.00225, 6.0), (0.0009, 20.0)])
def test_exponential_sum_meets_tolerance(family, gamma, dt, t_max):
    # checked on grids other than the fit's own, and on the solver's lags
    kernel = family(gamma)
    t0 = 32 * dt
    rates, weights = kernel.exponential_sum(t0, t_max)
    assert rates.size == weights.size <= 64
    assert np.all(rates > 0.0) and np.all(weights > 0.0)
    t = np.concatenate((np.geomspace(t0, t_max, 30011), np.linspace(t0, t_max, 30011),
                        dt * np.arange(32, int(t_max / dt) + 1)))
    fit = np.exp(-np.outer(t - t0, rates)) @ weights
    assert np.max(np.abs(fit / kernel(t) - 1.0)) <= 1e-11


def test_exponential_sum_only_for_power_laws():
    for kernel in (Exponential(1.0), Constant(1.0), OscillatingPolynomial(0.3),
                   IteratedExponential(2, 1.0)):
        assert kernel.exponential_sum(0.1, 10.0) is None
    rates, weights = PolynomialShifted(0.0).exponential_sum(0.1, 10.0)
    assert rates.tolist() == [0.0] and weights.tolist() == [1.0]


def test_exponential_sum_that_misses_its_bound_warns():
    # (1 + t)^-10 over [0.03, 20] spans 13 decades: no 64 terms reach 1e-11
    with pytest.warns(RuntimeWarning, match="whole history"):
        assert PolynomialShifted(10.0).exponential_sum(0.03, 20.0) is None
