"""Kernel families: closed-form values, antiderivatives, classification."""

import bisect
import functools
import math
import time
import tracemalloc
import warnings

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
    MOMENT_CHUNK,
    Constant,
    Custom,
    DecayTag,
    Exponential,
    IteratedExponential,
    OscillatingPolynomial,
    PolynomialShifted,
    RiemannLiouville,
    _gauss_jacobi,
)
from memwave.solver import HistoryWeights
from oracles import closed_form_antiderivative, minorant, step_weights_reference

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
            lambda: PolynomialShifted(-0.5), lambda: IteratedExponential(5, 1.0),
            # non-finite samples, which every <= 0 check let through
            lambda: Custom([0.5, 1.0, 2.0], [1.5, math.nan, 0.5]),
            lambda: Custom([0.5, 1.0, 2.0], [1.5, 1.0, math.inf]),
            lambda: Custom([0.5, 1.0, math.inf], [1.5, 1.0, 0.5]),
            lambda: Custom([math.nan, 1.0, 2.0], [1.5, 1.0, 0.5])]
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
    assert kernel.decay_class.tag is expected


def _power_law_samples(slope, num=64):
    # a flat first segment keeps the table integrable at t = 0 whatever the tail
    t = np.geomspace(0.1, 100.0, num)
    g = t**slope
    g[0] = g[1]
    return t, g


def test_custom_classification_slow():
    k = Custom(*_power_law_samples(-0.5))
    assert k.decay_class.tag is DecayTag.SLOW


def test_custom_classification_fast():
    k = Custom(*_power_law_samples(-2.0))
    assert k.decay_class.tag is DecayTag.FAST


def test_custom_classification_indeterminate():
    k = Custom(*_power_law_samples(-1.0))
    assert k.decay_class.tag is DecayTag.INDETERMINATE
    k = Custom(*_power_law_samples(-0.97))
    assert k.decay_class.tag is DecayTag.INDETERMINATE


def test_custom_too_few_samples():
    t = np.geomspace(0.1, 10.0, 8)
    with pytest.raises(InsufficientDataError):
        Custom(t, t**-0.5).decay_class


@pytest.mark.parametrize("kernel, factor", [
    (Exponential(2.0), math.exp(-0.01 / 2.0)),
    (Constant(3.0), 1.0),
    (RiemannLiouville(0.5), None),
    (PolynomialShifted(1.5), None),
    (PolynomialShifted(0.0), 1.0),
    (IteratedExponential(1, 0.5), math.exp(-0.01 * 0.5)),
    (IteratedExponential(2, 0.5), None),
    (OscillatingPolynomial(0.3), None),
    (Custom(*_power_law_samples(-0.5)), None),
], ids=["Exponential", "Constant", "RiemannLiouville", "PolynomialShifted",
        "PolynomialShifted-gamma0", "IteratedExponential", "IteratedExponential-depth2",
        "OscillatingPolynomial", "Custom"])
def test_recursion_factor(kernel, factor):
    assert kernel.recursion_factor(0.01) == factor
    if factor is not None:  # g(t + dt) = factor * g(t)
        t = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(kernel(t + 0.01), factor * kernel(t), rtol=1e-14)


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


@pytest.mark.parametrize("kernel", [Exponential(2.0), PolynomialShifted(0.5)],
                         ids=lambda k: type(k).__name__)
def test_second_antiderivative_keeps_its_digits_at_small_t(kernel):
    # the closed forms beta t + beta^2 expm1(-t/beta) and the PolynomialShifted
    # one cancel at small t: 9.8e-13 and 1.7e-8 off at t = 1e-4
    mpmath = pytest.importorskip("mpmath")
    t = 1e-4
    with mpmath.workdps(40):
        g = {Exponential: lambda s: mpmath.exp(-s / 2),
             PolynomialShifted: lambda s: (1 + s) ** mpmath.mpf(-0.5)}[type(kernel)]
        T = mpmath.mpf(t)
        want = float(mpmath.quad(lambda s: (T - s) * g(s), [0, T]))
    assert kernel.second_antiderivative(t) == pytest.approx(want, rel=1e-14, abs=0.0)


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
    # oracle: IteratedExponential(1, c) is exp(-c t), whose G is
    # -expm1(-c t) / c and whose ∫G is (c t + expm1(-c t)) / c^2
    generic = IteratedExponential(1, c)
    for t in (0.009, 0.5, 2.0, 10.0):
        assert generic.antiderivative(t) == pytest.approx(
            closed_form_antiderivative(generic, t), rel=1e-12)
        assert generic.second_antiderivative(t) == pytest.approx(
            (c * t + math.expm1(-c * t)) / c**2, rel=1e-12)


def _mp_antiderivatives(kernel, t):
    """G(t) and ∫_0^t G, 40 digits, from the closed forms in mpmath: for
    PolynomialShifted, Exponential, and t^-0.5 (a Custom table of it)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        if isinstance(kernel, PolynomialShifted):
            a = 1 - mpmath.mpf(kernel.gamma)
            G = ((1 + t) ** a - 1) / a
            return G, (((1 + t) ** (a + 1) - 1) / (a + 1) - t) / a
        if isinstance(kernel, Exponential):
            b = mpmath.mpf(kernel.beta)
            G = b * -mpmath.expm1(-t / b)
            return G, b * (t - G)
        return 2 * mpmath.sqrt(t), mpmath.mpf(4) / 3 * t**1.5


@pytest.mark.parametrize("kernel, t_range", [
    (PolynomialShifted(0.5), (1e-6, 500.0)),
    (PolynomialShifted(2.5), (1e-6, 500.0)),
    (Exponential(1e-3), (1e-5, 50.0)),
    (Exponential(1e-2), (1e-5, 50.0)),
    # samples two decades apart: t^-0.5 on [0.01, 1] is one piece but for
    # the dyadic cuts
    (Custom([0.01, 1.0, 100.0], [10.0, 1.0, 0.1]), (1e-4, 1e3)),
], ids=["PolynomialShifted-0.5", "PolynomialShifted-2.5", "Exponential-1e-3",
        "Exponential-1e-2", "Custom-sparse"])
def test_antiderivatives_match_mpmath(kernel, t_range):
    # ((1 + t)^(1 - gamma) - 1) / (1 - gamma) lost 1.2e-10 to cancellation at
    # t = 1e-6, and unit panels lost 44% of ∫G for Exponential(1e-3)
    for t in np.geomspace(*t_range, 25):
        G, G2 = _mp_antiderivatives(kernel, t)
        assert kernel.antiderivative(t) == pytest.approx(float(G), rel=1e-13, abs=0.0), t
        assert kernel.second_antiderivative(t) == pytest.approx(float(G2), rel=1e-13, abs=0.0), t


def test_custom_rejects_non_integrable_first_segment():
    # g = 100 t^-2 below t = 1 has no integral from 0; G(0.5) came out as -2.0
    with pytest.raises(ConfigError, match="non-integrable"):
        Custom([0.1, 1.0], [100.0, 1.0])
    with pytest.raises(ConfigError, match="non-integrable"):
        Custom([0.5, 1.0, 2.0], [2.0, 1.0, 0.5])  # 1/t, singularity order exactly 1
    assert Custom([0.5, 1.0, 2.0], [1.5, 1.0, 0.5]).singularity_order < 1.0


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
    if k.decay_class.tag is DecayTag.FAST:
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
    # gamma = 0 is the constant kernel, whose recursion needs no fit
    assert PolynomialShifted(0.0).recursion_factor(0.01) == 1.0


def test_exponential_sum_that_misses_its_bound_warns():
    # (1 + t)^-10 over [0.03, 20] spans 13 decades: no 64 terms reach 1e-11
    with pytest.warns(RuntimeWarning, match="whole history"):
        assert PolynomialShifted(10.0).exponential_sum(0.03, 20.0) is None


# -- the NumPy rules behind G and its integral ---------------------------------

# the 20-point table that took QUADPACK seconds and hundreds of warnings
TABLE_T = np.geomspace(0.1, 100.0, 20)
TABLE_G = (3.0 + 2.0 * np.sin(TABLE_T)) * TABLE_T**-0.3
# logs that are 0, 1, 2, 4 and 8 times log 2, so the log-log slopes come out
# exactly -0.5, -1, -2, -2
SLOPE_T = np.array([0.25, 1.0, 2.0, 4.0, 16.0])
SLOPE_G = np.array([1.0, 0.5, 0.25, 2.0**-4, 2.0**-8])


@functools.cache
def _depth4_moments(c):
    """∫ g and ∫ s g for IteratedExponential(4, c) over [0, e], 30 digits,
    where log g reaches its -700 floor at s = e: past e, g adds nothing to G
    in double precision."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        end = mpmath.log(mpmath.log(mpmath.log(700))) / c

        def g(s):
            return mpmath.exp(-mpmath.exp(mpmath.exp(mpmath.exp(c * s))))

        nodes = mpmath.linspace(0, end, 17)
        return tuple(mpmath.quad(lambda s: s**j * g(s), nodes) for j in (0, 1))


@pytest.mark.parametrize("c", [1.0, 3.0])
@pytest.mark.parametrize("t", [4.0, 6.0, 30.0])
def test_depth4_iterated_exponential_keeps_its_mass(c, t):
    # nearly all of g lies below s = 0.5/c; QUADPACK over [0, t] lost up to 93%
    # of it.  G is about 1e-9, so the tolerance is relative only
    m0, m1 = _depth4_moments(c)
    kernel = IteratedExponential(4, c)
    assert kernel.antiderivative(t) == pytest.approx(float(m0), rel=1e-12, abs=0.0)
    assert kernel.second_antiderivative(t) == pytest.approx(float(t * m0 - m1), rel=1e-12,
                                                         abs=0.0)


def test_depth4_history_weights_keep_mass_and_sign():
    m0, _ = _depth4_moments(3.0)
    w = HistoryWeights(IteratedExponential(4, 3.0), 0.05, 1200).weights(1200)
    assert w.sum() == pytest.approx(float(m0), rel=1e-10, abs=0.0)
    # past the floor, rounding may leave a weight a hair below zero
    assert w.min() >= -1e-12 * w.sum()


@pytest.mark.parametrize(
    "kernel",
    ALL_FAMILIES + [IteratedExponential(4, 3.0), Custom(TABLE_T, TABLE_G), Custom(SLOPE_T, SLOPE_G)],
    ids=lambda k: repr(type(k).__name__),
)
def test_antiderivatives_never_decrease(kernel):
    t = np.geomspace(1e-3, 1e3, 600)
    assert np.all(np.diff([kernel.antiderivative(x) for x in t]) >= 0.0)
    assert np.all(np.diff([kernel.second_antiderivative(x) for x in t]) >= 0.0)


def _power_law_antiderivatives(times, values, t):
    """G(t) and ∫_0^t G, 30 digits, for the power law through each pair of
    neighbouring samples, the end ones extended to 0 and to infinity."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        T = [mpmath.mpf(float(x)) for x in times]
        V = [mpmath.mpf(float(x)) for x in values]
        t = mpmath.mpf(float(t))

        def g(s):
            i = min(max(bisect.bisect(T, s) - 1, 0), len(T) - 2)
            return V[i] * (s / T[i]) ** (mpmath.log(V[i + 1] / V[i]) / mpmath.log(T[i + 1] / T[i]))

        cuts = [mpmath.mpf(0)] + [x for x in T if x < t] + [t]
        return (float(mpmath.quad(g, cuts)),
                float(mpmath.quad(lambda s: (t - s) * g(s), cuts)))


@pytest.mark.parametrize("times, values", [(TABLE_T, TABLE_G), (SLOPE_T, SLOPE_G)],
                         ids=["oscillating-table", "slopes-1-2"])
@pytest.mark.parametrize("t", [0.01, 0.2, 1.0, 3.7, 16.0, 100.0, 400.0])
def test_custom_antiderivatives_match_power_law(times, values, t):
    kernel = Custom(times, values)
    G, G2 = _power_law_antiderivatives(times, values, t)
    assert kernel.antiderivative(t) == pytest.approx(G, rel=1e-12)
    assert kernel.second_antiderivative(t) == pytest.approx(G2, rel=1e-12)


def test_custom_exact_slopes_minus_one_and_minus_two():
    # a + 1 = 0 and a + 2 = 0 on these segments: the closed forms' log limits
    kernel = Custom(SLOPE_T, SLOPE_G)
    assert kernel._slopes.tolist() == [-0.5, -1.0, -2.0, -2.0]
    w = HistoryWeights(kernel, 0.05, 400).weights(400)  # t = 20, past the last sample
    assert w.min() > 0.0
    assert w.sum() == pytest.approx(_power_law_antiderivatives(SLOPE_T, SLOPE_G, 20.0)[0],
                                    rel=1e-13)


def test_custom_weights_build_fast_without_warning():
    kernel = Custom(TABLE_T, TABLE_G)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = time.perf_counter()
        w = HistoryWeights(kernel, 0.009, 222).weights(222)
        elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    assert w.min() > 0.0
    assert w.sum() == pytest.approx(_power_law_antiderivatives(TABLE_T, TABLE_G, 222 * 0.009)[0],
                                    rel=1e-13)


@pytest.mark.parametrize(
    "kernel",
    [RiemannLiouville(0.5), PolynomialShifted(0.5), Exponential(1.0), Constant(1.0),
     OscillatingPolynomial(0.3), IteratedExponential(2, 1.0), Custom(TABLE_T, TABLE_G)],
    ids=lambda k: type(k).__name__,
)
def test_step_weights_match_mpmath(kernel):
    # simulate-blowup's time step; differencing G and ∫G at neighbouring grid
    # points lost about l^2 ulps at lag l (3.3e-7 relative for the depth-2
    # tower at lag 1000)
    dt = 0.00225
    hw = HistoryWeights(kernel, dt, 1000)
    for lag in (1, 2, 10, 100, 1000):
        X, Y = step_weights_reference(kernel, dt, lag)
        assert hw._X[lag] == pytest.approx(X, rel=1e-13, abs=0.0), lag
        assert hw._Y[lag] == pytest.approx(Y, rel=1e-13, abs=0.0), lag


@pytest.mark.parametrize("kernel", [RiemannLiouville(0.5), Exponential(1.0),
                                    OscillatingPolynomial(0.3)], ids=lambda k: type(k).__name__)
def test_step_moments_temporaries_are_bounded(kernel):
    # the steps are integrated MOMENT_CHUNK at a time: in one call, 20,000
    # steps at simulate-blowup's time step made 26 to 30 MB of temporaries
    tracemalloc.start()
    try:
        kernel.step_moments(0.00225, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


@pytest.mark.parametrize(
    "kernel",
    [RiemannLiouville(0.5), PolynomialShifted(0.5), Exponential(1.0), Constant(1.0),
     OscillatingPolynomial(0.3), IteratedExponential(2, 1.0), Custom(TABLE_T, TABLE_G)],
    ids=lambda k: type(k).__name__,
)
def test_step_moments_of_fewer_steps_are_a_prefix(kernel):
    # a step's moments do not depend on the other steps or on the chunk
    # that integrates them, byte for byte
    dt, chunk = 0.00225, MOMENT_CHUNK
    whole = kernel.step_moments(dt, 2 * chunk + 100)
    for k in (1, 7, chunk - 1, chunk, chunk + 1, 2 * chunk - 1):
        for got, want in zip(kernel.step_moments(dt, k), whole, strict=True):
            assert got.tobytes() == want[:k].tobytes(), k


def test_gauss_legendre_table_matches_mpmath():
    # the one Gauss-Legendre table, from the Golub-Welsch eigenproblem, against
    # the roots of P_24 on [-1, 1] by Newton's method at 50 digits
    mpmath = pytest.importorskip("mpmath")
    x, w = _gauss_jacobi(24, 0.0)

    def derivative(u):  # P_24'(u) from P_23 and P_24
        return 24 * (mpmath.legendre(23, u) - u * mpmath.legendre(24, u)) / (1 - u**2)

    with mpmath.workdps(50):
        for node, weight in zip(x, w):
            u = 2 * mpmath.mpf(float(node)) - 1
            for _ in range(6):
                u -= mpmath.legendre(24, u) / derivative(u)
            dp = derivative(u)
            assert node == pytest.approx(float((1 + u) / 2), rel=1e-13, abs=0.0)
            assert weight == pytest.approx(float(1 / ((1 - u**2) * dp**2)), rel=1e-13, abs=0.0)


def test_gauss_tables_built_once(monkeypatch):
    # a run needs one Gauss-Jacobi table per gamma and one Gauss-Legendre
    # table; building them on every call cost more than the rest of the run
    _gauss_jacobi.cache_clear()
    builds = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: builds.append(a.shape) or eigh(a))
    for kernel in (OscillatingPolynomial(0.3), IteratedExponential(2, 1.0),
                   OscillatingPolynomial(0.3)):
        HistoryWeights(kernel, 0.009, 222).weights(222)
    assert builds == [(24, 24), (24, 24)]
