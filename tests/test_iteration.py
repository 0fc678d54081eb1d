"""Iteration sequences: recursions vs closed forms, slicing, certificates."""

from fractions import Fraction

import math

import pytest

from memwave.errors import ConfigError, DomainError, UnsupportedError
from memwave.iteration import (
    case1_closed_form,
    case1_recursion,
    case2_closed_form,
    case2_recursion,
    slicing_sequence,
)
from memwave.kernels import Constant, Exponential, RiemannLiouville
from oracles import IterationCase, divergence_certificate, index_thresholds, sum_formula

PQ_PAIRS = [(Fraction(2), Fraction(2)), (Fraction(2), Fraction(3)),
            (Fraction(3, 2), Fraction(4))]
DIMS = [1, 2, 3]


def test_case1_seeds():
    seq = case1_recursion(2, 3, 3, 1)
    t = seq.at(1)
    assert t.a == 1 and t.alpha == 0
    assert t.b == Fraction(3 - 1) * 2 / 2  # (n-1)p/2 with n=3, p=2
    assert t.beta == 5  # n + 2
    assert t.a_t == 0 and t.alpha_t == 1
    assert t.b_t == Fraction(3 - 1) * 3 / 2
    assert t.beta_t == 5


def test_case1_hand_unrolled():
    # oracle: recursion unrolled by hand
    p, q, n = Fraction(2), Fraction(3), Fraction(2)
    seq = case1_recursion(p, q, int(n), 3)
    assert seq.at(2).a == 1  # 1 + a~1 p with a~1 = 0
    assert seq.at(3).a == 1 + p * q  # a~2 = a1 q = q
    assert seq.at(3).beta == 3 + 3 * p + (n + 2) * p * q  # beta~2 = 3 + beta1 q


@pytest.mark.parametrize("p,q", PQ_PAIRS)
@pytest.mark.parametrize("n", DIMS)
def test_case1_closed_form_matches_recursion(p, q, n):
    seq = case1_recursion(p, q, n, 25)
    for j in range(1, 26):
        cf = case1_closed_form(p, q, n, j)
        rec = seq.at(j)
        if j % 2 == 1:
            for name in ("a", "a_t", "alpha", "alpha_t", "b", "b_t", "beta", "beta_t"):
                assert getattr(cf, name) == getattr(rec, name), (j, name)
        else:
            assert cf.beta == rec.beta and cf.beta_t == rec.beta_t, j


@pytest.mark.parametrize("p,q", PQ_PAIRS)
@pytest.mark.parametrize("n", DIMS)
def test_case2_closed_form_matches_recursion(p, q, n):
    seq = case2_recursion(p, q, n, 25)
    for j in range(1, 26):
        cf = case2_closed_form(p, q, n, j)
        rec = seq.at(j)
        if j % 2 == 1:
            for name in ("theta", "theta_t", "sigma", "sigma_t"):
                assert getattr(cf, name) == getattr(rec, name), (j, name)
        else:
            assert cf.sigma == rec.sigma and cf.sigma_t == rec.sigma_t, j


@pytest.mark.parametrize("p,q", PQ_PAIRS)
@pytest.mark.parametrize("n", DIMS)
def test_closed_forms_float_tolerance(p, q, n):
    # the acceptance-level 1e-10 relative agreement, for float consumers
    seq = case1_recursion(p, q, n, 25)
    for j in range(1, 26, 2):
        cf = case1_closed_form(p, q, n, j)
        assert float(cf.beta) == pytest.approx(float(seq.at(j).beta), rel=1e-10)


def test_case2_seeds():
    seq = case2_recursion(2, 2, 3, 1)
    t = seq.at(1)
    assert t.theta == Fraction(2)  # (n-1)p/2
    assert t.sigma == 4  # n + 1
    assert seq.L[0] == pytest.approx(2.0)  # ell_1 = 2


def test_case2_hand_unrolled():
    p, q, n = Fraction(2), Fraction(3), Fraction(2)
    seq = case2_recursion(p, q, int(n), 3)
    # sigma_3 = sigma~2 p + 2 with sigma~2 = (n+1)q + 2
    assert seq.at(3).sigma == ((n + 1) * q + 2) * p + 2
    assert seq.at(3).sigma == (n + 1) * p * q + 2 * (p + 1)
    # theta_3 = n(p-1) + theta~2 p, theta~2 = n(q-1) + theta1 q
    assert seq.at(3).theta == ((n - 1) * p + 2 * n) / 2 * p * q - n


@pytest.mark.parametrize("pq", [2, 6, 10])
def test_sum_formula_exact(pq):
    for j in range(3, 22, 2):
        direct = sum(
            Fraction(j - 2 * k) * Fraction(pq) ** k for k in range((j - 3) // 2 + 1)
        )
        assert sum_formula(j, pq) == direct


def test_sum_formula_examples():
    assert sum_formula(3, 6) == 3
    assert sum_formula(5, 2) == 11


def test_sum_formula_rejects_even():
    with pytest.raises(DomainError):
        sum_formula(4, 2)
    with pytest.raises(DomainError):
        sum_formula(1, 2)


def test_slicing_basics():
    ell, L, L_limit = slicing_sequence(4.0, 10)
    assert ell[0] == 2.0
    assert L[1] == pytest.approx(3.0)  # 2 * 1.5
    assert all(e > 1.0 for e in ell)
    assert all(b > a for a, b in zip(L, L[1:]))
    assert all(x < L_limit for x in L)


def test_slicing_tail_reached():
    ell, L, L_limit = slicing_sequence(6.0, 5)
    # the limit product saturates: adding the next factor changes nothing
    k = 200
    assert (1.0 + 6.0 ** (-(k - 1) / 2.0)) - 1.0 < 1e-14


def test_slicing_partial_product_consistency():
    ell, L, _ = slicing_sequence(6.0, 40)
    for j in range(len(L) - 1):
        assert abs(L[j + 1] / L[j] - ell[j + 1]) < 1e-15


@pytest.mark.parametrize("pq", [2.0, 6.0, 10.0])
def test_slicing_log_ratio_limit(pq):
    # ln ell_{k+1} / ln ell_k -> (pq)^{-1/2}; the increments fall below double
    # precision for large pq, so evaluate the logs with log1p
    ratio = math.log1p(pq ** (-60 / 2.0)) / math.log1p(pq ** (-59 / 2.0))
    assert ratio == pytest.approx(pq**-0.5, abs=1e-6)


def test_slicing_rejects_nonexpanding():
    with pytest.raises(ConfigError):
        slicing_sequence(1.0, 5)


@pytest.mark.parametrize("p,q", PQ_PAIRS)
@pytest.mark.parametrize("n", DIMS)
def test_beta_growth_envelope(p, q, n):
    # beta_j <= B0 (pq)^{j/2} with B0 one above the closed-form leading coefficient
    pq = p * q
    b0 = float(((n + 2) * (pq - 1) + 3 * (q + 1)) / ((pq - 1) * q)) + 1.0
    seq = case1_recursion(p, q, n, 25)
    for j in range(1, 26):
        assert float(seq.at(j).beta) <= b0 * float(pq) ** (j / 2.0)


def test_index_thresholds_defaults():
    th = index_thresholds(2.0, 2.0, 1.0, 3.0, (1.0, 0.5), (1.0, 0.5))
    assert th.j0 == 1 and th.j2 == 1  # the normalized constants' logs vanish
    assert th.j1 == 1 and th.j1_t == 1  # positive derivative at zero
    assert th.j_start >= 1


def test_index_thresholds_exponential_example():
    # exp(-t): g(0) = 1, g'(0) = -1; t0 = 1, L = 3
    # -> j1 = ceil(2 log_{pq}(1 + 3/2)) = 2 at pq = 4
    th = index_thresholds(2.0, 2.0, 1.0, 3.0, (1.0, -1.0), (1.0, -1.0))
    want = math.ceil(2.0 * math.log(2.5) / math.log(4.0))
    assert th.j1 == want == 2


def test_index_thresholds_smallness_index():
    th = index_thresholds(2.0, 2.0, 1.0, 3.0, (1.0, 0.0), (1.0, 0.0))
    pq = 4.0
    assert 3.0 * 1.0 * pq ** (-th.j_m / 2.0) < 0.1
    assert 3.0 * 1.0 * pq ** (-(th.j_m - 1) / 2.0) >= 0.1


def test_certificate_case2_subcritical_exists():
    cert = divergence_certificate(IterationCase.CASE2, 2.0, 2.0, 3)
    assert cert is not None
    # exponent of t: -(n-1)p/2 + 1 + 2(p+1)/(pq-1) = -2 + 1 + 2 = 1
    assert cert.u_exponent == pytest.approx(1.0, rel=1e-6)


def test_certificate_case2_supercritical_none():
    assert divergence_certificate(IterationCase.CASE2, 4.0, 4.0, 3) is None


def test_certificate_case1_constant_kernels():
    cert = divergence_certificate(
        IterationCase.CASE1, 2.0, 2.0, 1, kernels=(Constant(1.0), Constant(1.0))
    )
    assert cert is not None
    assert cert.u_exponent > 0.0 and cert.v_exponent > 0.0


def test_certificate_rejects_wrong_kernel_class():
    with pytest.raises(UnsupportedError):
        divergence_certificate(
            IterationCase.CASE1, 2.0, 2.0, 1, kernels=(Exponential(1.0), Constant(1.0))
        )
    with pytest.raises(UnsupportedError):
        divergence_certificate(
            IterationCase.CASE2, 2.0, 2.0, 3, kernels=(RiemannLiouville(0.5),) * 2
        )


def test_recursion_rejects_bad_powers():
    with pytest.raises(ConfigError):
        case1_recursion(1.0, 2.0, 1, 5)
    with pytest.raises(ConfigError):
        case2_recursion(2.0, 2.0, 1, 0)


# log coefficients recorded before the normalized seeds and constants were
# folded into the recursions; every bit must stay
PINNED_LOGS = {
    (2, 3, 3): {
        "logD": (
            0.0, -7.447751280047908, -27.904413366884583, -80.32965662988909,
            -212.56787602501387, -534.2294625171513, -1336.844611347831, -3273.8316362963674,
            -8098.658844562262, -19727.583354715327, -48685.674733393294, -118466.2216384279,
            -292223.8966770453, -710914.1775321971, -1753469.354303413, -4265618.038789412,
            -10520958.22591838, -25593857.33217782, -63125907.581447, -153563309.21834517,
            -378755619.8404545, -921380036.6611848, -2272533909.520335, -5528280417.444057,
            -13635203663.725454,
        ),
        "logD_t": (
            0.0, -8.496173824192162, -33.48337497924534, -98.05053996101299,
            -257.70541752875243, -657.4868665828951, -1624.812274204033, -4035.7039582091775,
            -9848.999398757453, -24326.523866191365, -59215.630718918896, -146092.9471326197,
            -355436.92099618685, -876712.9882955678, -2132786.1639805217, -5260454.736462009,
            -12796903.123034678, -31562926.726586808, -76781626.378479, -189377780.1684513,
            -460689987.4122596, -1136266922.3207524, -2764140175.116057, -6817601796.735673,
            -16584841322.839952,
        ),
        "logQ": (
            0.0, -6.2915691395583195, -24.343544462714437, -72.4552193484381,
            -192.49026013449048, -491.197847089064, -1222.9627293375152, -3025.19672006078,
            -7427.313676362082, -18250.69803646792, -44674.92297082955, -109625.2082084319,
            -268182.0802675931, -657893.7705471356, -1609246.5252311896, -3947526.6457252027,
            -9655654.696137963, -23685345.39791261, -57934125.22269416, -142112279.41215158,
            -347604969.8831453, -852673904.9986992, -2085630059.3469656, -5116043680.019098,
            -12513780617.631,
        ),
        "logQ_t": (
            0.0, -6.99576615630485, -29.357949464415938, -87.43855987939337,
            -235.12431811349907, -599.0836640064961, -1498.5367126821527, -3697.6743560916652,
            -9107.703266093278, -22317.895274140443, -54791.37473553073, -134067.89036854735,
            -328922.0723696775, -804596.5293255679, -1973734.9264370615, -4827797.031259043,
            -11842640.719011374, -28967028.71101804, -71056104.14261185, -173802447.45772463,
            -426336913.3523667, -1042814988.6061158, -2558021797.2790475, -6256890264.164614,
            -15348131129.507282,
        ),
    },
    (Fraction(3, 2), 4, 1): {
        "logD": (
            0.0, -5.591453289682281, -21.462437323133685, -60.96743405476929,
            -164.8903367532072, -407.22819214567625, -1039.0770015300889, -2498.320560237222,
            -6297.664862321144, -15058.327778328094, -37862.63515549522, -90431.81174841899,
            -227265.89593225048, -542686.1541758105, -1363698.8989257396, -3256225.6470046476,
            -8182310.3551055165, -19537476.0421851, -49093992.530384004, -117224991.85146575,
            -294564099.0202516, -703350100.1453458, -1767384751.397653, -4220100763.346822,
            -10604308679.10026,
        ),
        "logD_t": (
            0.0, -7.912056888179006, -32.762043827480475, -99.78282953006327,
            -259.9394727929347, -678.9644407799666, -1650.404608036666, -4181.1018685423005,
            -10020.157089363824, -25220.831163739764, -60265.56252654535, -151486.08804355783,
            -361764.87389966246, -909104.5065004327, -2170787.618923359, -5454841.8937647045,
            -13024950.96552307, -32729293.093764205, -78149957.92152429, -196376027.1701569,
            -468900026.5339254, -1178256458.5049057, -2813400465.084724, -7069539073.389791,
            -16880403123.265907,
        ),
        "logQ": (
            0.0, -4.787491742782046, -18.626674714089585, -55.76056319478879,
            -149.05017432151988, -379.86622779536, -949.6208077534048, -2342.4733023916406,
            -5770.980585463605, -14136.042521643998, -34717.059902259396, -84915.37695937826,
            -208411.45390681503, -509609.30143500946, -1250595.735613683, -3057790.76592591,
            -7503719.3434637245, -18346897.470473073, -45022478.908161014, -110081555.61535193,
            -270135054.21393985, -660489522.40222, -1620810523.9662075, -3962937341.0410233,
            -9724863360.397408,
        ),
        "logQ_t": (
            0.0, -6.2915691395583195, -28.86905080066603, -88.36457901068913,
            -240.1138776040468, -617.2847367598354, -1543.7328177718996, -3826.743987432661,
            -9401.332985048324, -23119.35174460194, -56582.77770392505, -138910.83631760653,
            -339707.2826267047, -833695.5794183597, -2038490.1475894332, -5002439.873291151,
            -12231223.172594633, -30014941.471730433, -73387657.15782179, -180089986.89755768,
            -440326296.9043752, -1080540295.287711, -2641958171.2188854, -6483242181.463819,
            -15851749452.941137,
        ),
    },
}


@pytest.mark.parametrize("pqn", list(PINNED_LOGS), ids=["p2-q3-n3", "p1.5-q4-n1"])
def test_log_coefficients_pinned(pqn):
    seq1, seq2 = case1_recursion(*pqn, 25), case2_recursion(*pqn, 25)
    for name, want in PINNED_LOGS[pqn].items():
        got = getattr(seq1 if name.startswith("logD") else seq2, name)
        assert tuple(got) == want, name


def test_certificates_pinned():
    cert = divergence_certificate(IterationCase.CASE2, 2.0, 2.0, 3)
    assert (cert.t_first, cert.branch, cert.u_exponent, cert.v_exponent) == (
        2238.72113856834, "U", 1.0, 1.0)
    assert divergence_certificate(IterationCase.CASE2, 4.0, 4.0, 3) is None
    cert = divergence_certificate(IterationCase.CASE1, 2.0, 2.0, 1,
                                  kernels=(Constant(1.0), Constant(1.0)))
    assert (cert.t_first, cert.branch, cert.u_exponent, cert.v_exponent) == (
        1.2589254117941673, "U", 5.0, 5.0)
