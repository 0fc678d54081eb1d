"""Acceptance suite: twelve end-to-end criteria with stated tolerances.

Each test prints a single pass/fail line so a full run doubles as a report:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize

import memwave as mw
from memwave import iteration, observables
from memwave.exponents import (
    ProblemParams,
    alpha_w,
    alpha_wm,
    generalized_strauss,
    region_from_grids,
    strauss_exponent,
)
from memwave.solver import (
    HistoryWeights,
    Profile,
    SystemConfig,
    initial_state,
    run_simulation,
    step,
)
import oracles


def _report(num, name, passed):
    print(f"\ncriterion {num:2d} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({name}) failed"


# ---------------------------------------------------------------------------
# 1. exponent formulas
# ---------------------------------------------------------------------------


def test_criterion_01_exponent_formulas():
    t0 = time.time()
    ok = True
    for n in range(2, 10):
        p = strauss_exponent(n)
        ok &= abs((n - 1) * p * p - (n + 1) * p - 2) < 1e-12
    for n in range(2, 7):
        ok &= abs(generalized_strauss(n, 1 - 1e-8) - strauss_exponent(n)) < 1e-6
    rng = np.random.default_rng(1)
    p = rng.uniform(1.01, 8.0, size=1000)
    q = rng.uniform(1.01, 8.0, size=1000)
    ok &= bool(np.all(alpha_wm(p, q, 1.0, 1.0) == alpha_w(p, q)))
    ok &= (time.time() - t0) < 1.0
    _report(1, "exponent formulas", ok)


# ---------------------------------------------------------------------------
# 2. iteration algebra
# ---------------------------------------------------------------------------


def test_criterion_02_iteration_algebra():
    t0 = time.time()
    ok = True
    pairs = [(Fraction(2), Fraction(2)), (Fraction(2), Fraction(3)),
             (Fraction(3, 2), Fraction(4))]
    for p, q in pairs:
        for n in (1, 2, 3):
            seq1 = iteration.case1_recursion(p, q, n, 25)
            seq2 = iteration.case2_recursion(p, q, n, 25)
            for j in range(1, 26):
                cf1 = iteration.case1_closed_form(p, q, n, j)
                cf2 = iteration.case2_closed_form(p, q, n, j)
                for f, want in cf1.items():
                    got = seq1[f][j - 1]
                    ok &= want == got or abs(float(want - got)) <= 1e-10 * abs(float(want))
                for f, want in cf2.items():
                    ok &= want == seq2[f][j - 1]
    for pq in (2, 6, 10):
        for j in range(3, 22, 2):
            direct = sum(Fraction(j - 2 * k) * Fraction(pq) ** k
                         for k in range((j - 3) // 2 + 1))
            ok &= oracles.sum_formula(j, pq) == direct
    ok &= (time.time() - t0) < 5.0
    _report(2, "iteration algebra", ok)


# ---------------------------------------------------------------------------
# 3. slicing
# ---------------------------------------------------------------------------


def test_criterion_03_slicing():
    ok = True
    for pq in (2.0, 6.0, 10.0):
        ell, L, L_limit = iteration.slicing_sequence(pq, 70)
        # strictly increasing while the factor exceeds 1 in double precision,
        # nondecreasing after the tail saturates
        ok &= all(b > a for (a, b), e in zip(zip(L, L[1:]), ell[1:]) if e > 1.0)
        ok &= all(b >= a for a, b in zip(L, L[1:]))
        # the limit estimate truncates its tail at 1e-14, so late partial
        # products may overshoot it by a few ulps
        ok &= all(x <= L_limit * (1.0 + 1e-12) for x in L)
        # the tail factor drops below 1e-14 at finite k
        k = 1
        while pq ** (-(k - 1) / 2.0) >= 1e-14:
            k += 1
        ok &= pq ** (-(k - 1) / 2.0) < 1e-14
        ratio = math.log1p(pq ** (-60 / 2.0)) / math.log1p(pq ** (-59 / 2.0))
        ok &= abs(ratio - pq**-0.5) < 1e-6
    _report(3, "slicing", ok)


# ---------------------------------------------------------------------------
# 4. quadrature oracles
# ---------------------------------------------------------------------------


def test_criterion_04_quadrature_oracles():
    ok = True
    families = [
        mw.RiemannLiouville(0.5), mw.RiemannLiouville(0.2),
        mw.PolynomialShifted(0.5), mw.PolynomialShifted(1.5),
        mw.Exponential(1.0), mw.Constant(1.0),
        mw.IteratedExponential(1, 1.0), mw.OscillatingPolynomial(0.5),
    ]
    for kernel in families:
        hw = HistoryWeights(kernel, 0.01)
        for m in (10, 100):
            got = hw.weights(m) @ np.ones(m + 1)
            want = oracles.closed_form_antiderivative(kernel, m * 0.01)
            ok &= abs(got - want) <= 1e-10 * max(1.0, abs(want))
    hw = HistoryWeights(mw.RiemannLiouville(0.5), 1.0 / 256.0)
    got = hw.weights(256) @ np.ones(257)
    ok &= abs(got - 1.0 / (0.5 * math.gamma(0.5))) < 1e-8
    hw = HistoryWeights(mw.Exponential(2.0), 1.0 / 256.0)
    got = hw.weights(256) @ np.ones(257)
    ok &= abs(got - 2.0 * (1.0 - math.exp(-0.5))) < 1e-8
    _report(4, "quadrature oracles", ok)


# ---------------------------------------------------------------------------
# 5. solver order
# ---------------------------------------------------------------------------


def test_criterion_05_solver_order():
    t0 = time.time()
    params = ProblemParams(1, 2.0, 2.0)
    errors = []
    for dr in (0.04, 0.02, 0.01):
        cfg = SystemConfig(params, (mw.Constant(1.0), mw.Constant(1.0)),
                           u0=Profile("gaussian", 1.0, 1.0), u1=Profile("zero"),
                           t_max=2.0, dr=dr, mode="single", linear=True, cfl=0.5)
        state = initial_state(cfg)
        for _ in range(int(round(cfg.t_max / cfg.dt))):
            step(state, cfg)
        u0 = lambda x: cfg.u0(np.abs(np.asarray(x, dtype=float)))
        sel = state.r <= 3.5
        u1 = lambda x: 0.0 * np.asarray(x, dtype=float)
        ref = np.array([oracles.dalembert_reference(u0, u1, None, state.t, x)
                        for x in state.r[sel]])
        errors.append(np.max(np.abs(state.u[sel] - ref)))
    factors = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(3.5 <= f <= 4.5 for f in factors)
    ok &= (time.time() - t0) < 30.0
    _report(5, "solver order", ok)


# ---------------------------------------------------------------------------
# 6. U'' identity   (shared coupled run reused by criterion 7)
# ---------------------------------------------------------------------------


def _identity_config(dr):
    return SystemConfig(
        ProblemParams(1, 2.0, 2.0),
        (mw.RiemannLiouville(0.5), mw.Exponential(1.0)),
        u0=Profile("gaussian", 1.0, 1.0), u1=Profile("zero"),
        v0=Profile("gaussian", 0.5, 1.0), v1=Profile("zero"),
        t_max=3.0, dr=dr, mode="coupled",
    )


@pytest.fixture(scope="module")
def identity_runs():
    runs = {}
    for dr in (1.0 / 200.0, 1.0 / 400.0):
        cfg = _identity_config(dr)
        runs[dr] = (cfg, run_simulation(cfg))
    return runs


def test_criterion_06_u_doubleprime_identity(identity_runs):
    ok = True
    for dr, bound in ((1.0 / 200.0, 0.05), (1.0 / 400.0, 0.025)):
        cfg, res = identity_runs[dr]
        resid = oracles.check_u_doubleprime_identity(
            res.trace, cfg.kernels[0], cfg.params.p
        )
        ok &= resid < bound
    _report(6, "U'' identity", ok)


# ---------------------------------------------------------------------------
# 7. U0 lower bound
# ---------------------------------------------------------------------------


def test_criterion_07_u0_lower_bound(identity_runs):
    ok = True
    for cfg, res in identity_runs.values():
        held, _ = oracles.check_u0_lower_bound(res.trace, cfg)
        ok &= held
    # velocity-dominated data as well
    cfg = SystemConfig(
        ProblemParams(1, 2.0, 2.0), (mw.Constant(1.0), mw.Constant(1.0)),
        u0=Profile("zero"), u1=Profile("gaussian", 1.0, 1.0),
        t_max=2.0, dr=0.01, mode="single",
    )
    held, _ = oracles.check_u0_lower_bound(run_simulation(cfg).trace, cfg)
    ok &= held
    _report(7, "U0 lower bound", ok)


# ---------------------------------------------------------------------------
# 8. discrete eigen-identity
# ---------------------------------------------------------------------------


def test_criterion_08_eigen_identity():
    ok = True
    dr = 1e-3
    r = np.arange(0.1, 5.0 + dr / 2.0, dr)
    for n in (1, 2, 3):
        phi = observables.phi_eigenfunction(n, r)
        lap = np.empty_like(phi)
        lap[1:-1] = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dr**2
        if n > 1:
            lap[1:-1] += (n - 1) / r[1:-1] * (phi[2:] - phi[:-2]) / (2.0 * dr)
        rel = np.max(np.abs(lap[1:-1] - phi[1:-1]) / phi[1:-1])
        ok &= rel < 1e-3
    _report(8, "discrete eigen-identity", ok)


# ---------------------------------------------------------------------------
# 9. third-order-in-time equivalence
# ---------------------------------------------------------------------------


def test_criterion_09_mgt_equivalence():
    # the memory form run by the solver against RK4 on the third-order form
    params = ProblemParams(1, 2.0, 2.0)
    gaps = []
    for dr in (0.02, 0.01):
        cfg = SystemConfig(params, (mw.Exponential(1.0),) * 2, u0=Profile("gaussian", 0.5, 1.0),
                           u1=Profile("zero"), t_max=2.0, dr=dr, mode="single")
        a = run_simulation(cfg).trace.column("maxnorm_u")[-1]
        b = np.max(np.abs(oracles.mgt_reference(cfg)))
        gaps.append(abs(a - b) / abs(a))
    ok = gaps[0] < 0.02
    ok &= gaps[1] <= gaps[0] / 2.0  # halves (at least) under mesh refinement
    t = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    resid = oracles.conv_derivative_identity(mw.Exponential(1.0), np.sin(t) ** 2 + 0.3 * t, t)
    ok &= resid < 1e-4
    _report(9, "MGT equivalence", ok)


# ---------------------------------------------------------------------------
# 10. Picard contraction
# ---------------------------------------------------------------------------


def test_criterion_10_picard_contraction():
    cfg = SystemConfig(
        ProblemParams(1, 2.0, 2.0),
        (mw.RiemannLiouville(0.5), mw.RiemannLiouville(0.5)),
        u0=Profile("gaussian", 100.0, 1.0), u1=Profile("zero"),
        v0=Profile("gaussian", 100.0, 1.0), v1=Profile("zero"),
        t_max=1.0, dr=0.01, mode="coupled",
    )
    d = oracles.picard_iterate(cfg, 0.25, 7, dx=0.0125)
    ratios = [d[k + 1] / d[k] for k in range(1, 6)]
    ok = all(r < 1.0 for r in ratios)
    d_half = oracles.picard_iterate(cfg, 0.125, 2, dx=0.0125)
    observed = (d[1] / d[0]) / (d_half[1] / d_half[0])
    # the memory Duhamel operator's Lipschitz factor scales like T^2 G(T),
    # i.e. T^2.5 for the order-1/2 fractional kernel
    predicted = 2.0**2.5
    ok &= predicted / 1.5 <= observed <= predicted * 1.5
    _report(10, "Picard contraction", ok)


# ---------------------------------------------------------------------------
# 11. blow-up demonstration
# ---------------------------------------------------------------------------


def test_criterion_11_blowup_demonstration():
    params = ProblemParams(1, 2.0, 2.0)
    estimates = []
    ok = True
    for dr in (0.02, 0.01):
        cfg = SystemConfig(params, (mw.Constant(1.0), mw.Constant(1.0)),
                           u0=Profile("cosine_bump", 10.0, 1.0), u1=Profile("zero"),
                           t_max=20.0, dr=dr, mode="single")
        res = run_simulation(cfg)
        verdict = observables.detect_blowup(res.trace, cfg)
        ok &= verdict.blew_up and verdict.t_stop < 20.0
        ok &= verdict.T_estimate is not None
        estimates.append(verdict.T_estimate)
    ok &= abs(estimates[0] - estimates[1]) / estimates[1] < 0.10
    cert = oracles.divergence_certificate(
        oracles.IterationCase.CASE1, 2.0, 2.0, 1,
        kernels=(mw.Constant(1.0), mw.Constant(1.0)),
    )
    ok &= cert is not None and cert.u_exponent > 0.0
    _report(11, "blow-up demonstration", ok)


# ---------------------------------------------------------------------------
# 12. region maps
# ---------------------------------------------------------------------------


def test_criterion_12_region_maps():
    n = 3
    ps = np.linspace(1.2, 4.0, 200)
    qs = np.linspace(1.2, 4.0, 200)
    fast = oracles.margin_plane(region_from_grids(n, None, None, ps, qs)) > 0.0
    dq = qs[1] - qs[0]
    ok = True
    for i, p in enumerate(ps):
        row = fast[i]
        flip = int(np.argmin(row)) if not row[-1] else len(qs)
        # analytic boundary: alpha_w(p, q) = 1 in q, if it crosses the range
        f = lambda q: float(alpha_w(p, q)) - 1.0
        if f(qs[0]) > 0 and f(qs[-1]) < 0:
            q_star = optimize.brentq(f, qs[0], qs[-1])
            ok &= abs(qs[min(flip, len(qs) - 1)] - q_star) <= dq + 1e-12
        else:
            ok &= bool(np.all(row)) if f(qs[-1]) > 0 else True
    near_one = oracles.margin_plane(region_from_grids(n, 1.0 - 1e-9, 1.0 - 1e-9, ps, qs)) > 0.0
    differing = int(np.sum(near_one != fast))
    ok &= differing == 0
    coarser = oracles.margin_plane(region_from_grids(n, 1.0 - 1e-4, 1.0 - 1e-4, ps, qs)) > 0.0
    ok &= int(np.sum(coarser != fast)) <= 200
    _report(12, "region maps", ok)
