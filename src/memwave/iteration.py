"""Iteration-frame sequences, their closed forms, and slicing products.

Two regimes share the same machinery: a direct iteration for slow-decay
kernels (Case 1) and a sliced iteration for fast-decay kernels (Case 2).  All
exponent sequences are carried as exact rationals so that the geometric growth
(pq)^(j/2) never loses precision; only the logarithmic coefficient bounds use
floats.  A recursion returns one mapping from sequence name to list, keyed
by the columns of ``sequences.csv``; a closed form returns the mapping of the
sequences it states at one index, and the ``sequences`` and ``verify``
commands check it against the recursion.  The index thresholds and
divergence certificates built on these sequences, which no command runs,
live with the test references in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "case1_recursion",
    "case1_closed_form",
    "case2_recursion",
    "case2_closed_form",
    "slicing_sequence",
]

# Tail factor below which the infinite slicing product is declared converged.
_PRODUCT_TAIL = 1e-14


def case1_recursion(p, q, n: int, j_max: int) -> dict:
    """The direct-iteration sequences for j = 1..j_max, filled from the seeds.

    Returns a mapping from each sequence name to its list, in the column
    order of ``sequences.csv``: a, a_t, alpha, alpha_t, b, b_t, beta, beta_t
    (exact rationals), then logD, logD_t (floats).  Entry 0 of each list holds
    j = 1.

    Seeds: a=1, alpha=0, b=(n-1)p/2, beta=n+2 and the tilded mirror with q.
    Each induction step gains one kernel power, a factor p (or q) on the old
    exponents, and three extra time integrations.  logD and logD_t are lower
    bounds on log D_j and log D~_j, with the seeds D_1, D~_1 and the
    non-constructive constants C_0, C~_0 normalized to one (log 0).
    """
    p, q = Fraction(p), Fraction(q)
    if p <= 1 or q <= 1 or j_max < 1:
        raise ConfigError("need p, q > 1 and j_max >= 1")
    a = [Fraction(1)]
    alpha = [Fraction(0)]
    b = [Fraction(n - 1) * p / 2]
    beta = [Fraction(n + 2)]
    a_t = [Fraction(0)]
    alpha_t = [Fraction(1)]
    b_t = [Fraction(n - 1) * q / 2]
    beta_t = [Fraction(n + 2)]
    logD = [0.0]
    logD_t = [0.0]
    for _ in range(1, j_max):
        bt, b_ = beta_t[-1], beta[-1]
        logD.append(
            float(p) * logD_t[-1]
            - math.log(float((1 + bt * p) * (2 + bt * p) * (3 + bt * p)))
        )
        logD_t.append(
            float(q) * logD[-2]
            - math.log(float((1 + b_ * q) * (2 + b_ * q) * (3 + b_ * q)))
        )
        a.append(1 + a_t[-1] * p)
        alpha.append(alpha_t[-1] * p)
        b.append(n * (p - 1) + b_t[-1] * p)
        beta.append(3 + beta_t[-1] * p)
        a_t.append(a[-2] * q)
        alpha_t.append(1 + alpha[-2] * q)
        b_t.append(n * (q - 1) + b[-2] * q)
        beta_t.append(3 + beta[-2] * q)
    return dict(a=a, a_t=a_t, alpha=alpha, alpha_t=alpha_t, b=b, b_t=b_t,
                beta=beta, beta_t=beta_t, logD=logD, logD_t=logD_t)


def case1_closed_form(p, q, n: int, j: int) -> dict:
    """Closed forms of the direct-iteration sequences at index j.

    Returns a mapping from sequence name to its exact value, holding only the
    sequences stated at j: every exact sequence of ``case1_recursion`` at odd
    j, only beta and beta_t at even j (the remaining even-index closed forms
    are not stated and are left to the recursion).
    """
    p, q = Fraction(p), Fraction(q)
    pq = p * q
    if j < 1:
        raise DomainError("index must be >= 1")
    if j % 2 == 1:
        w = pq ** ((j - 1) // 2)
        a = pq / (pq - 1) * w - Fraction(1) / (pq - 1)
        a_t = q / (pq - 1) * (w - 1)
        alpha = p / (pq - 1) * (w - 1)
        alpha_t = a
        b = Fraction((n - 1)) * p / 2 * w + n * (w - 1)
        b_t = Fraction((n - 1)) * q / 2 * w + n * (w - 1)
        beta = ((n + 2) * (pq - 1) + 3 * (p + 1)) / (pq - 1) * w - 3 * (p + 1) / (pq - 1)
        beta_t = ((n + 2) * (pq - 1) + 3 * (q + 1)) / (pq - 1) * w - 3 * (q + 1) / (pq - 1)
        return dict(a=a, a_t=a_t, alpha=alpha, alpha_t=alpha_t, b=b, b_t=b_t,
                    beta=beta, beta_t=beta_t)
    w = pq ** (j // 2)
    beta = ((n + 2) * (pq - 1) + 3 * (q + 1)) / ((pq - 1) * q) * w - 3 * (p + 1) / (pq - 1)
    beta_t = ((n + 2) * (pq - 1) + 3 * (p + 1)) / ((pq - 1) * p) * w - 3 * (q + 1) / (pq - 1)
    return dict(beta=beta, beta_t=beta_t)


def case2_recursion(p, q, n: int, j_max: int) -> dict:
    """The sliced-iteration sequences for j = 1..j_max, filled from the seeds.

    Returns a mapping from each sequence name to its list, in the column
    order of ``sequences.csv``: theta, theta_t, sigma, sigma_t (exact
    rationals), then ell, L, logQ, logQ_t (floats).  Entry 0 of each list
    holds j = 1.

    Seeds: theta=(n-1)p/2, sigma=n+1 and the tilded mirror.  The slicing
    factors ell_k and partial products L_j of ``slicing_sequence`` are carried
    alongside; each step of the log coefficient pays a (pq)^-j loss from the
    shrinking slices.  logQ and logQ_t are lower bounds on log Q_j and
    log Q~_j, with the seeds Q_1, Q~_1 and the non-constructive constants
    C, C~ normalized to one (log 0).
    """
    p, q = Fraction(p), Fraction(q)
    if p <= 1 or q <= 1 or j_max < 1:
        raise ConfigError("need p, q > 1 and j_max >= 1")
    pq = float(p * q)
    theta = [Fraction(n - 1) * p / 2]
    sigma = [Fraction(n + 1)]
    theta_t = [Fraction(n - 1) * q / 2]
    sigma_t = [Fraction(n + 1)]
    logQ = [0.0]
    logQ_t = [0.0]
    for j in range(1, j_max):
        st, s_ = sigma_t[-1], sigma[-1]
        logQ.append(
            -j * math.log(pq)
            + float(p) * logQ_t[-1]
            - math.log(float((st * p + 1) * (st * p + 2)))
        )
        logQ_t.append(
            -j * math.log(pq)
            + float(q) * logQ[-2]
            - math.log(float((s_ * q + 1) * (s_ * q + 2)))
        )
        theta.append(n * (p - 1) + theta_t[-1] * p)
        sigma.append(sigma_t[-1] * p + 2)
        theta_t.append(n * (q - 1) + theta[-2] * q)
        sigma_t.append(sigma[-2] * q + 2)
    ell, L, _ = slicing_sequence(pq, j_max)
    return dict(theta=theta, theta_t=theta_t, sigma=sigma, sigma_t=sigma_t,
                ell=ell, L=L, logQ=logQ, logQ_t=logQ_t)


def case2_closed_form(p, q, n: int, j: int) -> dict:
    """Closed forms of the sliced-iteration sequences at index j.

    Returns a mapping from sequence name to its exact value, holding only the
    sequences stated at j: theta, theta_t, sigma and sigma_t at odd j, only
    sigma and sigma_t at even j.
    """
    p, q = Fraction(p), Fraction(q)
    pq = p * q
    if j < 1:
        raise DomainError("index must be >= 1")
    if j % 2 == 1:
        w = pq ** ((j - 1) // 2)
        theta = (2 * n + (n - 1) * p) / Fraction(2) * w - n
        theta_t = (2 * n + (n - 1) * q) / Fraction(2) * w - n
        sigma = ((n + 1) * (pq - 1) + 2 * (p + 1)) / (pq - 1) * w - 2 * (p + 1) / (pq - 1)
        sigma_t = ((n + 1) * (pq - 1) + 2 * (q + 1)) / (pq - 1) * w - 2 * (q + 1) / (pq - 1)
        return dict(theta=theta, theta_t=theta_t, sigma=sigma, sigma_t=sigma_t)
    w = pq ** (j // 2)
    sigma = ((n + 1) * (pq - 1) + 2 * (q + 1)) / ((pq - 1) * q) * w - 2 * (p + 1) / (pq - 1)
    sigma_t = ((n + 1) * (pq - 1) + 2 * (p + 1)) / ((pq - 1) * p) * w - 2 * (q + 1) / (pq - 1)
    return dict(sigma=sigma, sigma_t=sigma_t)


def slicing_sequence(pq: float, j_max: int):
    """Slicing factors ell_k, partial products L_j, and the limit product.

    ell_k = 1 + (pq)^(-(k-1)/2); the limit is accumulated until the tail
    factor drops below 1e-14.
    """
    pq = float(pq)
    if pq <= 1.0:
        raise ConfigError("slicing product diverges unless pq > 1")
    root = pq ** -0.5
    ell = [1.0 + root ** (k - 1) for k in range(1, j_max + 1)]
    L = list(np.cumprod(ell))
    L_limit = 1.0
    k = 1
    factor = 2.0
    while factor - 1.0 >= _PRODUCT_TAIL:
        L_limit *= factor
        k += 1
        factor = 1.0 + root ** (k - 1)
    return ell, L, L_limit
