"""Iteration-frame sequences, their closed forms, and slicing products.

Two regimes share the same machinery: a direct iteration for slow-decay
kernels (Case 1) and a sliced iteration for fast-decay kernels (Case 2).  All
exponent sequences are carried as exact rationals so that the geometric growth
(pq)^(j/2) never loses precision; only the logarithmic coefficient bounds use
floats.  The ``sequences`` and ``verify`` commands check the closed forms
against the recursions.  The index thresholds and divergence certificates
built on these sequences, which no command runs, live with the test
references in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "Case1Sequences",
    "Case2Sequences",
    "Case1Terms",
    "Case2Terms",
    "case1_recursion",
    "case1_closed_form",
    "case2_recursion",
    "case2_closed_form",
    "term_fields",
    "slicing_sequence",
]

# Tail factor below which the infinite slicing product is declared converged.
_PRODUCT_TAIL = 1e-14


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass
class Case1Sequences:
    """Per-index quantities of the direct iteration, j = 1..j_max.

    Lists are indexed so that entry 0 holds j = 1.  The log coefficients are
    lower bounds on log D_j, with the seeds D_1, D~_1 and the non-constructive
    constants C_0, C~_0 normalized to one (log 0).
    """

    p: Fraction
    q: Fraction
    n: int
    a: list
    a_t: list
    alpha: list
    alpha_t: list
    b: list
    b_t: list
    beta: list
    beta_t: list
    logD: list
    logD_t: list

    def at(self, j: int) -> Case1Terms:
        return _terms_at(self, Case1Terms, j)


@dataclass
class Case1Terms:
    j: int
    a: Fraction | None
    a_t: Fraction | None
    alpha: Fraction | None
    alpha_t: Fraction | None
    b: Fraction | None
    b_t: Fraction | None
    beta: Fraction
    beta_t: Fraction


@dataclass
class Case2Sequences:
    p: Fraction
    q: Fraction
    n: int
    theta: list
    theta_t: list
    sigma: list
    sigma_t: list
    ell: list
    L: list
    L_limit: float
    logQ: list
    logQ_t: list

    def at(self, j: int) -> Case2Terms:
        return _terms_at(self, Case2Terms, j)


@dataclass
class Case2Terms:
    j: int
    theta: Fraction | None
    theta_t: Fraction | None
    sigma: Fraction
    sigma_t: Fraction


def term_fields(terms) -> tuple:
    """The sequence names of Case1Terms or Case2Terms: every field but j."""
    return tuple(f.name for f in fields(terms))[1:]


def _terms_at(seq, terms, j: int):
    return terms(j, *(getattr(seq, name)[j - 1] for name in term_fields(terms)))


def case1_recursion(p, q, n: int, j_max: int) -> Case1Sequences:
    """Fill the direct-iteration sequences from the j = 1 seeds.

    Seeds: a=1, alpha=0, b=(n-1)p/2, beta=n+2 and the tilded mirror with q.
    Each induction step gains one kernel power, a factor p (or q) on the old
    exponents, and three extra time integrations.  The log coefficients start
    from D_1 = D~_1 = 1, with the constants C_0, C~_0 normalized to one.
    """
    p, q = _rat(p), _rat(q)
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
    return Case1Sequences(p, q, n, a, a_t, alpha, alpha_t, b, b_t, beta, beta_t, logD, logD_t)


def case1_closed_form(p, q, n: int, j: int) -> Case1Terms:
    """Closed forms of the direct-iteration sequences at index j.

    Odd j yields every sequence; even j only the beta pair (the remaining
    even-index closed forms are not stated and are left to the recursion).
    """
    p, q = _rat(p), _rat(q)
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
        return Case1Terms(j, a, a_t, alpha, alpha_t, b, b_t, beta, beta_t)
    w = pq ** (j // 2)
    beta = ((n + 2) * (pq - 1) + 3 * (q + 1)) / ((pq - 1) * q) * w - 3 * (p + 1) / (pq - 1)
    beta_t = ((n + 2) * (pq - 1) + 3 * (p + 1)) / ((pq - 1) * p) * w - 3 * (q + 1) / (pq - 1)
    return Case1Terms(j, None, None, None, None, None, None, beta, beta_t)


def case2_recursion(p, q, n: int, j_max: int) -> Case2Sequences:
    """Fill the sliced-iteration sequences from the j = 1 seeds.

    Seeds: theta=(n-1)p/2, sigma=n+1 and the tilded mirror.  The slicing
    factors ell_k and partial products L_j are carried alongside; each step of
    the log coefficient pays a (pq)^-j loss from the shrinking slices.  The
    log coefficients start from Q_1 = Q~_1 = 1, with the constants C, C~
    normalized to one.
    """
    p, q = _rat(p), _rat(q)
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
    ell, L, L_limit = slicing_sequence(pq, j_max)
    return Case2Sequences(p, q, n, theta, theta_t, sigma, sigma_t, ell, L, L_limit, logQ, logQ_t)


def case2_closed_form(p, q, n: int, j: int) -> Case2Terms:
    """Closed forms of the sliced-iteration sequences at index j.

    Both parities are available for sigma; theta only at odd j.
    """
    p, q = _rat(p), _rat(q)
    pq = p * q
    if j < 1:
        raise DomainError("index must be >= 1")
    if j % 2 == 1:
        w = pq ** ((j - 1) // 2)
        theta = (2 * n + (n - 1) * p) / Fraction(2) * w - n
        theta_t = (2 * n + (n - 1) * q) / Fraction(2) * w - n
        sigma = ((n + 1) * (pq - 1) + 2 * (p + 1)) / (pq - 1) * w - 2 * (p + 1) / (pq - 1)
        sigma_t = ((n + 1) * (pq - 1) + 2 * (q + 1)) / (pq - 1) * w - 2 * (q + 1) / (pq - 1)
        return Case2Terms(j, theta, theta_t, sigma, sigma_t)
    w = pq ** (j // 2)
    sigma = ((n + 1) * (pq - 1) + 2 * (q + 1)) / ((pq - 1) * q) * w - 2 * (p + 1) / (pq - 1)
    sigma_t = ((n + 1) * (pq - 1) + 2 * (p + 1)) / ((pq - 1) * p) * w - 2 * (q + 1) / (pq - 1)
    return Case2Terms(j, None, None, sigma, sigma_t)


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
