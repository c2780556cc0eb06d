"""Distribution tail probabilities built on the regularized incomplete
gamma and beta functions.

Classic series/continued-fraction evaluations (Lentz's method for the
continued fractions); accurate to ~1e-14 over the argument ranges the test
statistics produce.
"""

from __future__ import annotations

import math

_MAX_ITER = 500
_EPS = 3e-16
_TINY = 1e-300


def _nonzero(v: float) -> float:
    # Lentz's guard: a denominator within _TINY of zero becomes +_TINY
    return _TINY if abs(v) < _TINY else v


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _gamma_p_series(a: float, x: float) -> float:
    # lower regularized gamma by power series; converges fast for x < a + 1
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> float:
    # upper regularized gamma by continued fraction; for x >= a + 1
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / _nonzero(an * d + b)
        c = _nonzero(b + an / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0:
        raise ValueError("shape must be positive")
    if x < 0.0:
        raise ValueError("argument must be non-negative")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def _beta_contfrac(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def beta_inc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("argument must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    # symmetry keeps the continued fraction in its fast-convergence region
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def chi2_sf(x: float, df: float) -> float:
    """Chi-square survival function via the regularized incomplete gamma."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x <= 0.0:
        return 1.0
    return gamma_q(df / 2.0, x / 2.0)


def f_sf(x: float, df_num: float, df_den: float) -> float:
    """F-distribution survival function via the regularized incomplete beta."""
    if df_num <= 0 or df_den <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x <= 0.0:
        return 1.0
    return beta_inc(df_den / 2.0, df_num / 2.0, df_den / (df_den + df_num * x))
