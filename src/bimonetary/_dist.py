"""Distribution tail probabilities built on the regularized incomplete
gamma and beta functions.

Classic series/continued-fraction evaluations (Lentz's method for the
continued fractions); accurate to ~1e-14 over the argument ranges the test
statistics produce.
"""

from __future__ import annotations

import math

import numpy as np

_MAX_ITER = 500
_EPS = 3e-16
_TINY = 1e-300
#: Lentz steps whose coefficients are formed at once.
_STEPS = 16


def _nonzero(v: float) -> float:
    # Lentz's guard: a denominator within _TINY of zero becomes +_TINY
    return _TINY if abs(v) < _TINY else v


def _nonzero_each(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _TINY, _TINY, v)


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


def _beta_contfrac(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Lentz's continued fraction of I_x(a, b), entry by entry over 1-d
    # arrays: an entry's h is read at the first step that changes it by
    # less than _EPS, the step where a scalar loop would stop
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _nonzero_each(1.0 - qab * x / qap)
    h = d
    out = np.empty_like(x)
    pending = np.ones(len(x), dtype=bool)
    # as Python floats do, an overflow goes on silently; an entry that has
    # converged goes on too, but its steps are never read
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, _MAX_ITER + 1, _STEPS):
            # the next _STEPS steps' coefficients, each as a scalar step forms it
            m = np.arange(first, min(first + _STEPS, _MAX_ITER + 1))[:, None]
            m2 = 2 * m
            odd = m * (b - m) * x / ((qam + m2) * (a + m2))
            even = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
            for aa, bb in zip(odd, even):
                d = 1.0 / _nonzero_each(1.0 + aa * d)
                c = _nonzero_each(1.0 + aa / c)
                h = h * (d * c)
                d = 1.0 / _nonzero_each(1.0 + bb * d)
                c = _nonzero_each(1.0 + bb / c)
                delta = d * c
                h = h * delta
                done = pending & (np.abs(delta - 1.0) < _EPS)
                if done.any():
                    out[done] = h[done]
                    pending &= ~done
                    if not pending.any():
                        return out
    out[pending] = h[pending]
    return out


def beta_inc(a, b, x):
    """Regularized incomplete beta I_x(a, b), of floats or entry by entry
    of arrays that broadcast together."""
    a, b, x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, x)))
    if (a <= 0.0).any() or (b <= 0.0).any():
        raise ValueError("shape parameters must be positive")
    if not ((0.0 <= x) & (x <= 1.0)).all():
        raise ValueError("argument must lie in [0, 1]")
    out = x.copy()                          # I_0 = 0 and I_1 = 1
    inner = (0.0 < x) & (x < 1.0)
    if inner.any():
        a, b, x = a[inner], b[inner], x[inner]
        # numpy's exp and log need not round as libm's do
        front = np.array([
            math.exp(
                math.lgamma(p + q)
                - math.lgamma(p)
                - math.lgamma(q)
                + p * math.log(y)
                + q * math.log1p(-y)
            )
            for p, q, y in zip(a.tolist(), b.tolist(), x.tolist())
        ])
        # symmetry keeps the continued fraction in its fast-convergence region
        direct = x < (a + 1.0) / (a + b + 2.0)
        fraction = _beta_contfrac(
            np.where(direct, a, b), np.where(direct, b, a), np.where(direct, x, 1.0 - x)
        )
        out[inner] = np.where(
            direct, front * fraction / a, 1.0 - front * fraction / b
        )
    return out[()]


def chi2_sf(x: float, df: float) -> float:
    """Chi-square survival function via the regularized incomplete gamma."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x <= 0.0:
        return 1.0
    return gamma_q(df / 2.0, x / 2.0)


def f_sf(x, df_num, df_den):
    """F-distribution survival function via the regularized incomplete beta,
    of floats or entry by entry of arrays that broadcast together."""
    x, df_num, df_den = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x, df_num, df_den))
    )
    if (df_num <= 0).any() or (df_den <= 0).any():
        raise ValueError("degrees of freedom must be positive")
    out = np.ones(x.shape)
    tail = ~(x <= 0.0)                      # a NaN goes on, as beta_inc rejects it
    x, df_num, df_den = x[tail], df_num[tail], df_den[tail]
    out[tail] = beta_inc(df_den / 2.0, df_num / 2.0, df_den / (df_den + df_num * x))
    return out[()]
