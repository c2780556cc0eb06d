"""Deliberately naive textbook versions of the package's statistics, built
on scipy, for use as test oracles where statsmodels is absent.

Nothing here is shared with the package: every candidate model is its own
``scipy.linalg.lstsq`` fit on a design assembled column by column, standard
errors come from an SVD, and tail probabilities come from ``scipy.stats``.
:func:`format_cell` is the CSV writer's cell rule, one value at a time, and
:func:`f_sf` the package's F tail, one value at a time.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.stats


def _ssr(design: np.ndarray, target: np.ndarray) -> float:
    beta, *_ = scipy.linalg.lstsq(design, target)
    resid = target - design @ beta
    return float(resid @ resid)


def granger_f(x_cause, y_effect, lag: int) -> tuple[float, float, int, int]:
    """(F, p, df_num, df_den) of "x Granger-causes y" at one lag: y on a
    constant and its own lags 1..lag, then with x's lags 1..lag added, both
    on rows lag..T-1."""
    x = np.asarray(x_cause, dtype=float)
    y = np.asarray(y_effect, dtype=float)
    T = len(y)
    rows = T - lag
    target = y[lag:]
    const = np.ones((rows, 1))
    own = np.column_stack([y[lag - j : T - j] for j in range(1, lag + 1)])
    other = np.column_stack([x[lag - j : T - j] for j in range(1, lag + 1)])
    ssr_r = _ssr(np.hstack([const, own]), target)
    ssr_u = _ssr(np.hstack([const, own, other]), target)
    df_den = rows - 2 * lag - 1
    f_stat = ((ssr_r - ssr_u) / lag) / (ssr_u / df_den)
    return f_stat, float(scipy.stats.f.sf(f_stat, lag, df_den)), lag, df_den


def ols(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """(beta, standard errors) of Y on X, for a 1-d or (n, m) Y.

    Both work on the column-scaled design ``X N^-1``, ``N = diag(column
    norms)``, so their error does not grow with the spread of the column
    magnitudes. beta is ``N^-1`` times ``scipy.linalg.lstsq``'s solution on
    it. The standard errors are ``sqrt(diag((X'X)^-1) SSR / (n - k))``, with
    ``(X'X)^-1 = N^-1 V S^-2 V' N^-1`` from its SVD ``U S V'``.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n, k = X.shape
    norms = np.linalg.norm(X, axis=0)
    scaled, *_ = scipy.linalg.lstsq(X / norms, Y)
    beta = (scaled.T / norms).T
    resid = Y - X @ beta
    sigma2 = np.einsum("i...,i...->...", resid, resid) / (n - k)
    _, s, vt = scipy.linalg.svd(X / norms, full_matrices=False)
    diag = ((vt.T / s) ** 2).sum(axis=1) / norms**2
    return beta, np.sqrt(np.multiply.outer(diag, sigma2))


def _adf_regression(y: np.ndarray, lags: int, t0: int):
    """Rows t = t0..T-1 of dy_t on [1, y_{t-1}, dy_{t-1}, .., dy_{t-lags}],
    where dy_t = y_t - y_{t-1}."""
    T = len(y)
    dy = np.diff(y)                    # dy[t - 1] is dy_t
    columns = [np.ones(T - t0), y[t0 - 1 : T - 1]]
    columns += [dy[t0 - 1 - j : T - 1 - j] for j in range(1, lags + 1)]
    return np.column_stack(columns), dy[t0 - 1 :]


def adf(series, max_lags: int) -> tuple[float, int]:
    """(t-statistic on y_{t-1}, lag) of the constant-only augmented
    Dickey-Fuller regression.

    Each lag 0..max_lags is its own ``scipy.linalg.lstsq`` fit on the
    common sample t = max_lags+1..T-1; the lag with the smallest
    ``n log(SSR / n) + 2 (2 + lag)`` (the first on a tie) is refit on all
    its usable rows t = lag+1..T-1.
    """
    y = np.asarray(series, dtype=float)
    n = len(y) - (max_lags + 1)
    aics = [
        n * np.log(_ssr(*_adf_regression(y, lags, max_lags + 1)) / n)
        + 2.0 * (2 + lags)
        for lags in range(max_lags + 1)
    ]
    lag = int(np.argmin(aics))
    beta, stderr = ols(*_adf_regression(y, lag, lag + 1))
    return float(beta[1] / stderr[1]), lag


def _var_regression(data: np.ndarray, p: int, t0: int):
    """Rows t = t0..T-1 of y_t on [1, y_{t-1}, .., y_{t-p}]."""
    T = len(data)
    columns = [np.ones((T - t0, 1))]
    columns += [data[t0 - s : T - s] for s in range(1, p + 1)]
    return np.hstack(columns), data[t0:]


def _log_det_criterion(sigma_ml: np.ndarray, p: int, T: int, criterion: str) -> float:
    K = len(sigma_ml)
    log_det = float(np.log(scipy.linalg.det(sigma_ml)))
    free = p * K * K
    return {
        "aic": log_det + 2.0 * free / T,
        "bic": log_det + np.log(T) * free / T,
        "hqic": log_det + 2.0 * np.log(np.log(T)) * free / T,
        "fpe": np.exp(log_det) * ((T + K * p + 1) / (T - K * p - 1)) ** K,
    }[criterion]


def var_select(data, max_lags: int, criterion: str):
    """(p, criterion value, c, A, sigma, stderr) of a VAR with intercept
    whose order is chosen by ``criterion``.

    Each order 0..max_lags is its own ``scipy.linalg.lstsq`` fit on the
    common sample t = max_lags..T-1, scored with the log-determinant of its
    maximum-likelihood residual covariance; the smallest score (the first on
    a tie) is refit by :func:`ols` on all its usable rows t = p..T-1. ``A``
    holds one (K, K) matrix per lag, ``sigma`` is df-corrected and
    ``stderr`` has one row per regressor (constant, then lag blocks).
    """
    data = np.asarray(data, dtype=float)
    T, K = data.shape
    n = T - max_lags
    scores = []
    for p in range(max_lags + 1):
        X, Y = _var_regression(data, p, max_lags)
        beta, *_ = scipy.linalg.lstsq(X, Y)
        resid = Y - X @ beta
        scores.append(_log_det_criterion(resid.T @ resid / n, p, n, criterion))
    p = int(np.argmin(scores))
    X, Y = _var_regression(data, p, p)
    beta, stderr = ols(X, Y)
    resid = Y - X @ beta
    sigma = resid.T @ resid / (len(Y) - X.shape[1])
    A = [beta[1 + s * K : 1 + (s + 1) * K].T for s in range(p)]
    return p, scores[p], beta[0], A, sigma, stderr


def johansen(data, k_ar_diff: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, trace statistics) of the Johansen test with an
    unrestricted constant.

    dy_t and y_{t-1}, t = k_ar_diff+1..T-1, are each residualized by
    ``scipy.linalg.lstsq`` on [1, dy_{t-1}, .., dy_{t-k_ar_diff}]; the
    eigenvalues solve ``S_k0 S_00^-1 S_0k v = lambda S_kk v`` by
    ``scipy.linalg.eigh``, and the trace statistic for rank r is ``-n
    sum_{i>r} log(1 - lambda_i)``.
    """
    data = np.asarray(data, dtype=float)
    T = len(data)
    dy = np.diff(data, axis=0)                 # dy[t - 1] is dy_t
    t0 = k_ar_diff + 1
    n = T - t0
    Z = np.hstack(
        [np.ones((n, 1))] + [dy[t0 - 1 - j : T - 1 - j] for j in range(1, k_ar_diff + 1)]
    )

    def residuals(target):
        beta, *_ = scipy.linalg.lstsq(Z, target)
        return target - Z @ beta

    r0 = residuals(dy[t0 - 1 :])
    rk = residuals(data[t0 - 1 : T - 1])
    s00, skk, s0k = r0.T @ r0 / n, rk.T @ rk / n, r0.T @ rk / n
    eigenvalues = scipy.linalg.eigh(
        s0k.T @ scipy.linalg.solve(s00, s0k), skk, eigvals_only=True
    )[::-1]
    trace = -n * np.cumsum(np.log(1.0 - eigenvalues)[::-1])[::-1]
    return eigenvalues, trace


def ma_responses(A, sigma, horizon: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(psi, theta) of a VAR with lag matrices ``A``, h = 0..horizon.

    Column j of ``psi[h]`` is the response at step h to a unit impulse in
    variable j at step 0, found by running the VAR recursion without
    intercept from zero history; ``theta[h] = psi[h] P`` with ``P`` the
    lower ``scipy.linalg.cholesky`` factor of ``sigma``.
    """
    K = len(sigma)
    p = len(A)
    psi = [np.empty((K, K)) for _ in range(horizon + 1)]
    for j in range(K):
        path = [np.zeros(K)] * p + [np.eye(K)[j]]
        for _ in range(horizon):
            path.append(sum((A[s] @ path[-1 - s] for s in range(p)), np.zeros(K)))
        for h in range(horizon + 1):
            psi[h][:, j] = path[p + h]
    chol = scipy.linalg.cholesky(sigma, lower=True)
    return psi, [m @ chol for m in psi]


def fevd(A, sigma, horizon: int) -> np.ndarray:
    """(K, horizon, K) forecast-error variance shares: entry [i, h, j] is
    ``sum_{s<=h} theta_s[i, j]^2`` over the variance of the (h+1)-step
    forecast error of variable i, ``sum_{s<=h} (psi_s sigma psi_s')[i, i]``."""
    psi, theta = ma_responses(A, sigma, horizon - 1)
    contribution = np.cumsum([t**2 for t in theta], axis=0)           # (H, K, K)
    variance = np.cumsum([np.diag(m @ sigma @ m.T) for m in psi], axis=0)  # (H, K)
    return (contribution / variance[:, :, None]).transpose(1, 0, 2)


def forecast_path(c, A, history, steps: int) -> np.ndarray:
    """(steps, K) zero-shock forecast: ``y_t = c + sum_s A_s y_{t-s}``
    iterated from the rows of ``history``, the last row being the latest."""
    path = [np.asarray(row, dtype=float) for row in history]
    for _ in range(steps):
        path.append(c + sum(A[s] @ path[-1 - s] for s in range(len(A))))
    return np.array(path[len(history) :])


def companion_matrix(A) -> np.ndarray:
    """(Kp, Kp) companion matrix of a VAR with the p >= 1 lag matrices
    ``A``: ``[A_1 .. A_p]`` over ``[I 0]``, so the lags shift down a block."""
    K, p = len(A[0]), len(A)
    return np.vstack([np.hstack(A), np.eye(K * (p - 1), K * p)])


def is_stable(A) -> bool:
    """Every eigenvalue of the companion matrix lies inside the unit circle,
    by ``scipy.linalg.eigvals``."""
    return bool(np.abs(scipy.linalg.eigvals(companion_matrix(A))).max() < 1.0)


def unconditional_mean(c, A) -> np.ndarray:
    """The mean ``mu`` of a stable VAR: ``(I - A_1 - .. - A_p) mu = c``, by
    ``scipy.linalg.solve``."""
    K = len(c)
    return scipy.linalg.solve(np.eye(K) - sum(A, np.zeros((K, K))), c)


def format_cell(value: float) -> str:
    """CSV text of one number: empty for NaN, else the round-tripping
    ``repr`` of the plain float, the writer's cell rule."""
    return "" if math.isnan(value) else repr(float(value))


def var_log_likelihood(residuals) -> float:
    """Gaussian log-likelihood of the VAR residuals at the maximum-likelihood
    covariance ``U'U / T``: the sum of ``scipy.stats.multivariate_normal``
    log-densities."""
    U = np.asarray(residuals, dtype=float)
    cov = U.T @ U / len(U)
    density = scipy.stats.multivariate_normal(np.zeros(len(cov)), cov)
    return float(density.logpdf(U).sum())


def ljung_box(series, lags: int) -> tuple[float, float]:
    """(Q, p) of the Ljung-Box test at ``lags``: ``Q = T(T+2) sum_k
    r_k^2 / (T-k)`` with the autocorrelations ``r_k`` read off
    ``np.correlate`` of the centered series, and p from ``scipy.stats.chi2``."""
    x = np.asarray(series, dtype=float)
    T = len(x)
    x = x - x.mean()
    acov = np.correlate(x, x, "full")[T - 1 :]
    r = acov[1 : lags + 1] / acov[0]
    q = T * (T + 2) * float(np.sum(r**2 / (T - np.arange(1, lags + 1))))
    return q, float(scipy.stats.chi2.sf(q, lags))


def pca(data, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(explained variance ratios, (K, n) axes) of the top n principal
    components of the centered data, from ``scipy.linalg.svd``."""
    X = np.asarray(data, dtype=float)
    _, s, vt = scipy.linalg.svd(X - X.mean(axis=0), full_matrices=False)
    return (s**2 / np.sum(s**2))[:n], vt[:n].T


def trailing_windows(
    x, y, window: int, min_periods: int
) -> tuple[np.ndarray, np.ndarray]:
    """(means, correlations) per trailing window, one window at a time: at
    slot t, over the last ``min(window, t+1)`` slots, the mean of the present
    values of ``x`` when at least ``min_periods`` are present, and the
    two-pass Pearson correlation of ``x`` with ``y`` over their complete pairs
    when there are at least ``max(min_periods, 2)`` and neither side is
    constant; NaN otherwise."""
    means = np.full(len(x), np.nan)
    corrs = np.full(len(x), np.nan)
    for t in range(len(x)):
        cx = x[max(0, t - window + 1) : t + 1]
        cy = y[max(0, t - window + 1) : t + 1]
        px = cx[~np.isnan(cx)]
        if len(px) >= min_periods:
            means[t] = px.mean()
        ok = ~(np.isnan(cx) | np.isnan(cy))
        vx, vy = cx[ok], cy[ok]
        if len(vx) < max(min_periods, 2) or np.ptp(vx) == 0 or np.ptp(vy) == 0:
            continue
        dx, dy = vx - vx.mean(), vy - vy.mean()
        corrs[t] = (dx @ dy) / np.sqrt((dx @ dx) * (dy @ dy))
    return means, corrs


# -- the F tail one value at a time -------------------------------------------
# The package's scalar Lentz loop as it stood before its F tail took arrays,
# kept as the bit-for-bit oracle of that array code: same constants, same
# operations in the same order, Python floats and libm throughout.

_LENTZ_MAX_ITER = 500
_LENTZ_EPS = 3e-16
_LENTZ_TINY = 1e-300


def _lentz_nonzero(v: float) -> float:
    return _LENTZ_TINY if abs(v) < _LENTZ_TINY else v


def _beta_contfrac(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _lentz_nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _LENTZ_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _lentz_nonzero(1.0 + aa * d)
        c = _lentz_nonzero(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _lentz_nonzero(1.0 + aa * d)
        c = _lentz_nonzero(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            break
    return h


def beta_inc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) of one argument."""
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
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def f_sf(x: float, df_num: float, df_den: float) -> float:
    """F survival function of one statistic by :func:`beta_inc`."""
    if df_num <= 0 or df_den <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x <= 0.0:
        return 1.0
    return beta_inc(df_den / 2.0, df_num / 2.0, df_den / (df_den + df_num * x))
