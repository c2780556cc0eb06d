"""Multivariate time-series toolkit built from first principles.

Stationarity (augmented Dickey-Fuller), Johansen cointegration by trace,
Granger causality, VAR estimation with information-criterion lag selection,
Ljung-Box residual diagnostics, impulse responses, forecast-error variance
decomposition and deterministic forecasting. Inference uses the in-package
incomplete gamma/beta tails, so there is no statistics dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._dist import chi2_sf, f_sf, normal_cdf
from ._regression import (
    PIVOT_RTOL,
    LeastSquaresFit,
    check_pivots,
    cross_products,
    factor,
    factor_design,
    leaf_factors,
    pivot_failures,
    qr_least_squares,  # noqa: F401  bench/tracer.py wraps this name here
    qr_r,
    read_fit,
    subset_factor,
)
from .errors import (
    InsufficientObservations,
    NonPositiveDefiniteSigma,
    RankDeficient,
    SeriesTooShort,
    ShapeMismatch,
    SingularMomentMatrix,
)

__all__ = [
    "AdfResult",
    "adf_test",
    "JohansenResult",
    "JOHANSEN_DIMENSIONS",
    "johansen_trace",
    "granger",
    "granger_matrix",
    "VarModel",
    "fit_var",
    "fit_var_order",
    "ljung_box",
    "LjungBoxResult",
    "irf",
    "fevd",
    "forecast",
    "stationarity_pipeline",
    "var_summary_json",
    "var_summary_text",
]


def _finite(data, ndim: int) -> np.ndarray:
    """``data`` as a float array of ``ndim`` dimensions, a series (1) or a
    (T, K) matrix (2), whose every value is finite."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != ndim:
        shape = "a one-dimensional series" if ndim == 1 else "a (T, K) matrix"
        raise ShapeMismatch(f"expected {shape}")
    if not np.isfinite(arr).all():
        raise ValueError("missing or infinite value; clean the panel first")
    return arr


# -- lagged designs -------------------------------------------------------------


def _lagged(data, p: int, start: int, stop: int, exog=None, extra=None) -> np.ndarray:
    """Rows t = start..stop-1 of ``[1, exog_t, data_{t-1}, ..., data_{t-p} |
    data_t, extra_t]``, 1-d inputs as one column, in one new column-major array.

    Lag j of column v is column ``1 + e + (j-1)K + v`` (e exog, K data
    columns), the stacked VAR regressors of Lütkepohl (2005, 3.2), so fewer
    lags is a column prefix. Every row has all its lags: ``start < p``
    raises ValueError, where a slice would wrap to the end of the series.
    """
    if start < p:
        raise ValueError(f"row {start} has no lag {p}")
    exog, extra = (np.empty((len(data), 0)) if a is None else a for a in (exog, extra))
    series, given, more = (a[:, None] if a.ndim < 2 else a for a in (data, exog, extra))
    K, e = series.shape[1], given.shape[1]
    k = 1 + e + K * p
    # np.empty: np.zeros' calloc maps fresh pages where malloc reuses freed ones
    block = np.empty((k + K + more.shape[1], stop - start))
    block[0] = 1.0
    block[1 : 1 + e] = given[start:stop].T
    for j, col in enumerate([k, *range(1 + e, k, K)]):  # lag 0, the response, last
        block[col : col + K] = series[start - j : stop - j].T
    block[k + K :] = more[start:stop].T
    return block.T


def _rows(data: np.ndarray, p: int, first: int, exog=None, extra=None):
    """The row builder of the kernel (:mod:`._regression`) over
    :func:`_lagged`: design row i is t = first + i."""
    return lambda a, b: _lagged(data, p, first + a, first + b, exog, extra)


def _lag_search(
    data: np.ndarray, max_p: int, score, exog: np.ndarray | None = None
) -> tuple[int, LeastSquaresFit]:
    """``(p, fit)`` for the lag count 0..max_p whose residual
    cross-product ``E'E`` on the common sample t = max_p..T-1 has the lowest
    ``score(p, E'E)`` (the first of equal scores), refit on all usable rows;
    ``exog`` is one column.

    One tall factorization serves both: order p is a column prefix of the
    largest design plus the ``max_p - p`` rows it lacks, so the refit's R
    comes from :func:`subset_factor`.
    """
    T, K = data.reshape(len(data), -1).shape       # each lag adds K columns
    k_max = 1 + (exog is not None) + K * max_p
    r, norms = factor_design(_rows(data, max_p, max_p, exog), T - max_p, k_max)
    cross = cross_products(r, k_max)
    best_p, best = 0, math.inf
    for p, moments in enumerate(cross[k_max - K * max_p :: K]):
        value = score(p, moments)
        if value < best:
            best, best_p = value, p
    k = k_max - K * (max_p - best_p)
    lead = _lagged(data, best_p, best_p, max_p, exog)
    lead[:, :k] /= norms[:k]
    sub = subset_factor(r, np.r_[:k, k_max : r.shape[1]], lead)
    check_pivots(sub, k)
    fit = read_fit(sub, norms[:k], _rows(data, best_p, best_p, exog), T - best_p)
    return best_p, fit


# -- augmented Dickey-Fuller ---------------------------------------------------

# Response-surface constants for the constant-only regression, one I(1)
# series. Critical values: MacKinnon (2010), "Critical Values for
# Cointegration Tests", Queen's Economics Dept WP 1227, tau_c table
# (cv = b0 + b1/T + b2/T^2 + b3/T^3). Approximate p-value: MacKinnon (1994),
# JBES 12(2), Phi(polynomial in tau) with the small/large-tau split.
_ADF_CRIT_C = {
    "1%": (-3.43035, -6.5393, -16.786, -79.433),
    "5%": (-2.86154, -2.8903, -4.234, -40.040),
    "10%": (-2.56677, -1.5384, -2.809, 0.0),
}
_ADF_TAU_MAX = 2.74
_ADF_TAU_MIN = -18.83
_ADF_TAU_STAR = -1.61
_ADF_P_SMALL = (2.1659, 1.4412, 0.038269)
_ADF_P_LARGE = (1.7339, 0.93202, -0.12745, -0.010368)


def adf_critical_values(nobs: int) -> dict[str, float]:
    out = {}
    for level, (b0, b1, b2, b3) in _ADF_CRIT_C.items():
        out[level] = b0 + b1 / nobs + b2 / nobs**2 + b3 / nobs**3
    return out


def adf_pvalue(t_stat: float) -> float:
    if t_stat > _ADF_TAU_MAX:
        return 1.0
    if t_stat < _ADF_TAU_MIN:
        return 0.0
    coefs = _ADF_P_SMALL if t_stat <= _ADF_TAU_STAR else _ADF_P_LARGE
    poly = 0.0
    for c in reversed(coefs):
        poly = poly * t_stat + c
    return normal_cdf(poly)


@dataclass(frozen=True)
class AdfResult:
    t_stat: float
    lags_used: int
    decision_5pct: str          # "stationary" | "nonstationary"
    approx_pvalue: float

    @property
    def is_stationary(self) -> bool:
        return self.decision_5pct == "stationary"


def adf_test(series) -> AdfResult:
    """Unit-root test with constant, no trend.

    Fits ``dy_t = alpha + beta*y_{t-1} + sum phi_i dy_{t-i} + e`` with the
    lag count chosen by AIC on a common sample (lag cap
    ``min(floor(12*(T/100)**0.25), (T-1)//2 - 2)``, Schwert 1989), then
    refits at the chosen lag on all usable rows. The null of a unit root is
    rejected at 5% when the t-statistic on beta falls below the
    finite-sample critical value.

    The regression is :func:`_lagged` on ``dy`` with exog ``y_{t-1}``, and
    :func:`_lag_search` serves the search and the refit.
    """
    y = _finite(series, 1)
    T = len(y)
    if T < 15:
        raise SeriesTooShort(f"ADF needs at least 15 observations, got {T}")
    if y.max() == y.min():
        raise RankDeficient("constant series has no unit-root regression")
    max_lags = min(int(math.floor(12.0 * (T / 100.0) ** 0.25)), (T - 1) // 2 - 2)

    n_common = T - 1 - max_lags             # rows of dy on the common sample

    def aic(k: int, cross: np.ndarray) -> float:
        ssr = float(cross[0, 0])
        if ssr <= 0.0:
            return -math.inf
        return n_common * math.log(ssr / n_common) + 2.0 * (2 + k)

    with np.errstate(over="ignore", invalid="ignore"):  # then qr_r raises
        dy = np.diff(y)
    best_k, fit = _lag_search(dy, max_lags, aic, exog=y[:-1])
    t_stat = float(fit.beta[1, 0] / fit.stderr[1, 0])

    crit = adf_critical_values(len(fit.residuals))["5%"]
    decision = "stationary" if t_stat < crit else "nonstationary"
    return AdfResult(t_stat, best_k, decision, adf_pvalue(t_stat))


# -- Johansen trace test --------------------------------------------------------

# 5% (with 90%/99% companions) critical values of the trace statistic for the
# model with an unrestricted constant (the det_order=0 case), dimension
# K - r = 1..12. Source: MacKinnon, Haug & Michelis (1996), "Numerical
# distribution functions of likelihood ratio tests for cointegration"
# (values as distributed with LeSage's johansen routine).
_JOHANSEN_TRACE_CRIT = (
    (2.7055, 3.8415, 6.6349),
    (13.4294, 15.4943, 19.9349),
    (27.0669, 29.7961, 35.4628),
    (44.4929, 47.8545, 54.6815),
    (65.8202, 69.8189, 77.8202),
    (91.1090, 95.7542, 104.9637),
    (120.3673, 125.6185, 135.9825),
    (153.6341, 159.5290, 171.0905),
    (190.8714, 197.3772, 210.0366),
    (232.1030, 239.2468, 253.2526),
    (277.3740, 285.1402, 300.2821),
    (326.5354, 334.9795, 351.2150),
)

#: The K that :func:`johansen_trace` tests: from two to the table's length.
JOHANSEN_DIMENSIONS = range(2, len(_JOHANSEN_TRACE_CRIT) + 1)


@dataclass(frozen=True)
class JohansenResult:
    eigenvalues: np.ndarray      # descending
    trace_stats: np.ndarray      # -T * sum_{i>r} ln(1 - lambda_i), r = 0..K-1
    critical_values_5pct: np.ndarray
    reject_5pct: np.ndarray      # reject H0(rank <= r) per r
    rank: int                    # first non-rejected r (K if all rejected)
    T_effective: int


def johansen_trace(data, k_ar_diff: int = 1) -> JohansenResult:
    """Trace cointegration test with an unrestricted constant.

    Both the first differences and the lagged levels are residualized on
    ``k_ar_diff`` lagged differences plus a constant. The canonical
    correlations of the two residual sets are the singular values of ``B
    L^-1``, with ``[[A, B], [0, C]]`` the residual block of the kernel's R
    and L the R factor of ``[B; C]`` (Johansen 1995, ch. 7); their squares
    give the trace statistics, compared against the embedded 5% table. A
    pivot of A or L below PIVOT_RTOL times its column's norm raises
    SingularMomentMatrix, whatever the column's scale.
    """
    data = _finite(data, 2)
    T, K = data.shape
    if K < 2:
        raise ValueError("cointegration needs at least two series")
    if K > len(_JOHANSEN_TRACE_CRIT):
        raise ValueError(
            f"critical values are tabulated up to K={len(_JOHANSEN_TRACE_CRIT)}"
        )
    if T < 10 * K:
        raise InsufficientObservations(
            f"need at least {10 * K} rows for K={K}, got {T}"
        )
    if k_ar_diff < 0:
        raise ValueError("k_ar_diff must be non-negative")

    # row s of dy is dy_{s+1} = y_{s+1} - y_s, so the level y_{t-1} is data[s]
    with np.errstate(over="ignore", invalid="ignore"):  # then qr_r raises
        dy = np.diff(data, axis=0)
    rows, k = len(dy) - k_ar_diff, 1 + K * k_ar_diff
    r, _ = factor_design(_rows(dy, k_ar_diff, k_ar_diff, extra=data[:-1]), rows, k)
    residual = r[k:, k:]                # [[A, B], [0, C]]
    if len(residual) < 2 * K:
        raise SingularMomentMatrix(f"{len(residual)} residual rows for {2 * K} columns")
    l_kk = qr_r(residual[:, K:])
    pivots = np.abs(np.r_[np.diag(residual)[:K], np.diag(l_kk)])
    if (pivots <= PIVOT_RTOL * np.linalg.norm(residual, axis=0)).any():
        raise SingularMomentMatrix("residual moment matrix is singular")
    b = residual[:K, K:]
    singular = np.linalg.svd(np.linalg.solve(l_kk.T, b.T), compute_uv=False)
    eigenvalues = np.clip(singular**2, 0.0, 1.0 - 1e-15)

    log_terms = np.log1p(-eigenvalues)
    trace = -rows * np.cumsum(log_terms[::-1])[::-1]
    crit5 = np.array(
        [_JOHANSEN_TRACE_CRIT[K - r - 1][1] for r in range(K)]
    )
    reject = trace > crit5
    rank = K
    for r in range(K):
        if not reject[r]:
            rank = r
            break
    return JohansenResult(eigenvalues, trace, crit5, reject, rank, rows)


# -- Granger causality ----------------------------------------------------------


def _granger_pairs(
    data, max_lag: int, pairs: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """``(f_stat, p_value)`` of the Granger tests of the ordered (cause,
    effect) column pairs of the checked float matrix ``data``, from one tall
    factorization: each (K, K, max_lag), indexed ``[cause, effect, lag -
    1]``, NaN for a pair not tested.

    ``Z`` is the VAR(max_lag) design ``[X | Y]`` of :func:`_lagged`, factored
    block by block without a pivot test (it may be wide). At lag L a pair's
    design, ``[1, effect lags, cause lags | effect]`` on rows L..T-1, is some
    columns of Z plus the ``max_lag - L`` rows Z lacks, so the pair reads
    SSR_r and SSR_u from a small QR of those rows, scaled by Z's norms,
    stacked on its columns of R (:func:`subset_factor`), with its own pivot
    test. Every pair of one lag is one stack: one QR call and one pivot test;
    one F tail serves every pair and lag. The first failing pair in
    ``pairs``, lag by lag, raises its error, its pivot test before an exact
    fit; a pair whose small R overflows raises NonFiniteFactor for its
    whole lag.
    """
    T, K = data.shape
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    f_stat, p_value = np.full((2, K, K, max_lag), np.nan)
    if not pairs:
        return f_stat, p_value
    if T <= 3 * max_lag + 3:
        raise InsufficientObservations(
            f"need more than {3 * max_lag + 3} observations, got {T}"
        )
    k = 1 + K * max_lag
    r, norms = factor(leaf_factors(_rows(data, max_lag, max_lag), T - max_lag), k)
    cause, effect = np.array(pairs).T
    for lag in range(1, max_lag + 1):
        end, width = 1 + K * lag, 1 + 2 * lag
        lead = _lagged(data, lag, lag, max_lag)
        lead[:, :end] /= norms[:end]
        r_lag = r[:, np.r_[:end, k : r.shape[1]]]     # lead's columns of R
        df_den = (T - lag) - 2 * lag - 1
        own = 1 + K * np.arange(lag)            # lags 1..L of column 0
        columns = np.column_stack([
            np.zeros_like(cause), effect[:, None] + own, cause[:, None] + own,
            end + effect,
        ])
        sub = subset_factor(r_lag, columns, np.moveaxis(lead[:, columns], 0, -2))
        ssrs = cross_products(sub, width)[..., 0, 0]
        ssr_r, ssr_u = ssrs[:, 1 + lag], ssrs[:, width]
        failed = np.flatnonzero(pivot_failures(sub, width) | (ssr_u <= 0.0))
        if failed.size:
            check_pivots(sub[failed[0]], width)
            raise RankDeficient("unrestricted regression fits exactly")
        f_stat[cause, effect, lag - 1] = ((ssr_r - ssr_u) / lag) / (ssr_u / df_den)
    # one F tail for every test, as its loop costs about as much for 1 value
    # as for 450
    lags = np.arange(1, max_lag + 1)
    p_value[cause, effect] = f_sf(f_stat[cause, effect], lags, T - 3 * lags - 1)
    return f_stat, p_value


def granger_matrix(data, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`granger` for every ordered pair of distinct columns of a
    (T, K) matrix, from one tall QR in place of ``K (K-1) max_lag``:
    ``(f_stat, p_value)``, each (K, K, max_lag) and indexed ``[cause,
    effect, lag - 1]``, NaN on the diagonal.

    The errors are :func:`granger`'s; a zero regressor column raises
    ``RankDeficient`` before anything is divided by it.
    """
    data = _finite(data, 2)
    K = data.shape[1]
    pairs = [(c, e) for c in range(K) for e in range(K) if c != e]
    return _granger_pairs(data, max_lag, pairs)


def granger(x_cause, y_effect, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """SSR-based F test of "x Granger-causes y" for each lag 1..max_lag:
    ``(f_stat, p_value)``, each (max_lag,) with lag L at index L - 1.

    The restricted model regresses y on its own lags (plus constant), the
    unrestricted one adds the lags of x;
    ``F = ((SSR_r - SSR_u)/L) / (SSR_u/(T_eff - 2L - 1))``, every SSR read
    from one tall factorization (the one-pair :func:`granger_matrix`).
    """
    x = _finite(x_cause, 1)
    y = _finite(y_effect, 1)
    if len(x) != len(y):
        raise ShapeMismatch("series lengths differ")
    f_stat, p_value = _granger_pairs(np.column_stack([x, y]), max_lag, [(0, 1)])
    return f_stat[0, 1], p_value[0, 1]


# -- VAR estimation --------------------------------------------------------------


@dataclass(frozen=True)
class VarModel:
    p: int
    variable_order: tuple[str, ...]
    coef: np.ndarray                  # (1 + K*p, K): const row, then lag blocks
    sigma: np.ndarray                 # (K, K), df-corrected
    residuals: np.ndarray             # (T - p, K)
    stderr: np.ndarray                # coef's layout
    # the data and design leaves of a fit_var_order model, for a refit's base
    data: np.ndarray | None = field(default=None, repr=False, compare=False)
    leaves: list[np.ndarray] | None = field(default=None, repr=False, compare=False)

    @property
    def k_vars(self) -> int:
        return len(self.variable_order)

    @property
    def c(self) -> np.ndarray:
        """The intercepts, (K,)."""
        return self.coef[0]

    @property
    def A(self) -> tuple[np.ndarray, ...]:
        """The p lag matrices, each (K, K) and row-major: a transposed view
        would change the summation order of the products that read it."""
        K = self.k_vars
        return tuple(
            self.coef[1 + s * K : 1 + (s + 1) * K].T.copy() for s in range(self.p)
        )


def _var_names(names: Sequence[str] | None, K: int) -> tuple[str, ...]:
    names = tuple(f"y{j}" for j in range(K)) if names is None else tuple(names)
    if len(names) != K:
        raise ShapeMismatch("variable name count differs from column count")
    return names


def _var_model(fit: LeastSquaresFit, p: int, names: tuple[str, ...]) -> VarModel:
    """The VAR(p) read from the fit of its stacked equations."""
    resid = fit.residuals
    sigma = resid.T @ resid / (len(resid) - len(fit.beta))
    return VarModel(p, names, fit.beta, sigma, resid, fit.stderr)


def _var_data(data, p: int) -> np.ndarray:
    """``data`` as a checked (T, K) matrix on which a VAR(p) is identified."""
    data = _finite(data, 2)
    T, K = data.shape
    if p < 0:
        raise ValueError("lag order must be non-negative")
    if T - p <= 1 + K * p:
        raise InsufficientObservations(
            f"T={T} cannot identify a VAR({p}) in {K} variables"
        )
    return data


def fit_var_order(
    data, p: int, names: Sequence[str] | None = None, base: VarModel | None = None
) -> VarModel:
    """Per-equation OLS estimate of a VAR(p) with intercept.

    ``p = 0`` is the intercept-only model. The residual covariance uses the
    degrees-of-freedom-corrected denominator ``T_eff - (K*p + 1)``.

    With ``base``, a VAR(p) this function fit to data of this shape, only the
    blocks of design rows that read a row where ``data`` differs from
    ``base.data`` are factored (design row i reads rows i..i+p); the others
    are ``base.leaves``, the same bits. Another base raises ShapeMismatch.
    """
    data = _var_data(data, p)
    names = _var_names(names, data.shape[1])
    rows, n, k = _rows(data, p, p), len(data) - p, 1 + data.shape[1] * p
    if base is not None:
        if base.leaves is None or base.p != p or base.data.shape != data.shape:
            raise ShapeMismatch(f"base is not a VAR({p}) fit of {data.shape} data")
        # changed[t] counts the rows before t where the two differ
        changed = np.r_[0, np.cumsum((data != base.data).any(axis=1))]
        base = (base.leaves, changed[p + 1 :] > changed[:n])
    leaves = leaf_factors(rows, n, base)
    model = _var_model(read_fit(*factor_design(rows, n, k, leaves), rows, n), p, names)
    return replace(model, data=data, leaves=leaves)


#: Lag-selection criteria accepted by :func:`fit_var`, in lower case.
CRITERIA = ("aic", "bic", "hqic", "fpe")


def _fpe_ratio(p: int, K: int, T: int) -> float:
    return (T + K * p + 1) / (T - K * p - 1)


def _criterion_value(
    sigma_ml: np.ndarray, p: int, K: int, T: int, criterion: str
) -> float:
    """The criterion of a VAR(p), FPE as its logarithm: ``det(sigma_ml)``
    over- or underflows at data scales whose ``log det`` is finite, where
    the logarithm ranks the orders alike."""
    sign, logdet = np.linalg.slogdet(sigma_ml)
    if sign <= 0:
        return math.inf
    free = p * K * K
    if criterion == "aic":
        return logdet + 2.0 * free / T
    if criterion == "bic":
        return logdet + math.log(T) * free / T
    if criterion == "hqic":
        return logdet + 2.0 * math.log(math.log(T)) * free / T
    if criterion == "fpe":
        return logdet + K * math.log(_fpe_ratio(p, K, T))
    raise ValueError(f"unknown criterion {criterion!r}")


def _finite_or_none(value: float) -> float | None:
    """``value``, or None (JSON ``null``) where it is not finite."""
    return value if math.isfinite(value) else None


def fit_var(
    data,
    max_lags: int,
    criterion: str = "aic",
    names: Sequence[str] | None = None,
) -> VarModel:
    """Select the lag order 0..max_lags by information criterion, then fit.

    Candidate orders are compared on a common sample (the first ``max_lags``
    rows are withheld from every candidate) using the maximum-likelihood
    residual covariance; the selected order is refit on all usable rows
    (:func:`_lag_search`).
    """
    data = _var_data(data, max_lags)
    T, K = data.shape
    names = _var_names(names, K)
    criterion = criterion.lower()
    T_common = T - max_lags

    def score(p: int, cross: np.ndarray) -> float:
        return _criterion_value(cross / T_common, p, K, T_common, criterion)

    best_p, fit = _lag_search(data, max_lags, score)
    return _var_model(fit, best_p, names)


# -- residual diagnostics --------------------------------------------------------


@dataclass(frozen=True)
class LjungBoxResult:
    q_stat: float
    p_value: float


def ljung_box(residual, lags: int) -> LjungBoxResult:
    """Portmanteau autocorrelation test:
    ``Q = T(T+2) * sum_k rho_k^2 / (T-k)`` against chi-square(lags)."""
    y = _finite(residual, 1)
    T = len(y)
    if lags < 1:
        raise ValueError("lags must be positive")
    if T <= lags + 1:
        raise SeriesTooShort(f"need more than {lags + 1} observations, got {T}")
    centered = y - y.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        raise RankDeficient("constant residual series")
    q = 0.0
    for k in range(1, lags + 1):
        rho = float(centered[k:] @ centered[:-k]) / denom
        q += rho * rho / (T - k)
    q *= T * (T + 2.0)
    return LjungBoxResult(q, chi2_sf(q, lags))


# -- impulse responses and variance decomposition ---------------------------------


def irf(model: VarModel, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Moving-average representation out to ``horizon``: ``(psi, theta)``,
    each (H+1, K, K) with horizon h first.

    ``psi[h]`` is the plain response, ``psi[0] = I``; ``theta[h] = psi[h] @
    P`` with ``P P' = sigma`` (lower Cholesky, so shock ordering follows
    ``variable_order``). A non-positive-definite covariance raises.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    try:
        chol = np.linalg.cholesky(model.sigma)
    except np.linalg.LinAlgError:
        raise NonPositiveDefiniteSigma(
            "residual covariance is not positive definite, so the "
            "Cholesky-orthogonalized responses are undefined"
        ) from None
    K, A = model.k_vars, model.A
    psi = np.zeros((horizon + 1, K, K))
    psi[0] = np.eye(K)
    for h in range(1, horizon + 1):
        for s in range(1, min(h, model.p) + 1):
            psi[h] += A[s - 1] @ psi[h - s]
    return psi, np.stack([m @ chol for m in psi])


def fevd(model: VarModel, horizon: int) -> np.ndarray:
    """Forecast-error variance shares from the orthogonalized responses,
    (K, H, K): response i, horizon row, shock j.

    Row ``h`` (0-based, matching a forecast ``h+1`` steps out) of response
    i's table holds ``sum_{s<=h} theta_s[i,j]^2`` normalized across shocks
    j, so each row sums to one.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    cumulative = np.cumsum(irf(model, horizon - 1)[1] ** 2, axis=0)
    return (cumulative / cumulative.sum(axis=2, keepdims=True)).transpose(1, 0, 2)


def forecast(model: VarModel, last_observations, steps: int) -> np.ndarray:
    """Deterministic iteration of the fitted equations with zero shocks.

    ``last_observations`` must supply at least ``p`` rows in model variable
    order; only the final ``p`` are used.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    K = model.k_vars
    history = np.asarray(last_observations, dtype=float)
    if model.p > 0:
        if history.ndim != 2 or history.shape[1] != K:
            raise ShapeMismatch(f"expected (>= {model.p}, {K}) observations")
        if history.shape[0] < model.p:
            raise ShapeMismatch(
                f"need {model.p} trailing observations, got {history.shape[0]}"
            )
        window = list(history[-model.p :])
    else:
        window = []
    out = np.empty((steps, K))
    A = model.A
    for step in range(steps):
        value = model.c.copy()
        for s in range(1, model.p + 1):
            value += A[s - 1] @ window[-s]
        out[step] = value
        if model.p > 0:
            window.append(value)
            window = window[-model.p :]
    return out


# -- column-wise stationarity pipeline --------------------------------------------


def stationarity_pipeline(data, names) -> tuple[np.ndarray, dict[str, AdfResult]]:
    """ADF-test every column of the (T, K) matrix ``data`` and
    first-difference the nonstationary ones; returns the matrix and each
    column's test, keyed by ``names`` in column order.

    Differencing shifts a column forward one row, so when any column is
    differenced every other column loses its first row too, keeping the
    rows aligned; when none is, ``data`` comes back as it is.
    """
    data = _finite(data, 2)
    tests = {name: adf_test(column) for name, column in zip(names, data.T)}
    kept = [result.is_stationary for result in tests.values()]
    if all(kept):
        return data, tests
    columns = [c[1:] if keep else np.diff(c) for c, keep in zip(data.T, kept)]
    return np.column_stack(columns), tests


# -- summaries ---------------------------------------------------------------------


def var_summary_json(model: VarModel) -> dict:
    """The fit's summary document: sample, likelihood, criteria and one
    table per equation."""
    T, K = model.residuals.shape
    sigma_ml = model.residuals.T @ model.residuals / T
    sign, logdet = np.linalg.slogdet(sigma_ml)
    log_likelihood = -0.5 * T * (K * math.log(2.0 * math.pi) + logdet + K)
    criteria = {
        name: _criterion_value(sigma_ml, model.p, K, T, name) for name in CRITERIA
    }
    if sign > 0:  # the FPE itself, not the logarithm the lag search ranks
        try:
            criteria["fpe"] = math.exp(logdet) * _fpe_ratio(model.p, K, T) ** K
        except OverflowError:
            criteria["fpe"] = math.inf
    with np.errstate(over="ignore"):
        det = float(np.linalg.det(sigma_ml))
    t_stats = model.coef / model.stderr
    labels = ["const"] + [
        f"L{s}.{name}"
        for s in range(1, model.p + 1)
        for name in model.variable_order
    ]
    equations = {}
    for j, name in enumerate(model.variable_order):
        equations[name] = {
            label: {
                "coefficient": float(model.coef[i, j]),
                "std_error": float(model.stderr[i, j]),
                "t_stat": float(t_stats[i, j]),
                "prob": float(2.0 * (1.0 - normal_cdf(abs(t_stats[i, j])))),
            }
            for i, label in enumerate(labels)
        }
    return {
        "model": "VAR",
        "method": "OLS",
        "lag_order": model.p,
        "n_equations": K,
        "nobs": T,
        "variables": list(model.variable_order),
        "log_likelihood": _finite_or_none(log_likelihood if sign > 0 else math.nan),
        "criteria": {name: _finite_or_none(v) for name, v in criteria.items()},
        "det_omega_mle": _finite_or_none(det),
        "sigma": model.sigma.tolist(),
        "equations": equations,
    }


def _nan_if_none(value: float | None) -> float:
    return math.nan if value is None else value


def var_summary_text(doc: dict) -> str:
    """The :func:`var_summary_json` document as an aligned plain-text table
    in the familiar regression-summary layout, ``nan`` for a null."""
    width = 34
    criteria = {name: _nan_if_none(v) for name, v in doc["criteria"].items()}
    lines = [
        "Summary of Regression Results".center(width),
        "=" * width,
        f"Model:{'VAR':>{width - 6}}",
        f"Method:{'OLS':>{width - 7}}",
        "-" * width,
        f"No. of Equations:{doc['n_equations']:>{width - 17}}",
        f"Nobs:{doc['nobs']:>{width - 5}}",
        f"Log likelihood:{_nan_if_none(doc['log_likelihood']):>{width - 15}.3f}",
        f"AIC:{criteria['aic']:>{width - 4}.6g}",
        f"BIC:{criteria['bic']:>{width - 4}.6g}",
        f"HQIC:{criteria['hqic']:>{width - 5}.6g}",
        f"FPE:{criteria['fpe']:>{width - 4}.6g}",
        f"Det(Omega_mle):{_nan_if_none(doc['det_omega_mle']):>{width - 15}.6g}",
        "-" * width,
    ]
    label_width = max(
        (len(label) for eq in doc["equations"].values() for label in eq),
        default=12,
    )
    header = (
        f"{'':<{label_width}} {'coefficient':>14} {'std. error':>14} "
        f"{'t-stat':>10} {'prob':>8}"
    )
    for name, eq in doc["equations"].items():
        lines.append("")
        lines.append(f"Results for equation {name}")
        lines.append("=" * len(header))
        lines.append(header)
        for label, cell in eq.items():
            lines.append(
                f"{label:<{label_width}} {cell['coefficient']:>14.6f} "
                f"{cell['std_error']:>14.6f} {cell['t_stat']:>10.3f} "
                f"{cell['prob']:>8.3f}"
            )
    lines.append("")
    return "\n".join(lines)
