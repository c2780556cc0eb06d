"""Aggregate devaluation-expectation index: the colimit construction.

Combines the chosen variables into one indicator four ways (a PCA
aggregate weighted by explained variance, a dynamic-correlation weighted
sum, the PCA aggregate rescaled onto the reference's range, and a trailing
smoothing of that), then validates the smoothed index against the
devaluation-expectation series with Granger tests and forecasts it jointly
with the risk spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import econometrics as econ
from .errors import AllZeroWeights, ConstantColumn, InsufficientRows, ShapeMismatch
from .panel import Panel, Series, minmax_rescale, rolling_corr, rolling_mean
from .typed_json import reject_repeats

#: Aggregated variables by default; the risk spread stays external.
DEFAULT_VARIABLES = (
    "M2",
    "Pi Exp",
    "Long Interest",
    "Short Interest",
    "Historical Ars Usd",
    "Argentina Net Lending Borrowing",
    "Gdp_argentina",
    "Gdp_usa",
)

EXTERNAL_FACTOR = "Embi+ARG"

#: Granger lags and VAR order cap, and forecast horizon, of the validation.
MAX_LAG = 5
FORECAST_STEPS = 10


@dataclass(frozen=True)
class ColimitConfig:
    variables: tuple[str, ...] = DEFAULT_VARIABLES
    n_components: int = 3
    corr_window: int = 180
    corr_min_periods: int = 1
    smooth_window: int = 30
    standardize: bool = True
    reference: str = "E"

    def __post_init__(self) -> None:
        reject_repeats("variables", self.variables)
        if self.reference == EXTERNAL_FACTOR:
            # the validation forecasts the reference jointly with the risk spread
            raise ValueError(
                f"reference must not be the risk spread {EXTERNAL_FACTOR!r}"
            )
        if not 1 <= self.n_components <= len(self.variables):
            raise ValueError("n_components must lie in 1..len(variables)")
        for name in ("corr_window", "smooth_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1: {getattr(self, name)}")
        if not 1 <= self.corr_min_periods <= self.corr_window:
            raise ValueError(
                f"corr_min_periods must lie in 1..corr_window: {self.corr_min_periods}"
            )


@dataclass(frozen=True)
class PcaModel:
    loadings: np.ndarray                  # (K, n), orthonormal columns
    explained_variance_ratio: np.ndarray  # (n,), non-increasing
    column_means: np.ndarray              # (K,)
    column_scales: np.ndarray             # (K,), ones when standardize off


def pca_fit(data, n: int, standardize: bool, names: tuple[str, ...]) -> PcaModel:
    """Top-n principal axes of the sample covariance.

    Columns are centered (and scaled to unit sample variance when
    ``standardize``); a symmetric eigensolver provides the axes, each
    flipped so its largest-magnitude entry is positive, which pins down the
    sign regardless of the eigensolver. A constant column raises
    ConstantColumn with its name from ``names`` when scaled.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2:
        raise ShapeMismatch("expected a (T, K) matrix")
    T, K = X.shape
    if not 1 <= n <= K:
        raise ValueError("component count must lie in 1..K")
    if T <= K:
        raise InsufficientRows(f"need more rows than columns, got {T}x{K}")
    means = X.mean(axis=0)
    centered = X - means
    std = centered.std(axis=0, ddof=1)
    if standardize:
        zero = np.flatnonzero(std == 0.0)
        if zero.size:
            raise ConstantColumn(names[zero[0]])
        scales = std
    else:
        scales = np.ones(K)
    scaled = centered / scales
    cov = scaled.T @ scaled / (T - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    eigenvectors = eigenvectors[:, order]
    for j in range(K):
        pivot = np.argmax(np.abs(eigenvectors[:, j]))
        if eigenvectors[pivot, j] < 0:
            eigenvectors[:, j] = -eigenvectors[:, j]
    total = eigenvalues.sum()
    ratios = eigenvalues / total if total > 0 else np.zeros(K)
    return PcaModel(
        eigenvectors[:, :n].copy(), ratios[:n].copy(), means, scales
    )


def pca_aggregate(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """Per date, the component scores of the fitted matrix ``X`` weighted
    by explained variance."""
    scores = ((X - model.column_means) / model.column_scales) @ model.loadings
    return scores @ model.explained_variance_ratio


def dynamic_weights(
    panel: Panel,
    variables,
    reference: str,
    window: int,
    min_periods: int,
) -> dict[str, float]:
    """Co-movement weights: per variable the absolute time-mean of its
    trailing rolling correlation with the reference, normalized to sum 1."""
    ref = panel.column(reference)
    raw: dict[str, float] = {}
    for name in variables:
        corr = rolling_corr(panel.column(name), ref, window, min_periods).array
        present = corr[~np.isnan(corr)]
        raw[name] = abs(float(present.mean())) if present.size else 0.0
    total = sum(raw.values())
    if total <= 0.0:
        raise AllZeroWeights(
            "every rolling correlation with the reference is zero or undefined"
        )
    return {name: value / total for name, value in raw.items()}


@dataclass(frozen=True)
class ColimitIndicator:
    pca_aggregate: Series
    dynamic_weights: dict[str, float]
    weighted_aggregate: Series
    scaled: Series
    smoothed: Series


def build_indicator(panel: Panel, config: ColimitConfig = ColimitConfig()) -> ColimitIndicator:
    """The full aggregation sequence.

    PCA aggregate over the configured variables; dynamic-weight sum of the
    raw columns; the PCA aggregate rescaled onto the reference's range; and
    a trailing mean of the rescaled series.
    """
    matrix = panel.to_matrix(config.variables)
    if np.isnan(matrix).any():
        raise ValueError("indicator variables contain missing values; clean first")
    model = pca_fit(matrix, config.n_components, config.standardize, config.variables)
    aggregate = Series(pca_aggregate(model, matrix))

    weights = dynamic_weights(
        panel,
        config.variables,
        config.reference,
        config.corr_window,
        config.corr_min_periods,
    )
    weighted = Series(matrix @ np.array([weights[n] for n in config.variables]))
    scaled = minmax_rescale(aggregate, panel.column(config.reference))
    smoothed = rolling_mean(scaled, config.smooth_window, min_periods=1)
    return ColimitIndicator(aggregate, weights, weighted, scaled, smoothed)


def validate_and_forecast(
    panel: Panel, indicator: ColimitIndicator, reference: str = ColimitConfig.reference
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Granger-test the smoothed index against the reference at lags
    1..MAX_LAG, as :func:`econometrics.granger`'s ``(f_stat, p_value)``, and
    forecast [index, reference, risk spread] FORECAST_STEPS ahead jointly
    with an AIC-selected VAR."""
    if len(indicator.smoothed) != panel.n_rows:
        raise ShapeMismatch("indicator is not aligned with the panel")
    ref = panel.column(reference).array
    causality = econ.granger(indicator.smoothed.array, ref, MAX_LAG)
    names = ("indicator", reference, EXTERNAL_FACTOR)
    matrix = np.column_stack(
        [indicator.smoothed.array, ref, panel.column(EXTERNAL_FACTOR).array]
    )
    model = econ.fit_var(matrix, MAX_LAG, "aic", names)
    prediction = econ.forecast(model, matrix, FORECAST_STEPS)
    return causality, prediction
