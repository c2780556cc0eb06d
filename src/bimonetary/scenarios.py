"""Shock scenarios and the sensitivity engine.

Shocks mutate the data panel (not coefficients) before models on a chosen
variable set are refit or re-forecast, matching how the scenario
experiments are framed.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from . import econometrics as econ
from .errors import UnknownVariable
from .panel import Panel, Series
from .typed_json import parse, read_json, reject_reversed


@dataclass(frozen=True)
class Shock:
    variable: str
    kind: str                      # "multiplicative" | "additive"
    magnitude: float
    window: tuple[Date | None, Date | None] = (None, None)

    def __post_init__(self) -> None:
        if self.kind not in ("multiplicative", "additive"):
            raise ValueError(f"unknown shock kind {self.kind!r}")
        if self.kind == "multiplicative" and not self.magnitude > 0:
            raise ValueError("multiplicative magnitude must be positive")
        reject_reversed("window", self.window)

    def apply(self, value: np.ndarray) -> np.ndarray:
        # a value that overflows to inf is rejected by the refit's input check
        with np.errstate(over="ignore"):
            if self.kind == "multiplicative":
                return value * self.magnitude
            return value + self.magnitude


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    shocks: tuple[Shock, ...]


@dataclass(frozen=True)
class ScenarioComparison:
    name: str
    baseline: Series
    shocked: Series
    difference: Series             # shocked - baseline, pointwise


def apply_scenario(panel: Panel, shocks: list[Shock] | tuple[Shock, ...]) -> Panel:
    """Copy of the panel with every shock applied pointwise inside its
    window, in list order."""
    shocked: dict[str, Series] = {}
    for shock in shocks:
        values = shocked.get(shock.variable, panel.column(shock.variable)).to_array()
        rows = panel.rows_between(*shock.window)
        values[rows] = shock.apply(values[rows])
        shocked[shock.variable] = Series(values)
    return panel.with_columns(shocked)


def _fitted_target(model: econ.VarModel, matrix: np.ndarray, idx: int) -> np.ndarray:
    # residuals are stored, so fitted = observed - residual
    return matrix[model.p :, idx] - model.residuals[:, idx]


def run_sensitivity(
    panel: Panel,
    target: str,
    specs: list[tuple[str, list[Shock]]],
    variables: tuple[str, ...],
    max_lags: int,
    window: tuple[Date | None, Date | None] = (None, None),
) -> list[ScenarioComparison]:
    """Baseline-vs-scenario comparison of in-sample fitted values.

    Fits a VAR(max_lags) on the variables, then refits on each shocked panel
    and compares the target's fitted path; the optional date window
    restricts the sample first (e.g. to a single unstable year). A refit
    factors only the blocks of design rows that read a shocked row, the
    baseline being its ``base`` (:func:`econometrics.fit_var_order`).
    """
    scoped = panel.restrict_dates(*window)
    matrix = scoped.to_matrix(variables)
    idx = variables.index(target)
    baseline_model = econ.fit_var_order(matrix, max_lags, variables)
    baseline_fit = _fitted_target(baseline_model, matrix, idx)
    baseline = Series(baseline_fit)     # one object, shared by every comparison

    comparisons = []
    for name, shocks in specs:
        # shocks hit the full panel, then the variables are taken: a shock on
        # a variable outside them is exactly irrelevant
        shocked_matrix = apply_scenario(scoped, shocks).to_matrix(variables)
        shocked_model = econ.fit_var_order(
            shocked_matrix, max_lags, variables, baseline_model
        )
        shocked_fit = _fitted_target(shocked_model, shocked_matrix, idx)
        comparisons.append(
            ScenarioComparison(
                name, baseline, Series(shocked_fit), Series(shocked_fit - baseline_fit)
            )
        )
    return comparisons


def dual_model_compare(
    panel: Panel,
    domestic: tuple[str, ...],
    enriched_extra: tuple[str, ...],
    target: str,
    shock: Shock,
    steps: int,
    max_lags: int = 5,
) -> tuple[Series, Series]:
    """Domestic vs enriched post-shock forecasts of the target.

    One VAR is fit on the domestic variables, one on them enriched with the
    extra variables (both on unshocked data, lag order by AIC up to
    ``max_lags``); the shock is applied to the panel and each model
    forecasts ``steps`` ahead from its own shocked trailing rows.
    """
    if target not in domestic:
        raise UnknownVariable(target)
    enriched = domestic + tuple(v for v in enriched_extra if v not in domestic)
    shocked = apply_scenario(panel, [shock])

    paths = []
    for variables in (domestic, enriched):
        model = econ.fit_var(panel.to_matrix(variables), max_lags, "aic", variables)
        history = shocked.to_matrix(variables)
        prediction = econ.forecast(model, history, steps)
        paths.append(Series(prediction[:, variables.index(target)]))
    return paths[0], paths[1]


# -- scenario file ------------------------------------------------------------


def load_scenarios(path) -> list[ScenarioSpec]:
    """Scenario list from JSON: ``[{name, shocks: [{variable, kind,
    magnitude, window?}]}]`` with window as a [start, end] pair of ISO dates
    or nulls."""
    return list(parse(tuple[ScenarioSpec, ...], read_json(path), "scenarios"))
