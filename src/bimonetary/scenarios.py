"""Sensitivity engine around the forgetful/learning functor pair.

Projection onto a reduced variable set plays the forgetful role; enrichment
with extra variables and lagged copies plays the learning role. Shocks
mutate the data panel (not coefficients) before models are refit or
re-forecast, matching how the scenario experiments are framed.
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
class CategorySpec:
    """A named variable set: the monetary system (M), the demand structure
    (Delta), historical feedback (H), or any custom selection."""

    name: str
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("category spec needs at least one variable")


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


def forgetful_project(panel: Panel, spec: CategorySpec) -> Panel:
    """Sub-panel keeping only the selected variables; dates unchanged."""
    return panel.select(spec.variables)


def learning_enrich(
    panel: Panel,
    base: CategorySpec,
    extra: CategorySpec | None,
    lags: int = 3,
) -> Panel:
    """Reintroduce complexity: extra variables plus lagged copies.

    The result holds the base columns, the extra columns, and for every
    variable v among them the columns ``v_lag1 .. v_lagL``; the leading
    rows whose lags are undefined are dropped.
    """
    if lags < 0:
        raise ValueError("lags must be non-negative")
    names = list(base.variables)
    if extra is not None:
        names += [v for v in extra.variables if v not in names]
    T = panel.n_rows
    columns = {n: Series(panel.column(n).array[lags:]) for n in names}
    for name in names:
        values = panel.column(name).array
        for k in range(1, lags + 1):
            columns[f"{name}_lag{k}"] = Series(values[lags - k : T - k])
    return Panel._on_checked_dates(panel.dates[lags:], columns)


def adjunction_roundtrip_check(
    panel: Panel, base: CategorySpec, extra: CategorySpec | None = None
) -> bool:
    """Project-after-enrich must restore the base projection exactly."""
    enriched = learning_enrich(panel, base, extra, lags=0)
    return forgetful_project(enriched, base) == forgetful_project(panel, base)


def apply_scenario(panel: Panel, shocks: list[Shock] | tuple[Shock, ...]) -> Panel:
    """Copy of the panel with every shock applied pointwise inside its
    window, in list order."""
    columns = dict(panel.columns)
    for shock in shocks:
        if shock.variable not in columns:
            raise UnknownVariable(shock.variable)
        values = columns[shock.variable].to_array()
        rows = panel.rows_between(*shock.window)
        values[rows] = shock.apply(values[rows])
        columns[shock.variable] = Series(values)
    return Panel._on_checked_dates(panel.dates, columns)


def _fitted_target(model: econ.VarModel, matrix: np.ndarray, idx: int) -> np.ndarray:
    # residuals are stored, so fitted = observed - residual
    return matrix[model.p :, idx] - model.residuals[:, idx]


def run_sensitivity(
    panel: Panel,
    target: str,
    specs: list[tuple[str, list[Shock]]],
    model_vars: CategorySpec,
    max_lags: int,
    window: tuple[Date | None, Date | None] = (None, None),
) -> list[ScenarioComparison]:
    """Baseline-vs-scenario comparison of in-sample fitted values.

    Fits a VAR(max_lags) on the model variables, then refits on each shocked
    panel and compares the target's fitted path; the optional date window
    restricts the sample first (e.g. to a single unstable year). A refit
    factors only the blocks of design rows that read a shocked row, the
    baseline being its ``base`` (:func:`econometrics.fit_var_order`).
    """
    if target not in model_vars.variables:
        raise UnknownVariable(target)
    scoped = panel.restrict_dates(*window)
    base_panel = forgetful_project(scoped, model_vars)
    matrix = base_panel.to_matrix()
    idx = model_vars.variables.index(target)
    baseline_model = econ.fit_var_order(matrix, max_lags, model_vars.variables)
    baseline_fit = _fitted_target(baseline_model, matrix, idx)
    baseline = Series(baseline_fit)     # one object, shared by every comparison

    comparisons = []
    for name, shocks in specs:
        # shocks hit the full panel, then the model projection: a shock on a
        # variable outside model_vars is exactly irrelevant
        shocked_panel = forgetful_project(apply_scenario(scoped, shocks), model_vars)
        shocked_matrix = shocked_panel.to_matrix()
        shocked_model = econ.fit_var_order(
            shocked_matrix, max_lags, model_vars.variables, baseline_model
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
    domestic: CategorySpec,
    enriched_extra: CategorySpec,
    target: str,
    shock: Shock,
    steps: int,
    max_lags: int = 5,
) -> tuple[Series, Series]:
    """Domestic vs enriched post-shock forecasts of the target.

    One VAR is fit on the domestic projection, one on the projection
    enriched with the extra variables (both on unshocked data, lag order by
    AIC up to ``max_lags``); the shock is applied to the panel and each
    model forecasts ``steps`` ahead from its own shocked trailing rows.
    """
    if target not in domestic.variables:
        raise UnknownVariable(target)
    enriched = CategorySpec(
        "enriched",
        domestic.variables
        + tuple(v for v in enriched_extra.variables if v not in domestic.variables),
    )
    shocked = apply_scenario(panel, [shock])

    paths = []
    for spec in (domestic, enriched):
        sub = forgetful_project(panel, spec)
        model = econ.fit_var(sub.to_matrix(), max_lags, "aic", spec.variables)
        history = forgetful_project(shocked, spec).to_matrix()
        prediction = econ.forecast(model, history, steps)
        paths.append(Series(prediction[:, spec.variables.index(target)]))
    return paths[0], paths[1]


# -- scenario file ------------------------------------------------------------


def load_scenarios(path) -> list[ScenarioSpec]:
    """Scenario list from JSON: ``[{name, shocks: [{variable, kind,
    magnitude, window?}]}]`` with window as a [start, end] pair of ISO dates
    or nulls."""
    return list(parse(tuple[ScenarioSpec, ...], read_json(path), "scenarios"))
