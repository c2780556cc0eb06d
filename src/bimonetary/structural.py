"""The bimonetary economy's four linear model equations, stated once in
`_EQUATIONS`: their least-squares calibration against a panel, and their
panel-wide simulation beside relative demand and the covered-parity
devaluation expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._regression import qr_least_squares, r_squared
from .errors import DivisionByZero, InsufficientRows, NonFiniteValue
from .panel import Panel, Series


@dataclass(frozen=True)
class StructuralCoefficients:
    """Sensitivities of the four linear model equations, each named by its
    term in `_EQUATIONS`.

    Intercepts default to zero; disable them at calibration time for a
    literal intercept-free fit.
    """

    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    beta3: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0
    ars_intercept: float = 0.0
    usd_intercept: float = 0.0
    inflation_intercept: float = 0.0
    income_intercept: float = 0.0

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not math.isfinite(value):
                raise ValueError(f"{spec.name} must be finite, got {value!r}")


def devaluation_expectation(
    pi_arg: float,
    pi_usa: float,
    i_arg_short: float,
    i_usa_short: float,
    embi: float,
) -> float:
    """Covered interest parity adjusted by country risk.

    Inflation expectations and short rates are in percent; the risk spread
    is in basis points and enters divided by 100.
    """
    return pi_arg - pi_usa + i_arg_short - i_usa_short - embi / 100.0


# -- calibration and simulation ------------------------------------------------


@dataclass(frozen=True)
class ProxyMap:
    """Observable series standing in for the model quantities when fitting.

    The schema offers no direct demand or expectation observables, so money
    aggregates proxy demands and the GDP level proxies income; every choice
    is overridable.
    """

    peso_demand: str = "M2"
    dollar_demand: str = "M2 Usd"
    income: str = "Gdp_argentina"
    inflation: str = "Ipc Argentina"
    peso_rate: str = "Long Interest"
    dollar_rate: str = "Long Term Usd Rate"
    peso_inflation_exp: str = "Pi Exp"
    dollar_inflation_exp: str = "Usa Pi Exp"
    money_supply: str = "M2"
    lending_borrowing: str = "Argentina Net Lending Borrowing"
    peso_short_rate: str = "Short Interest"
    dollar_short_rate: str = "Short Term Usd Rate"
    risk_spread: str = "Embi+ARG"


DEFAULT_PROXIES = ProxyMap()


@dataclass(frozen=True)
class CalibrationResult:
    coefficients: StructuralCoefficients
    r_squared: dict[str, float]


def _fit_equation(
    panel: Panel, target: str, regressors: list[str], intercept: bool
) -> tuple[np.ndarray, float]:
    y = panel.column(target).array
    columns = [panel.column(n).array for n in regressors]
    X = np.column_stack(columns + [np.ones(panel.n_rows)] if intercept else columns)
    if np.isnan(X).any() or np.isnan(y).any():
        raise ValueError("calibration panel contains missing values; clean first")
    if panel.n_rows < X.shape[1]:
        raise InsufficientRows(
            f"{panel.n_rows} rows cannot identify {X.shape[1]} coefficients "
            f"for {target!r}"
        )
    fit = qr_least_squares(X, y)
    return fit.beta, r_squared(y, fit.residuals)


#: The four model equations, in order: the simulated column, the ProxyMap
#: field of the target, the terms (regressor field -> coefficient), and the
#: intercept coefficient. A leading "-" marks a term the equation subtracts,
#: whose fitted slope is reported negated as the positive-sign sensitivity;
#: no equation subtracts its first term. Each target field also names the
#: equation's R².
_EQUATIONS = (
    (
        "model_L_ars",
        "peso_demand",
        {"income": "alpha1", "peso_rate": "alpha2", "peso_inflation_exp": "-alpha3"},
        "ars_intercept",
    ),
    (
        "model_L_usd",
        "dollar_demand",
        {"income": "beta1", "dollar_rate": "beta2", "dollar_inflation_exp": "-beta3"},
        "usd_intercept",
    ),
    (
        "model_pi",
        "inflation",
        {"peso_inflation_exp": "gamma1", "money_supply": "gamma2"},
        "inflation_intercept",
    ),
    (
        "model_Y",
        "income",
        {"money_supply": "delta1", "lending_borrowing": "delta2"},
        "income_intercept",
    ),
)

#: The ProxyMap fields that devaluation_expectation reads, in its order.
_PARITY = (
    "peso_inflation_exp",
    "dollar_inflation_exp",
    "peso_short_rate",
    "dollar_short_rate",
    "risk_spread",
)


def calibrate(
    panel: Panel,
    proxies: ProxyMap = DEFAULT_PROXIES,
    include_intercepts: bool = True,
) -> CalibrationResult:
    """Ordinary least squares fit of each model equation against the panel.

    Returns the recovered coefficients together with per-equation R²;
    without intercepts every intercept stays zero.
    """
    values: dict[str, float] = {}
    r2: dict[str, float] = {}
    for _, target, terms, intercept in _EQUATIONS:
        regressors = [getattr(proxies, field) for field in terms]
        beta, r2[target] = _fit_equation(
            panel, getattr(proxies, target), regressors, include_intercepts
        )
        for name, slope in zip(terms.values(), beta):
            values[name.lstrip("-")] = -float(slope) if name[0] == "-" else float(slope)
        if include_intercepts:
            values[intercept] = float(beta[-1])
    return CalibrationResult(StructuralCoefficients(**values), r2)


def _evaluate(
    x: dict[str, np.ndarray],
    c: StructuralCoefficients,
    terms: dict[str, str],
    intercept: str,
) -> np.ndarray:
    """One equation on the proxy columns ``x``: its terms added in table
    order, a "-" term subtracted, then the intercept added."""
    (field, name), *rest = terms.items()
    value = x[field] * getattr(c, name)
    for field, name in rest:
        term = x[field] * getattr(c, name.lstrip("-"))
        value = value - term if name[0] == "-" else value + term
    return value + getattr(c, intercept)


def simulate(
    panel: Panel,
    c: StructuralCoefficients,
    proxies: ProxyMap = DEFAULT_PROXIES,
) -> Panel:
    """Forecast panel: the input columns plus the model-implied series,
    prefixed ``model_``, for real-vs-forecast comparison.

    Computes peso/dollar demand, relative demand, the devaluation
    expectation, the inflation forecast and income per date, on the dates
    where every proxy they read is present.
    """
    used = dict.fromkeys(
        [*(field for _, _, terms, _ in _EQUATIONS for field in terms), *_PARITY]
    )
    inputs = panel.to_matrix([getattr(proxies, field) for field in used])
    present = ~np.isnan(inputs).any(axis=1)
    rows = np.flatnonzero(present)
    x = dict(zip(used, inputs[present].T))
    with np.errstate(over="ignore", invalid="ignore"):  # then raised by date
        equations = {
            column: _evaluate(x, c, terms, intercept)
            for column, _, terms, intercept in _EQUATIONS
        }
        l_ars, l_usd = equations["model_L_ars"], equations["model_L_usd"]
        if (l_usd == 0.0).any():
            first = rows[np.argmax(l_usd == 0.0)]
            raise DivisionByZero(panel.dates[first], "model dollar demand")
        # unpacked last, the equations keep the demands in the first places
        # and put the inflation and income forecasts after model_E
        model = {
            "model_L_ars": l_ars,
            "model_L_usd": l_usd,
            "model_relative_demand": l_ars / l_usd,
            "model_E": devaluation_expectation(*(x[field] for field in _PARITY)),
            **equations,
        }
    # the first date with a non-finite model value, and its first such column
    bad = ~np.isfinite(np.column_stack(list(model.values())))
    if bad.any():
        row, column = divmod(int(np.argmax(bad)), len(model))
        raise NonFiniteValue(panel.dates[rows[row]], list(model)[column])
    columns = {}
    for name, values in model.items():
        full = np.full(panel.n_rows, np.nan)
        full[present] = values
        columns[name] = Series(full)
    return panel.with_columns(columns)
