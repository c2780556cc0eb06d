"""Closed-form model equations for the bimonetary economy.

Currency demands, relative demand, the covered-parity devaluation
expectation, inflation and income forecasts, the expectation recursion and
its star operation, the introductory toy demand curves, plus least-squares
calibration of the coefficients against a panel and panel-wide simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from ._regression import qr_least_squares, r_squared
from .errors import DivisionByZero, InsufficientRows
from .panel import Panel, Series


@dataclass(frozen=True)
class StructuralCoefficients:
    """Sensitivities of the four linear model equations.

    Peso demand      L_ars = Y*alpha1 + i_ars*alpha2 - pi_ars_exp*alpha3
    Dollar demand    L_usd = Y*beta1 + i_usd*beta2 - pi_usd_exp*beta3
    Inflation        pi    = pi_exp*gamma1 + M*gamma2
    Income           Y     = M_ars*delta1 + lending_borrowing*delta2

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


@dataclass(frozen=True)
class ExpectationDynamicsParams:
    """Weights of the expectation recursion plus the optional nonlinear
    correction eta(pi, E) used by the star operation (default: identically 0).
    """

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    eta: Callable[[float, float], float] | None = None

    def __post_init__(self) -> None:
        for value in (self.a, self.b, self.c):
            if not math.isfinite(value):
                raise ValueError("recursion weights must be finite")


@dataclass(frozen=True)
class ToyDemandParams:
    A: float = 1.0
    B: float = 5.0
    k: float = 2.0
    C: float = 1.0


TOY_DEFAULTS = ToyDemandParams()


def demand_ars(
    y: float, i_ars: float, pi_exp: float, c: StructuralCoefficients
) -> float:
    return y * c.alpha1 + i_ars * c.alpha2 - pi_exp * c.alpha3 + c.ars_intercept


def demand_usd(
    y: float, i_usd: float, pi_usa_exp: float, c: StructuralCoefficients
) -> float:
    return y * c.beta1 + i_usd * c.beta2 - pi_usa_exp * c.beta3 + c.usd_intercept


def relative_demand(
    l_ars: float,
    l_usd: float,
    i_ars: float = 0.0,
    i_usd: float = 0.0,
    exponential: bool = False,
) -> float:
    """Peso/dollar demand ratio, optionally tilted by exp(i_ars - i_usd) to
    express the rate-differential attraction of holding pesos.

    Accepts scalars or aligned arrays."""
    if np.any(l_usd == 0.0):
        raise DivisionByZero(None, "relative demand denominator")
    ratio = l_ars / l_usd
    if exponential:
        ratio = ratio * np.exp(i_ars - i_usd)
    return ratio


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


def inflation_forecast(pi_exp: float, m: float, c: StructuralCoefficients) -> float:
    return pi_exp * c.gamma1 + m * c.gamma2 + c.inflation_intercept


def income(
    m_ars: float, lending_borrowing: float, c: StructuralCoefficients
) -> float:
    return m_ars * c.delta1 + lending_borrowing * c.delta2 + c.income_intercept


def expectation_step(
    pi_t: float,
    i_real_t: float,
    delta_e_t: float,
    p: ExpectationDynamicsParams,
    noise: float = 0.0,
) -> float:
    """One step of the expectation recursion:
    pi(t+1) = a*pi(t) + b*i_real(t) + c*dE(t) + noise."""
    return p.a * pi_t + p.b * i_real_t + p.c * delta_e_t + noise


def expectation_star(
    pi: float, e: float, p: ExpectationDynamicsParams | None = None
) -> float:
    """Group operation pi * E = pi + E + eta(pi, E); plain addition when the
    correction term is absent, making 0 the neutral element."""
    eta = p.eta if p is not None else None
    correction = eta(pi, e) if eta is not None else 0.0
    return pi + e + correction


def toy_demand_pesos(
    y: float, i_p: float, pi_e: float, p: ToyDemandParams = TOY_DEFAULTS
) -> float:
    """Y / ((1 + i_P) * exp(C * pi_e)); strictly decreasing in both the peso
    rate and expected inflation for positive income."""
    if i_p <= -1.0:
        raise ValueError("peso rate must exceed -1")
    return y / ((1.0 + i_p) * math.exp(p.C * pi_e))


def toy_demand_usd(
    pi_e: float, i_d: float, p: ToyDemandParams = TOY_DEFAULTS
) -> float:
    """A * (1 + B * pi_e**k) / (1 + i_D)."""
    if i_d <= -1.0:
        raise ValueError("dollar rate must exceed -1")
    return p.A * (1.0 + p.B * pi_e**p.k) / (1.0 + i_d)


# -- calibration ---------------------------------------------------------------


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


#: The equations calibrate fits, in order: the ProxyMap field of the target,
#: the terms (regressor field -> coefficient), and the intercept coefficient.
#: A leading "-" marks a term the equation subtracts, whose fitted slope is
#: reported negated as the positive-sign sensitivity. Each target field also
#: names the equation's R².
_EQUATIONS = (
    (
        "peso_demand",
        {"income": "alpha1", "peso_rate": "alpha2", "peso_inflation_exp": "-alpha3"},
        "ars_intercept",
    ),
    (
        "dollar_demand",
        {"income": "beta1", "dollar_rate": "beta2", "dollar_inflation_exp": "-beta3"},
        "usd_intercept",
    ),
    (
        "inflation",
        {"peso_inflation_exp": "gamma1", "money_supply": "gamma2"},
        "inflation_intercept",
    ),
    (
        "income",
        {"money_supply": "delta1", "lending_borrowing": "delta2"},
        "income_intercept",
    ),
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
    for target, terms, intercept in _EQUATIONS:
        regressors = [getattr(proxies, field) for field in terms]
        beta, r2[target] = _fit_equation(
            panel, getattr(proxies, target), regressors, include_intercepts
        )
        for name, slope in zip(terms.values(), beta):
            values[name.lstrip("-")] = -float(slope) if name[0] == "-" else float(slope)
        if include_intercepts:
            values[intercept] = float(beta[-1])
    return CalibrationResult(StructuralCoefficients(**values), r2)


def simulate(
    panel: Panel,
    c: StructuralCoefficients,
    proxies: ProxyMap = DEFAULT_PROXIES,
) -> Panel:
    """Forecast panel: the input columns plus the model-implied series,
    prefixed ``model_``, for real-vs-forecast comparison.

    Computes peso/dollar demand, relative demand, the devaluation
    expectation, the inflation forecast and income per date.
    """
    px = proxies
    inputs = panel.to_matrix(
        [
            px.income, px.peso_rate, px.dollar_rate, px.peso_inflation_exp,
            px.dollar_inflation_exp, px.peso_short_rate, px.dollar_short_rate,
            px.risk_spread, px.money_supply, px.lending_borrowing,
        ]
    )
    present = ~np.isnan(inputs).any(axis=1)
    (
        y, i_ars, i_usd, pi_ars, pi_usd, short_ars, short_usd, embi, m2, lending
    ) = inputs[present].T
    l_ars = demand_ars(y, i_ars, pi_ars, c)
    l_usd = demand_usd(y, i_usd, pi_usd, c)
    if (l_usd == 0.0).any():
        first = np.flatnonzero(present)[np.argmax(l_usd == 0.0)]
        raise DivisionByZero(panel.dates[first], "model dollar demand")
    model = {
        "model_L_ars": l_ars,
        "model_L_usd": l_usd,
        "model_relative_demand": relative_demand(l_ars, l_usd),
        "model_E": devaluation_expectation(
            pi_ars, pi_usd, short_ars, short_usd, embi
        ),
        "model_pi": inflation_forecast(pi_ars, m2, c),
        "model_Y": income(m2, lending, c),
    }
    columns = {}
    for name, values in model.items():
        full = np.full(panel.n_rows, np.nan)
        full[present] = values
        columns[name] = Series(full)
    return panel.with_columns(columns)
