"""The paper's equations that no command runs, stated as executable checks.

The four linear model equations, one hand-written function each, are the
oracle for `structural.simulate`, which evaluates them from the one table
`structural._EQUATIONS`. Beside them: relative demand with its exponential
tilt, the expectation recursion and its star operation, the introductory toy
demand curves, and the forgetful/learning pair on named variable sets with
its round trip. pytest does not collect this module; the tests import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bimonetary.errors import DivisionByZero
from bimonetary.panel import Panel, Series
from bimonetary.structural import StructuralCoefficients

# -- the four linear model equations -------------------------------------------


def demand_ars(
    y: float, i_ars: float, pi_exp: float, c: StructuralCoefficients
) -> float:
    return y * c.alpha1 + i_ars * c.alpha2 - pi_exp * c.alpha3 + c.ars_intercept


def demand_usd(
    y: float, i_usd: float, pi_usa_exp: float, c: StructuralCoefficients
) -> float:
    return y * c.beta1 + i_usd * c.beta2 - pi_usa_exp * c.beta3 + c.usd_intercept


def inflation_forecast(pi_exp: float, m: float, c: StructuralCoefficients) -> float:
    return pi_exp * c.gamma1 + m * c.gamma2 + c.inflation_intercept


def income(
    m_ars: float, lending_borrowing: float, c: StructuralCoefficients
) -> float:
    return m_ars * c.delta1 + lending_borrowing * c.delta2 + c.income_intercept


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


# -- expectation dynamics ------------------------------------------------------


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


# -- toy demand curves ---------------------------------------------------------


@dataclass(frozen=True)
class ToyDemandParams:
    A: float = 1.0
    B: float = 5.0
    k: float = 2.0
    C: float = 1.0


TOY_DEFAULTS = ToyDemandParams()


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


# -- forgetful and learning functors -------------------------------------------


@dataclass(frozen=True)
class CategorySpec:
    """A named variable set: the monetary system (M), the demand structure
    (Delta), historical feedback (H), or any custom selection."""

    name: str
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("category spec needs at least one variable")


def forgetful_project(panel: Panel, spec: CategorySpec) -> Panel:
    """Sub-panel keeping only the selected variables; dates unchanged."""
    return Panel(panel.dates, {v: panel.column(v) for v in spec.variables})


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
    return Panel(panel.dates[lags:], columns)


def adjunction_roundtrip_check(
    panel: Panel, base: CategorySpec, extra: CategorySpec | None = None
) -> bool:
    """Project-after-enrich must restore the base projection exactly."""
    enriched = learning_enrich(panel, base, extra, lags=0)
    return forgetful_project(enriched, base) == forgetful_project(panel, base)
