"""Per-date equilibrium exchange rate as the minimizer of three squared
penalty terms, in closed form, with a derivative-free solver as its check.

Each penalty ties the candidate rate to one consolidating relation: the
US/Argentina GDP ratio, the risk-scaled observed rate, and the long-term
dollar rate. The sum of squared deviations is minimized by the mean of the
three targets, computed for every row at once; the one-dimensional
Nelder-Mead solver is the reference the closed form is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from itertools import compress
from typing import Callable

import numpy as np

from .errors import EmptyResult, NonFiniteObjective
from .panel import Panel

#: A scalar for one date, or an aligned float64 column for many dates;
#: the target formulas below act elementwise on either.
Values = float | np.ndarray


@dataclass(frozen=True)
class EquilibriumTargets:
    gdp_ratio: Values           # gdp_usa / gdp_argentina
    risk_scaled_rate: Values    # embi * observed ars/usd
    long_usd_rate: Values       # percent

    def __post_init__(self) -> None:
        values = (self.gdp_ratio, self.risk_scaled_rate, self.long_usd_rate)
        if not np.isfinite(values).all():
            raise ValueError("equilibrium targets must be finite")

    @staticmethod
    def from_values(
        gdp_usa: Values,
        gdp_argentina: Values,
        embi: Values,
        ars_usd: Values,
        long_usd_rate: Values,
        embi_in_percent: bool = False,
    ) -> "EquilibriumTargets":
        if not np.all(gdp_argentina > 0):
            raise ValueError("gdp_argentina must be positive")
        spread = embi / 100.0 if embi_in_percent else embi
        return EquilibriumTargets(
            gdp_usa / gdp_argentina, spread * ars_usd, long_usd_rate
        )


def penalty(e: Values, targets: EquilibriumTargets) -> Values:
    """(e - t1)^2 + (e - t2)^2 + (e - t3)^2."""
    return (
        (e - targets.gdp_ratio) ** 2
        + (e - targets.risk_scaled_rate) ** 2
        + (e - targets.long_usd_rate) ** 2
    )


def analytic_equilibrium(targets: EquilibriumTargets) -> Values:
    """The minimizer of a sum of squared deviations is the target mean."""
    return (
        targets.gdp_ratio + targets.risk_scaled_rate + targets.long_usd_rate
    ) / 3.0


#: The simplex moves: Nelder & Mead's (1965) reflection, expansion,
#: contraction and shrink coefficients.
REFLECTION, EXPANSION, CONTRACTION, SHRINK = 1.0, 2.0, 0.5, 0.5
#: The stopping rule: simplex width, relative f-spread, iteration cap.
X_TOLERANCE, F_TOLERANCE, MAX_ITERATIONS = 1e-8, 1e-12, 500


@dataclass(frozen=True)
class NelderMeadResult:
    x_min: float
    f_min: float
    iterations: int
    converged: bool     # False: stopped at MAX_ITERATIONS


def nelder_mead_1d(objective: Callable[[float], float], x0: float) -> NelderMeadResult:
    """Simplex minimization in one dimension (a two-point simplex from
    ``x0`` and ``x0 + max(0.05|x0|, 0.1)``).

    Terminates when the simplex width is within :data:`X_TOLERANCE` and the
    f-spread within :data:`F_TOLERANCE` relative to ``max(1, |f_best|)``, a
    test that large objectives can still meet (Lagarias et al., SIAM J.
    Optim. 9(1), 1998); hitting :data:`MAX_ITERATIONS` is reported through
    the ``converged`` flag rather than an exception.
    """

    def f(x: float) -> float:
        value = objective(x)
        if not math.isfinite(value):
            raise NonFiniteObjective(f"objective is {value!r} at x={x!r}")
        return value

    best, worst = x0, x0 + max(0.05 * abs(x0), 0.1)
    f_best, f_worst = f(best), f(worst)
    if f_worst < f_best:
        best, worst = worst, best
        f_best, f_worst = f_worst, f_best

    iterations = 0
    while iterations < MAX_ITERATIONS:
        if (
            abs(worst - best) <= X_TOLERANCE
            and abs(f_worst - f_best) <= F_TOLERANCE * max(1.0, abs(f_best))
        ):
            return NelderMeadResult(best, f_best, iterations, True)
        iterations += 1

        # centroid of all-but-worst is the best point itself
        reflected = best + REFLECTION * (best - worst)
        f_reflected = f(reflected)
        if f_reflected < f_best:
            expanded = best + EXPANSION * (best - worst)
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                worst, f_worst = expanded, f_expanded
            else:
                worst, f_worst = reflected, f_reflected
        elif f_reflected < f_worst:
            worst, f_worst = reflected, f_reflected
        else:
            contracted = best + CONTRACTION * (worst - best)
            f_contracted = f(contracted)
            if f_contracted < f_worst:
                worst, f_worst = contracted, f_contracted
            else:
                worst = best + SHRINK * (worst - best)
                f_worst = f(worst)
        if f_worst < f_best:
            best, worst = worst, best
            f_best, f_worst = f_worst, f_best
    return NelderMeadResult(best, f_best, iterations, False)


REQUIRED_COLUMNS = (
    "Gdp_usa",
    "Gdp_argentina",
    "Embi+ARG",
    "Historical Ars Usd",
    "Long Term Usd Rate",
)


@dataclass(frozen=True)
class EquilibriumSeries:
    """Solved rows: one float64 array per quantity, aligned to ``dates``."""

    dates: tuple[Date, ...]
    e_star: np.ndarray
    penalty_at_min: np.ndarray
    observed: np.ndarray
    gap: np.ndarray                     # e_star - observed
    skipped_dates: tuple[Date, ...]     # rows with a missing input


def solve_panel(
    panel: Panel,
    embi_in_percent: bool = False,
) -> EquilibriumSeries:
    """Closed-form equilibrium for every row: the mean of the three targets.

    Rows missing any input are skipped and listed in the result. The risk
    spread multiplies the observed rate raw, exactly as the penalty is
    written; set ``embi_in_percent`` when the column stores percent instead
    of basis points. Raises ``ValueError`` for a non-positive Argentine GDP
    or a non-finite target, and :class:`NonFiniteObjective` when the
    penalty at the minimizer overflows.
    """
    cells = panel.to_matrix(REQUIRED_COLUMNS)
    present = ~np.isnan(cells).any(axis=1)
    gdp_usa, gdp_arg, embi, ars_usd, long_rate = cells[present].T
    with np.errstate(over="ignore", invalid="ignore"):
        targets = EquilibriumTargets.from_values(
            gdp_usa, gdp_arg, embi, ars_usd, long_rate, embi_in_percent
        )
        e_star = analytic_equilibrium(targets)
        penalties = penalty(e_star, targets)
    if not np.isfinite(penalties).all():
        raise NonFiniteObjective("penalty at the equilibrium rate overflows")
    return EquilibriumSeries(
        tuple(compress(panel.dates, present)),
        e_star,
        penalties,
        ars_usd,
        e_star - ars_usd,
        tuple(compress(panel.dates, ~present)),
    )


@dataclass(frozen=True)
class GapReport:
    mean_gap: float
    max_abs_gap: float
    sign_runs: int      # maximal blocks of equal nonzero sign


def gap_report(result: EquilibriumSeries) -> GapReport:
    """Aggregate misalignment statistics of equilibrium vs observation."""
    gaps = result.gap
    if not len(gaps):
        raise EmptyResult("no solved rows to report on")
    signs = np.sign(gaps)
    signs = signs[signs != 0]
    runs = int(signs.size > 0) + int(np.count_nonzero(np.diff(signs)))
    return GapReport(
        # built-in sum adds left to right, as the report always has;
        # np.sum's pairwise order would move the last bits
        sum(gaps.tolist()) / len(gaps),
        float(np.abs(gaps).max()),
        runs,
    )
