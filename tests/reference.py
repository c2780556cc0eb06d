"""Deliberately naive textbook versions of the package's statistics, built
on scipy, for use as test oracles where statsmodels is absent.

Nothing here is shared with the package: every candidate model is its own
``scipy.linalg.lstsq`` fit on a design assembled column by column, and
tail probabilities come from ``scipy.stats``.
"""

from __future__ import annotations

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
