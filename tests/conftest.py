"""Shared fixtures: committed seeds, synthetic canonical panels and the
functor file writer."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import settings

from bimonetary.panel import CANONICAL_VARIABLES, Panel, Series

# `pytest --hypothesis-profile=thorough` for a deeper property sweep
settings.register_profile("thorough", max_examples=500, deadline=None)

#: Suite-wide fixture seed; every randomized fixture drawing from a fresh
#: ``np.random.default_rng(SEED)`` (PCG64) reproduces the committed values.
SEED = 0x5EEDC0DE


def daily_dates(n: int, start: date = date(2018, 1, 1)) -> tuple[date, ...]:
    return tuple(start + timedelta(days=i) for i in range(n))


def make_canonical_panel(n_rows: int = 400, seed: int = SEED) -> Panel:
    """Complete panel over the canonical schema with plausible dynamics.

    The devaluation-expectation column is computed from the covered-parity
    formula so cross-column relationships hold by construction.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n_rows)

    def ar1(level, scale, phi=0.95):
        shocks = rng.standard_normal(n_rows) * scale
        out = np.empty(n_rows)
        out[0] = level
        for i in range(1, n_rows):
            out[i] = level * (1 - phi) + phi * out[i - 1] + shocks[i]
        return out

    usa_pi = ar1(1.9, 0.05)
    long_usd = ar1(2.6, 0.03)
    short_usd = ar1(1.4, 0.02)
    m2_usd = 13861.8 + 1.2 * t + np.cumsum(rng.standard_normal(n_rows))
    ipc_usa = 0.54 + 0.001 * t + 0.01 * rng.standard_normal(n_rows)
    ars_usd = 19.0 * np.exp(np.cumsum(0.001 + 0.01 * rng.standard_normal(n_rows)))
    lending = ar1(-5.4, 0.02)
    ipc_arg = 1.75 + 0.004 * t + np.cumsum(0.02 * rng.standard_normal(n_rows))
    pi_exp = ar1(1.66, 0.08) + 0.003 * t
    long_int = ar1(40.0, 0.5)
    short_int = ar1(28.0, 0.4)
    m2 = 32.7 + 0.05 * t + np.cumsum(0.2 * rng.standard_normal(n_rows))
    gdp_arg = 5.25e11 * (1 + 0.0005 * t) + 1e8 * rng.standard_normal(n_rows)
    gdp_usa = 2.07e13 * (1 + 0.0003 * t) + 1e9 * rng.standard_normal(n_rows)
    embi = np.abs(ar1(400.0, 8.0))
    e_series = pi_exp - usa_pi + short_int - short_usd - embi / 100.0

    data = {
        "Usa Pi Exp": usa_pi,
        "Long Term Usd Rate": long_usd,
        "Short Term Usd Rate": short_usd,
        "M2 Usd": m2_usd,
        "Ipc Usa": ipc_usa,
        "Historical Ars Usd": ars_usd,
        "Argentina Net Lending Borrowing": lending,
        "Ipc Argentina": ipc_arg,
        "Pi Exp": pi_exp,
        "Long Interest": long_int,
        "Short Interest": short_int,
        "M2": m2,
        "Gdp_argentina": gdp_arg,
        "Gdp_usa": gdp_usa,
        "E": e_series,
        "Embi+ARG": embi,
    }
    assert set(data) == set(CANONICAL_VARIABLES)
    return Panel(
        daily_dates(n_rows),
        {name: Series(data[name]) for name in CANONICAL_VARIABLES},
    )


def functor_document(F) -> dict:
    """The functor file that ``category.functor_from_json`` reads as the
    ``Functor`` F: its name, its object map, and its morphism map as
    ``{"from", "to"}`` pairs, each part written by ``typed_json.dump``."""
    # imported here: bench/workloads.py imports this module, and each module
    # imported at the top adds to the benchmark harness's peak memory
    from bimonetary.category import EconObject, MorphismSpec
    from bimonetary.typed_json import dump

    return {
        "name": F.name,
        "object_map": dump(dict[str, EconObject], F.object_map),
        "morphism_map": [
            {"from": dump(MorphismSpec, source), "to": dump(MorphismSpec, image)}
            for source, image in F.morphism_map.items()
        ],
    }


def var_model(names, c, A, sigma, rows: int):
    """The ``econometrics.VarModel`` with variables ``names``, intercepts
    ``c``, lag matrices ``A`` and covariance ``sigma``: ``rows`` zero
    residuals and standard errors of one."""
    from bimonetary.econometrics import VarModel  # imported here: see above

    coef = np.vstack([c, *(np.transpose(a) for a in A)])
    residuals = np.zeros((rows, len(names)))
    return VarModel(len(A), tuple(names), coef, sigma, residuals, np.ones_like(coef))


@pytest.fixture
def canonical_panel() -> Panel:
    return make_canonical_panel()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)
