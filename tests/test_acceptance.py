"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE <name>: PASS/FAIL`` line per criterion. Each criterion pins its
tolerance and runtime budget here; nothing is deferred to calibration.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bimonetary import econometrics as econ
from bimonetary.category import (
    Affine,
    EconObject,
    Functor,
    MorphismSpec,
    RiskDiscount,
    ScaleBySeries,
    check_functor_laws,
    compose,
    evaluate,
    identity,
)
from bimonetary.cli import main
from bimonetary.colimit import build_indicator, validate_and_forecast
from bimonetary.equilibrium import (
    EquilibriumTargets,
    analytic_equilibrium,
    nelder_mead_1d,
    penalty,
)
from bimonetary.panel import Panel, Series, write_csv
from bimonetary.structural import devaluation_expectation
from tests.conftest import SEED, daily_dates, make_canonical_panel, var_model
from tests.paper import (
    CategorySpec,
    adjunction_roundtrip_check,
    toy_demand_pesos,
    toy_demand_usd,
)


@contextmanager
def criterion(name: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"ACCEPTANCE {name}: FAIL (runtime {elapsed:.2f}s)")
        raise AssertionError(
            f"{name}: runtime {elapsed:.2f}s exceeds {budget_seconds}s budget"
        )
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_equilibrium_oracle():
    with criterion("equilibrium-oracle", budget_seconds=5.0):
        rng = np.random.default_rng(SEED)
        for _ in range(1000):
            targets = EquilibriumTargets(*rng.uniform(0.1, 5000.0, size=3))
            x0 = float(rng.uniform(1.0, 100.0))
            solution = nelder_mead_1d(lambda e: penalty(e, targets), x0)
            mean = analytic_equilibrium(targets)
            assert abs(solution.x_min - mean) <= 1e-6 * max(1.0, abs(mean))

        # first data row: GDP values are table-rounded, hence the 1% band
        row = EquilibriumTargets.from_values(
            2.07e13, 5.25e11, 361.0, 19.087, 2.58
        )
        solution = nelder_mead_1d(lambda e: penalty(e, row), 19.087)
        assert solution.x_min == pytest.approx(2310.8, rel=0.01)


def test_devaluation_expectation_anchor():
    with criterion("devaluation-anchor"):
        value = devaluation_expectation(1.658333, 1.9, 28.0, 1.41, 361.0)
        assert value == pytest.approx(22.738333, abs=1e-9)
        assert abs(value - 22.73833) <= 5e-6


def test_fevd_structure():
    with criterion("fevd-structure", budget_seconds=1.0):
        rng = np.random.default_rng(SEED)
        A = np.array([[0.5, 0.1, 0.0], [0.0, 0.3, 0.2], [0.1, 0.0, 0.4]])
        data = np.zeros((500, 3))
        shocks = rng.standard_normal((500, 3))
        for t in range(1, 500):
            data[t] = A @ data[t - 1] + shocks[t]
        model = econ.fit_var_order(data, 1)
        shares = econ.fevd(model, 10)
        np.testing.assert_allclose(shares.sum(axis=2), 1.0, atol=1e-9)
        assert shares.min() >= 0.0 and shares.max() <= 1.0
        # first-ordered variable, horizon 1: all of its variance is its own shock
        assert shares[0, 0, 0] == 1.0
        assert shares[0, 0, 1] == 0.0 and shares[0, 0, 2] == 0.0


def test_var_recovery():
    with criterion("var-recovery", budget_seconds=10.0):
        rng = np.random.default_rng(SEED)
        A = np.array([[0.5, 0.1], [0.0, 0.3]])
        data = np.zeros((10_000, 2))
        shocks = rng.standard_normal((10_000, 2))
        for t in range(1, 10_000):
            data[t] = A @ data[t - 1] + shocks[t]
        model = econ.fit_var(data, 5, "aic")
        assert model.p == 1
        assert np.abs(model.A[0] - A).max() <= 0.05


def test_irf_closed_form():
    with criterion("irf-closed-form"):
        scalar = var_model(("y",), np.zeros(1), (np.array([[0.5]]),), np.eye(1), 20)
        psi = [float(m[0, 0]) for m in econ.irf(scalar, 5)[0]]
        assert psi == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]

        rng = np.random.default_rng(SEED)
        data = rng.standard_normal((200, 3)).cumsum(axis=0) * 0.01 + rng.standard_normal((200, 3))
        for p in (0, 1, 2):
            model = econ.fit_var_order(data, p)
            np.testing.assert_array_equal(econ.irf(model, 3)[0][0], np.eye(3))


def test_statistical_test_fixtures():
    with criterion("stat-test-fixtures", budget_seconds=5.0):
        rng = np.random.default_rng(SEED)
        noise = rng.standard_normal(500)
        walk = np.cumsum(noise)
        assert econ.adf_test(noise).is_stationary
        assert not econ.adf_test(walk).is_stationary

        rng = np.random.default_rng(SEED)
        T = 200
        x = rng.standard_normal(T)
        jitter = 0.1 * rng.standard_normal(T)
        y = np.zeros(T)
        y[1:] = 0.8 * x[:-1] + jitter[1:]
        _, causal = econ.granger(x, y, 5)
        assert causal[0] < 0.01
        x_ind = rng.standard_normal(T)
        y_ind = rng.standard_normal(T)
        _, independent = econ.granger(x_ind, y_ind, 5)
        assert all(p_value > 0.05 for p_value in independent)

        rng = np.random.default_rng(SEED)
        iid = rng.standard_normal(300)
        assert econ.ljung_box(iid, 10).p_value > 0.05
        shocks = rng.standard_normal(300)
        ar = np.zeros(300)
        for t in range(1, 300):
            ar[t] = 0.9 * ar[t - 1] + shocks[t]
        assert econ.ljung_box(ar, 10).p_value < 0.01


def test_toy_curve_anchors():
    with criterion("toy-curve-anchors"):
        # oracle: direct evaluation of the printed expressions at pi_e = 60%
        pesos_oracle = 100.0 / (1.45 * math.exp(0.6))
        assert toy_demand_pesos(100, 0.45, 0.6) == pytest.approx(
            pesos_oracle, abs=1e-4
        )
        assert toy_demand_pesos(100, 0.45, 0.6) == pytest.approx(
            37.849078, abs=1e-4
        )
        assert toy_demand_usd(0.6, 0.05) == pytest.approx(2.666667, abs=1e-6)


def test_category_laws():
    with criterion("category-laws", budget_seconds=1.0):
        rng = np.random.default_rng(SEED)
        objects = [EconObject(f"v{i}") for i in range(5)]
        panel = Panel(
            daily_dates(25),
            {
                **{o.id: Series(rng.uniform(-4, 4, 25)) for o in objects},
                "scale": Series(rng.uniform(0.5, 2.0, 25)),
                "rho": Series(rng.uniform(0.0, 0.5, 25)),
            },
        )
        morphisms = []
        for i in range(50):
            src, tgt = (objects[j] for j in rng.integers(0, 5, size=2))
            draw = i % 3
            if draw == 0:
                kind = Affine(float(rng.uniform(-2, 2)), float(rng.uniform(-3, 3)))
            elif draw == 1:
                kind = ScaleBySeries("scale")
            else:
                kind = RiskDiscount("rho")
            morphisms.append(MorphismSpec(kind, src.id, tgt.id))

        composable = [
            (f, g)
            for f in morphisms
            for g in morphisms
            if f.target == g.source
        ]
        assert len(composable) > 50
        for f, g in composable:
            # identity laws, exact
            assert compose(identity(f.source), f) == f
            assert compose(f, identity(f.target)) == f
            # affine canonical form, exact
            if isinstance(f.kind, Affine) and isinstance(g.kind, Affine):
                out = compose(f, g)
                assert out.kind == Affine(
                    g.kind.a * f.kind.a, g.kind.a * f.kind.b + g.kind.b
                )
        checked = 0
        for f, g in composable[:40]:
            for h in morphisms:
                if g.target != h.source:
                    continue
                left = evaluate(compose(compose(f, g), h), panel).to_array()
                right = evaluate(compose(f, compose(g, h)), panel).to_array()
                all_affine = all(
                    isinstance(m.kind, Affine) for m in (f, g, h)
                )
                if all_affine:
                    # canonicalized product: 1 ulp-scale float reassociation
                    np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)
                else:
                    # chain flattening is order-preserving: identical data
                    np.testing.assert_array_equal(left, right)
                checked += 1
        assert checked > 30

        copy = Functor(
            "copy", {o.id: o for o in objects}, {m: m for m in morphisms}
        )
        report = check_functor_laws(copy, morphisms, panel, tol=0.0)
        assert report.passed

        for trial in range(10):
            sub_rng = np.random.default_rng(SEED + trial)
            trial_panel = Panel(
                daily_dates(12),
                {
                    f"c{i}": Series(sub_rng.uniform(-9, 9, 12))
                    for i in range(4)
                },
            )
            base = CategorySpec("base", ("c0", "c2"))
            extra = CategorySpec("extra", ("c1",))
            assert adjunction_roundtrip_check(trial_panel, base, extra)


def test_colimit_contract():
    with criterion("colimit-contract", budget_seconds=5.0):
        panel = make_canonical_panel(300)
        indicator = build_indicator(panel)
        assert sum(indicator.dynamic_weights.values()) == pytest.approx(
            1.0, abs=1e-12
        )
        reference = [v for v in panel.column("E").values]
        scaled = [v for v in indicator.scaled.values if v is not None]
        assert max(scaled) == max(reference)
        assert min(scaled) == min(reference)

        e = panel.column("E").to_array()
        rng = np.random.default_rng(SEED)
        lead = np.empty_like(e)
        lead[:-1] = e[1:]
        lead[-1] = e[-1]
        lead += 0.01 * rng.standard_normal(len(e))
        leading = indicator.__class__(
            indicator.pca_aggregate,
            indicator.dynamic_weights,
            indicator.weighted_aggregate,
            indicator.scaled,
            Series(lead),
        )
        (_, causal), _ = validate_and_forecast(panel, leading)
        assert causal[0] < 0.01

        noise = indicator.__class__(
            indicator.pca_aggregate,
            indicator.dynamic_weights,
            indicator.weighted_aggregate,
            indicator.scaled,
            Series(rng.standard_normal(panel.n_rows)),
        )
        (_, non_causal), _ = validate_and_forecast(panel, noise)
        assert non_causal[0] > 0.05


def test_cli_determinism(tmp_path):
    with criterion("cli-determinism", budget_seconds=30.0):
        rng = np.random.default_rng(SEED)
        n = 5000
        columns = {
            f"v{i}": Series(
                np.cumsum(rng.standard_normal(n)) * 0.1
                + 10.0
                + rng.standard_normal(n)
            )
            for i in range(4)
        }
        csv_path = tmp_path / "panel.csv"
        write_csv(Panel(daily_dates(n), columns), csv_path)

        trees = []
        for label in ("a", "b"):
            out = tmp_path / label
            code = main(
                [
                    "pipeline",
                    "--input",
                    str(csv_path),
                    "--out",
                    str(out),
                    "--seed",
                    "20180101",
                ]
            )
            assert code == 0
            trees.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.iterdir())
                    if p.is_file()
                }
            )
        assert trees[0].keys() == trees[1].keys()
        assert trees[0] == trees[1]
        manifest = json.loads(trees[0]["run_manifest.json"])
        assert manifest["seed"] == 20180101
