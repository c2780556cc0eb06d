import json
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimonetary import econometrics as econ
from bimonetary._regression import BLOCK_ROWS, factor
from bimonetary.errors import InputError, ShapeMismatch, UnknownVariable
from bimonetary.panel import Panel, Series
from bimonetary.scenarios import (
    Shock,
    apply_scenario,
    dual_model_compare,
    load_scenarios,
    run_sensitivity,
)
from tests.conftest import SEED, daily_dates, make_canonical_panel
from tests.paper import (
    CategorySpec,
    adjunction_roundtrip_check,
    forgetful_project,
    learning_enrich,
)


def toy_panel(n=8, k=3, seed=SEED):
    rng = np.random.default_rng(seed)
    return Panel(
        daily_dates(n),
        {f"v{i}": Series(rng.uniform(-5, 5, n)) for i in range(k)},
    )


class TestForgetfulProject:
    def test_full_projection_is_identity(self):
        panel = toy_panel()
        spec = CategorySpec("all", panel.variables)
        assert forgetful_project(panel, spec) == panel

    def test_two_column_projection(self, canonical_panel):
        spec = CategorySpec("demand", ("M2", "Pi Exp"))
        out = forgetful_project(canonical_panel, spec)
        assert out.variables == ("M2", "Pi Exp")
        assert out.n_rows == canonical_panel.n_rows

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            forgetful_project(toy_panel(), CategorySpec("bad", ("absent",)))

    def test_idempotent(self):
        panel = toy_panel()
        spec = CategorySpec("sub", ("v0", "v2"))
        once = forgetful_project(panel, spec)
        assert forgetful_project(once, spec) == once


class TestLearningEnrich:
    def test_degenerate_enrichment_equals_projection(self):
        panel = toy_panel()
        base = CategorySpec("base", ("v0", "v1"))
        out = learning_enrich(panel, base, None, lags=0)
        assert out == forgetful_project(panel, base)

    def test_shape_arithmetic(self):
        panel = toy_panel(n=10, k=3)
        base = CategorySpec("base", ("v0",))
        extra = CategorySpec("extra", ("v1", "v2"))
        out = learning_enrich(panel, base, extra, lags=3)
        assert out.n_rows == 7
        assert len(out.variables) == 3 * 4

    def test_hand_alignment(self):
        panel = Panel(daily_dates(4), {"v": Series([1, 2, 3, 4])})
        out = learning_enrich(panel, CategorySpec("b", ("v",)), None, lags=1)
        assert out.dates == panel.dates[1:]
        assert out.column("v").values == (2.0, 3.0, 4.0)
        assert out.column("v_lag1").values == (1.0, 2.0, 3.0)


class TestAdjunctionRoundTrip:
    def test_holds_on_any_panel(self, canonical_panel):
        base = CategorySpec("base", ("M2", "Pi Exp"))
        extra = CategorySpec("extra", ("Embi+ARG",))
        assert adjunction_roundtrip_check(canonical_panel, base, extra)

    def test_holds_after_shock_to_extra_variable(self, canonical_panel):
        base = CategorySpec("base", ("M2", "Pi Exp"))
        extra = CategorySpec("extra", ("Embi+ARG",))
        shocked = apply_scenario(
            canonical_panel, [Shock("Embi+ARG", "additive", 100.0)]
        )
        assert adjunction_roundtrip_check(shocked, base, extra)
        # and the base projection is untouched by the extra-only shock
        assert forgetful_project(shocked, base) == forgetful_project(
            canonical_panel, base
        )

    def test_shock_to_base_variable_changes_projection(self, canonical_panel):
        base = CategorySpec("base", ("M2", "Pi Exp"))
        shocked = apply_scenario(canonical_panel, [Shock("M2", "additive", 1.0)])
        assert forgetful_project(shocked, base) != forgetful_project(
            canonical_panel, base
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_randomized_panels(self, seed):
        panel = toy_panel(n=6, k=4, seed=seed)
        base = CategorySpec("base", ("v0", "v3"))
        extra = CategorySpec("extra", ("v1",))
        assert adjunction_roundtrip_check(panel, base, extra)


class TestApplyScenario:
    def test_multiplicative(self):
        panel = Panel(daily_dates(2), {"x": Series([2, 4])})
        out = apply_scenario(panel, [Shock("x", "multiplicative", 1.5)])
        assert out.column("x").values == (3.0, 6.0)

    def test_additive_on_first_long_interest_value(self):
        # 40.31 + 5.00, the combined-scenario arithmetic on the first row
        panel = Panel(daily_dates(1), {"Long Interest": Series([40.31])})
        out = apply_scenario(panel, [Shock("Long Interest", "additive", 5.0)])
        assert out.column("Long Interest").values == (45.31,)

    def test_identity_shocks(self):
        panel = toy_panel()
        out = apply_scenario(
            panel,
            [Shock("v0", "multiplicative", 1.0), Shock("v1", "additive", 0.0)],
        )
        assert out == panel

    def test_window_limits_application(self):
        panel = Panel(daily_dates(3), {"x": Series([1, 1, 1])})
        shock = Shock(
            "x", "additive", 1.0, (date(2018, 1, 2), date(2018, 1, 2))
        )
        out = apply_scenario(panel, [shock])
        assert out.column("x").values == (1.0, 2.0, 1.0)

    def test_locality(self, canonical_panel):
        out = apply_scenario(canonical_panel, [Shock("M2", "multiplicative", 1.5)])
        for name in canonical_panel.variables:
            if name == "M2":
                assert out.column(name) != canonical_panel.column(name)
            else:
                assert out.column(name) == canonical_panel.column(name)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            apply_scenario(toy_panel(), [Shock("absent", "additive", 1.0)])

    def test_invalid_multiplicative_magnitude(self):
        with pytest.raises(ValueError):
            Shock("x", "multiplicative", 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=-100, max_value=100),
    )
    def test_inverse_shocks_restore_panel(self, m, d):
        panel = toy_panel()
        out = apply_scenario(
            panel,
            [
                Shock("v0", "multiplicative", m),
                Shock("v0", "multiplicative", 1.0 / m),
                Shock("v1", "additive", d),
                Shock("v1", "additive", -d),
            ],
        )
        for name in panel.variables:
            np.testing.assert_allclose(
                out.column(name).to_array(),
                panel.column(name).to_array(),
                rtol=1e-12,
                atol=1e-9,
            )


MODEL_VARS = (
    "Ipc Argentina", "M2", "Long Interest", "Short Interest", "Embi+ARG",
    "Historical Ars Usd",
)


class TestLeafReuse:
    """A shocked design keeps the baseline's leaves for the blocks that read
    no shocked row, and its R is the same bits as a fresh factorization."""

    P = 2

    @pytest.fixture(scope="class")
    def walk(self):
        rng = np.random.default_rng(SEED)
        return np.cumsum(rng.standard_normal((7000, 3)), axis=0)

    @pytest.mark.parametrize(
        "changed, rebuilt",
        [
            # design row i reads data rows i..i+P; block b holds design rows
            # b * BLOCK_ROWS onwards
            ([BLOCK_ROWS + 1], [0, 1]),
            ([BLOCK_ROWS + 2], [1]),
            (list(range(3000, 3100)), [1]),
            ([6999], [3]),
            ([], []),
        ],
        ids=["straddles-a-boundary", "after-a-boundary", "window", "last-row", "none"],
    )
    def test_reused_leaves_equal_a_fresh_factorization(self, walk, changed, rebuilt):
        base = econ.fit_var_order(walk, self.P)
        shocked = walk.copy()
        shocked[changed, 1] *= 1.2
        reused = econ.fit_var_order(shocked, self.P, base=base).leaves
        fresh = econ.fit_var_order(shocked, self.P).leaves
        assert len(base.leaves) == len(fresh) == 4
        kept = [new is old for new, old in zip(reused, base.leaves)]
        assert [b for b, same in enumerate(kept) if not same] == rebuilt
        for new, scratch in zip(reused, fresh, strict=True):
            assert np.array_equal(new, scratch)
        k = 1 + 3 * self.P
        for got, want in zip(factor(reused, k), factor(fresh, k), strict=True):
            assert np.array_equal(got, want)

    def test_base_of_another_shape_is_rejected(self, walk):
        with pytest.raises(ShapeMismatch):
            econ.fit_var_order(walk[1:], self.P, base=econ.fit_var_order(walk, self.P))

    def test_base_of_another_order_is_rejected(self, walk):
        with pytest.raises(ShapeMismatch):
            econ.fit_var_order(walk, self.P, base=econ.fit_var_order(walk, self.P + 1))

    def test_base_from_fit_var_is_rejected(self, walk):
        # the same order and data, but fit_var keeps no leaves
        base = econ.fit_var(walk, self.P)
        with pytest.raises(ShapeMismatch):
            econ.fit_var_order(walk, base.p, base=base)

    def test_shocked_fit_is_the_fresh_fit(self):
        # 7000 rows: the VAR(3) design spans four blocks
        panel = make_canonical_panel(7000)
        shock = Shock("M2", "multiplicative", 1.3, (date(2024, 1, 1), date(2024, 3, 31)))
        (out,) = run_sensitivity(panel, "Ipc Argentina", [("m2", [shock])], MODEL_VARS, 3)
        matrix = apply_scenario(panel, [shock]).to_matrix(MODEL_VARS)
        model = econ.fit_var_order(matrix, 3, MODEL_VARS)
        fitted = matrix[3:, 0] - model.residuals[:, 0]
        assert np.abs(out.difference.array).max() > 0.0
        assert np.array_equal(out.shocked.to_array(), fitted)


class TestRunSensitivity:
    def test_empty_shock_list_gives_zero_difference(self, canonical_panel):
        out = run_sensitivity(
            canonical_panel, "Ipc Argentina", [("baseline", [])], MODEL_VARS, 4
        )
        assert len(out) == 1
        assert np.abs(out[0].difference.array).max() == 0.0

    def test_three_scenarios_shapes(self, canonical_panel):
        specs = [
            ("m2_up", [Shock("M2", "multiplicative", 1.5)]),
            ("rate_up", [Shock("Long Interest", "additive", 5.0)]),
            (
                "combined",
                [
                    Shock("M2", "multiplicative", 1.5),
                    Shock("Long Interest", "additive", 5.0),
                ],
            ),
        ]
        out = run_sensitivity(
            canonical_panel, "Ipc Argentina", specs, MODEL_VARS, 4
        )
        assert [c.name for c in out] == ["m2_up", "rate_up", "combined"]
        n = canonical_panel.n_rows - 4
        for comparison in out:
            assert len(comparison.baseline) == n
            assert len(comparison.shocked) == n
            assert len(comparison.difference) == n
            assert np.abs(comparison.difference.array).max() > 0.0

    def test_every_comparison_shares_one_baseline(self, canonical_panel):
        specs = [
            ("m2_up", [Shock("M2", "multiplicative", 1.5)]),
            ("rate_up", [Shock("Long Interest", "additive", 5.0)]),
            ("noop", []),
        ]
        out = run_sensitivity(canonical_panel, "Ipc Argentina", specs, MODEL_VARS, 2)
        for comparison in out:
            assert comparison.baseline is out[0].baseline

    def test_difference_is_pointwise(self, canonical_panel):
        out = run_sensitivity(
            canonical_panel,
            "Ipc Argentina",
            [("m2_up", [Shock("M2", "multiplicative", 1.2)])],
            MODEL_VARS,
            3,
        )[0]
        np.testing.assert_allclose(
            out.difference.to_array(),
            out.shocked.to_array() - out.baseline.to_array(),
            atol=1e-12,
        )

    def test_shock_outside_model_variables_is_irrelevant(self, canonical_panel):
        out = run_sensitivity(
            canonical_panel,
            "Ipc Argentina",
            [("usd", [Shock("M2 Usd", "multiplicative", 2.0)])],
            MODEL_VARS,
            3,
        )[0]
        assert np.abs(out.difference.array).max() == 0.0

    def test_date_window_restricts_sample(self, canonical_panel):
        window = (date(2018, 3, 1), date(2018, 6, 1))
        out = run_sensitivity(
            canonical_panel,
            "Ipc Argentina",
            [("noop", [])],
            MODEL_VARS,
            2,
            window,
        )[0]
        expected_rows = sum(
            1 for d in canonical_panel.dates if window[0] <= d <= window[1]
        )
        assert len(out.baseline) == expected_rows - 2


class TestDualModelCompare:
    DOMESTIC = ("Ipc Argentina", "M2", "Historical Ars Usd")
    EXTRA = ("Short Term Usd Rate", "Long Term Usd Rate")

    def test_identical_variable_sets_give_identical_forecasts(self, canonical_panel):
        shock = Shock("M2", "multiplicative", 1.2)
        domestic, enriched = dual_model_compare(
            canonical_panel,
            self.DOMESTIC,
            ("M2",),  # subset: enriched == domestic
            "Ipc Argentina",
            shock,
            steps=6,
        )
        np.testing.assert_allclose(
            domestic.to_array(), enriched.to_array(), rtol=1e-12
        )

    def test_enriched_only_shock_leaves_domestic_path_unchanged(
        self, canonical_panel
    ):
        unshocked, _ = dual_model_compare(
            canonical_panel,
            self.DOMESTIC,
            self.EXTRA,
            "Ipc Argentina",
            Shock("Short Term Usd Rate", "multiplicative", 1.0),
            steps=5,
        )
        shocked, _ = dual_model_compare(
            canonical_panel,
            self.DOMESTIC,
            self.EXTRA,
            "Ipc Argentina",
            Shock("Short Term Usd Rate", "multiplicative", 1.5),
            steps=5,
        )
        np.testing.assert_allclose(
            unshocked.to_array(), shocked.to_array(), rtol=1e-12
        )

    def test_zero_steps(self, canonical_panel):
        a, b = dual_model_compare(
            canonical_panel,
            self.DOMESTIC,
            self.EXTRA,
            "Ipc Argentina",
            Shock("M2", "multiplicative", 1.1),
            steps=0,
        )
        assert len(a) == 0 and len(b) == 0


class TestScenarioFile:
    def test_load(self, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "name": "m2 boost",
                        "shocks": [
                            {
                                "variable": "M2",
                                "kind": "multiplicative",
                                "magnitude": 1.5,
                            },
                            {
                                "variable": "Long Interest",
                                "kind": "additive",
                                "magnitude": 5.0,
                                "window": ["2023-01-01", "2023-12-31"],
                            },
                        ],
                    }
                ]
            ),
            encoding="utf-8",
        )
        specs = load_scenarios(path)
        assert len(specs) == 1
        assert specs[0].name == "m2 boost"
        assert specs[0].shocks[0].magnitude == 1.5
        assert specs[0].shocks[1].window == (date(2023, 1, 1), date(2023, 12, 31))

    @pytest.mark.parametrize(
        "stamp",
        ["20230101", "2023-W01-1", "2023-01-01T23:59", "2023-01-01 00:00:00.5"],
    )
    def test_window_date_other_than_yyyy_mm_dd_is_an_input_error(
        self, tmp_path, stamp
    ):
        shock = {"variable": "M2", "kind": "additive", "magnitude": 1.0}
        shock["window"] = [stamp, None]
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps([{"name": "s", "shocks": [shock]}]), "utf-8")
        with pytest.raises(InputError) as info:
            load_scenarios(path)
        assert "scenarios[0].shocks[0].window[0]" in str(info.value)
