import numpy as np
import pytest

from bimonetary import econometrics as econ
from bimonetary.colimit import (
    ColimitConfig,
    build_indicator,
    dynamic_weights,
    pca_aggregate,
    pca_fit,
    validate_and_forecast,
)
from bimonetary.errors import AllZeroWeights, ConstantColumn, InsufficientRows
from bimonetary.panel import Panel, Series, rolling_corr, rolling_mean
from tests import reference
from tests.conftest import SEED, daily_dates, make_canonical_panel


def fresh_rng():
    return np.random.default_rng(SEED)


def _fit(data, n: int, standardize: bool):
    """:func:`pca_fit` with the columns named a, b, c, ..."""
    return pca_fit(data, n, standardize, tuple("abcdefgh"[: data.shape[1]]))


class TestPcaFit:
    def test_rank_one_data(self):
        rng = fresh_rng()
        factor = rng.standard_normal(300)
        data = np.outer(factor, [1.0, -2.0, 0.5])
        model = _fit(data, 3, standardize=False)
        assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)

    def test_two_uncorrelated_standardized_columns(self):
        data = fresh_rng().standard_normal((20000, 2))
        model = _fit(data, 2, standardize=True)
        assert model.explained_variance_ratio[0] == pytest.approx(0.5, abs=0.05)
        assert model.explained_variance_ratio[1] == pytest.approx(0.5, abs=0.05)

    def test_full_component_ratios_sum_to_one(self):
        data = fresh_rng().standard_normal((100, 4))
        model = _fit(data, 4, standardize=True)
        assert model.explained_variance_ratio.sum() == pytest.approx(1.0, abs=1e-9)

    def test_ratios_non_increasing_in_unit_interval(self):
        data = fresh_rng().standard_normal((200, 5)) * [1, 2, 3, 4, 5]
        model = _fit(data, 5, standardize=False)
        r = model.explained_variance_ratio
        assert np.all(np.diff(r) <= 1e-12)
        assert np.all((r >= 0) & (r <= 1))

    def test_loadings_orthonormal(self):
        data = fresh_rng().standard_normal((150, 6))
        model = _fit(data, 4, standardize=True)
        gram = model.loadings.T @ model.loadings
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-9)

    def test_full_reconstruction(self):
        rng = fresh_rng()
        data = rng.standard_normal((80, 5)) @ rng.standard_normal((5, 5))
        model = _fit(data, 5, standardize=True)
        scaled = (data - model.column_means) / model.column_scales
        reconstructed = (scaled @ model.loadings) @ model.loadings.T
        np.testing.assert_allclose(reconstructed, scaled, atol=1e-8)

    def test_constant_column_with_standardize(self):
        data = np.column_stack(
            [fresh_rng().standard_normal(50), np.full(50, 2.0)]
        )
        with pytest.raises(ConstantColumn):
            _fit(data, 2, standardize=True)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientRows):
            _fit(np.zeros((3, 5)), 2, standardize=True)

    def test_matches_reference_implementation(self):
        decomposition = pytest.importorskip("sklearn.decomposition")
        data = fresh_rng().standard_normal((200, 4)) * [1, 3, 0.5, 2]
        mine = _fit(data, 3, standardize=False)
        ref = decomposition.PCA(n_components=3).fit(data)
        np.testing.assert_allclose(
            mine.explained_variance_ratio,
            ref.explained_variance_ratio_,
            atol=1e-10,
        )
        np.testing.assert_allclose(
            np.abs(mine.loadings), np.abs(ref.components_.T), atol=1e-8
        )

    def test_matches_scipy_oracle(self):
        # the data of test_matches_reference_implementation
        data = fresh_rng().standard_normal((200, 4)) * [1, 3, 0.5, 2]
        mine = _fit(data, 3, standardize=False)
        ratios, axes = reference.pca(data, 3)
        np.testing.assert_allclose(mine.explained_variance_ratio, ratios, atol=1e-10)
        np.testing.assert_allclose(np.abs(mine.loadings), np.abs(axes), atol=1e-8)


class TestPcaAggregate:
    def test_rank_one_aggregate_tracks_factor(self):
        rng = fresh_rng()
        factor = rng.standard_normal(300)
        data = np.outer(factor, [1.0, -2.0, 0.5]) + 10.0
        model = _fit(data, 1, standardize=False)
        aggregate = pca_aggregate(model, data)
        corr = np.corrcoef(aggregate, factor)[0, 1]
        assert abs(corr) == pytest.approx(1.0, abs=1e-9)

    def test_centered_aggregate_has_zero_mean(self):
        data = fresh_rng().standard_normal((150, 4))
        model = _fit(data, 3, standardize=True)
        aggregate = pca_aggregate(model, data)
        assert aggregate.mean() == pytest.approx(0.0, abs=1e-9)

    def test_single_component_is_scaled_score(self):
        data = fresh_rng().standard_normal((100, 3))
        model = _fit(data, 1, standardize=True)
        scaled = (data - model.column_means) / model.column_scales
        score = scaled @ model.loadings[:, 0]
        np.testing.assert_allclose(
            pca_aggregate(model, data),
            model.explained_variance_ratio[0] * score,
            atol=1e-12,
        )

    def test_permutation_invariance_of_ratio_set_and_abs_aggregate(self):
        rng = fresh_rng()
        data = rng.standard_normal((200, 4)) @ rng.standard_normal((4, 4))
        model_a = _fit(data, 4, standardize=True)
        permutation = [2, 0, 3, 1]
        model_b = _fit(data[:, permutation], 4, standardize=True)
        np.testing.assert_allclose(
            model_a.explained_variance_ratio,
            model_b.explained_variance_ratio,
            atol=1e-9,
        )
        agg_a = pca_aggregate(model_a, data)
        agg_b = pca_aggregate(model_b, data[:, permutation])
        np.testing.assert_allclose(np.abs(agg_a), np.abs(agg_b), atol=1e-9)


class TestDynamicWeights:
    def test_copy_outweighs_noise(self):
        rng = fresh_rng()
        reference = rng.standard_normal(200)
        panel = Panel(
            daily_dates(200),
            {
                "ref": Series(reference),
                "copy": Series(reference),
                "noise": Series(rng.standard_normal(200)),
            },
        )
        weights = dynamic_weights(panel, ["copy", "noise"], "ref", 50, 2)
        assert weights["copy"] > weights["noise"]
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_variable_gets_unit_weight(self):
        rng = fresh_rng()
        panel = Panel(
            daily_dates(50),
            {
                "ref": Series(rng.standard_normal(50)),
                "v": Series(rng.standard_normal(50)),
            },
        )
        weights = dynamic_weights(panel, ["v"], "ref", 20, 2)
        assert weights == {"v": 1.0}

    def test_sign_flip_symmetry(self):
        rng = fresh_rng()
        v = rng.standard_normal(120)
        panel = Panel(
            daily_dates(120),
            {
                "ref": Series(v),
                "plus": Series(v),
                "minus": Series(-v),
            },
        )
        weights = dynamic_weights(panel, ["plus", "minus"], "ref", 40, 2)
        assert weights["plus"] == pytest.approx(0.5, abs=1e-12)
        assert weights["minus"] == pytest.approx(0.5, abs=1e-12)

    def test_all_zero_weights(self):
        panel = Panel(
            daily_dates(30),
            {
                "ref": Series(np.ones(30)),  # constant: correlation undefined
                "v": Series(fresh_rng().standard_normal(30)),
            },
        )
        with pytest.raises(AllZeroWeights):
            dynamic_weights(panel, ["v"], "ref", 10, 2)


def _stressed_canonical_panel() -> Panel:
    """``make_canonical_panel(2500)`` with its drifting Historical Ars Usd
    scaled by 1e8, so that it reaches 2e10 as over 20,000 rows; a constant
    stretch longer than the default window cut into M2; and NaN gaps, one of
    them 200 rows long, cut into Pi Exp and E."""
    panel = make_canonical_panel(2500)
    rng = fresh_rng()
    m2, pi, e = (panel.column(name).to_array() for name in ("M2", "Pi Exp", "E"))
    m2[700:1000] = m2[700]
    pi[rng.random(2500) < 0.1] = np.nan
    pi[1500:1700] = np.nan
    e[rng.random(2500) < 0.05] = np.nan
    changed = {"M2": m2, "Pi Exp": pi, "E": e}
    changed["Historical Ars Usd"] = panel.column("Historical Ars Usd").array * 1e8
    return panel.with_columns({name: Series(v) for name, v in changed.items()})


class TestWindowsOnCanonicalPanel:
    """``rolling_corr``, ``rolling_mean`` and ``dynamic_weights`` against the
    window-at-a-time oracle. The worst measured differences are 1.1e-13 in a
    correlation and 1.6e-14 relative in a mean (both M2, with a window longer
    than the panel), and 2e-16 in a weight."""

    NAMES = ("Historical Ars Usd", "M2", "Pi Exp", "Gdp_usa")
    CORR_ATOL = 5e-13
    MEAN_RTOL = 1e-13
    WEIGHT_ATOL = 2e-15

    @pytest.fixture(scope="class")
    def cases(self):
        panel = _stressed_canonical_panel()
        ref = panel.column("E").array
        return panel, {
            (window, min_periods): {
                name: reference.trailing_windows(
                    panel.column(name).array, ref, window, min_periods
                )
                for name in self.NAMES
            }
            for window, min_periods in ((180, 1), (1, 1), (5000, 1), (30, 20))
        }

    def test_rolling_corr_and_mean_match_the_oracle(self, cases):
        panel, oracle = cases
        for (window, min_periods), expected in oracle.items():
            for name, (means, corrs) in expected.items():
                x = panel.column(name)
                corr = rolling_corr(x, panel.column("E"), window, min_periods).array
                mean = rolling_mean(x, window, min_periods).array
                np.testing.assert_array_equal(np.isnan(corr), np.isnan(corrs))
                np.testing.assert_array_equal(np.isnan(mean), np.isnan(means))
                np.testing.assert_allclose(corr, corrs, rtol=0, atol=self.CORR_ATOL)
                np.testing.assert_allclose(mean, means, rtol=self.MEAN_RTOL)

    def test_dynamic_weights_match_the_oracle(self, cases):
        panel, oracle = cases
        for (window, min_periods), expected in oracle.items():
            raw = {}
            for name, (_, corrs) in expected.items():
                present = corrs[~np.isnan(corrs)]
                raw[name] = abs(present.mean()) if present.size else 0.0
            total = sum(raw.values())
            if total == 0.0:  # window 1: no window holds two pairs
                with pytest.raises(AllZeroWeights):
                    dynamic_weights(panel, self.NAMES, "E", window, min_periods)
                continue
            weights = dynamic_weights(panel, self.NAMES, "E", window, min_periods)
            for name in self.NAMES:
                assert weights[name] == pytest.approx(
                    raw[name] / total, rel=0, abs=self.WEIGHT_ATOL
                )


class TestBuildIndicator:
    def test_scaled_attains_reference_extremes(self, canonical_panel):
        indicator = build_indicator(canonical_panel)
        reference = canonical_panel.column("E")
        scaled = [v for v in indicator.scaled.values if v is not None]
        assert max(scaled) == max(v for v in reference.values)
        assert min(scaled) == min(v for v in reference.values)

    def test_weights_normalized(self, canonical_panel):
        indicator = build_indicator(canonical_panel)
        assert sum(indicator.dynamic_weights.values()) == pytest.approx(
            1.0, abs=1e-12
        )
        assert all(w >= 0 for w in indicator.dynamic_weights.values())

    def test_smoothing_constant_series_is_identity(self):
        rng = fresh_rng()
        n = 60
        base = {
            "a": rng.standard_normal(n),
            "b": rng.standard_normal(n),
            "E": np.full(n, 3.0),
        }
        # constant reference: scaled output would be constant too; check the
        # smoothing contract directly on a constant input series instead
        from bimonetary.panel import rolling_mean

        smoothed = rolling_mean(Series(np.full(30, 7.0)), 30, 1)
        assert smoothed.values == (7.0,) * 30

    def test_one_hot_weights_reproduce_that_column(self, canonical_panel):
        indicator = build_indicator(canonical_panel)
        # re-weight manually with a one-hot map and compare
        matrix = canonical_panel.to_matrix(ColimitConfig().variables)
        one_hot = {name: 0.0 for name in ColimitConfig().variables}
        one_hot["M2"] = 1.0
        weighted = matrix @ np.array(
            [one_hot[name] for name in ColimitConfig().variables]
        )
        np.testing.assert_allclose(
            weighted, canonical_panel.column("M2").to_array(), atol=1e-12
        )

    def test_series_lengths_match_panel(self, canonical_panel):
        indicator = build_indicator(canonical_panel)
        for series in (
            indicator.pca_aggregate,
            indicator.weighted_aggregate,
            indicator.scaled,
            indicator.smoothed,
        ):
            assert len(series) == canonical_panel.n_rows


class TestValidateAndForecast:
    def test_lead_lag_indicator_granger_causes_reference(self, canonical_panel):
        indicator = build_indicator(canonical_panel)
        e = canonical_panel.column("E").to_array()
        rng = fresh_rng()
        lead = np.empty_like(e)
        lead[:-1] = e[1:]
        lead[-1] = e[-1]
        lead = lead + 0.01 * rng.standard_normal(len(e))
        constructed = indicator.__class__(
            indicator.pca_aggregate,
            indicator.dynamic_weights,
            indicator.weighted_aggregate,
            indicator.scaled,
            Series(lead),
        )
        (_, p_value), forecast = validate_and_forecast(canonical_panel, constructed)
        assert p_value[0] < 0.01
        assert forecast.shape == (10, 3)

    def test_noise_indicator_is_not_causal(self, canonical_panel):
        rng = fresh_rng()
        rng.standard_normal(len(canonical_panel.dates))  # skip lead-lag draws
        noise = rng.standard_normal(canonical_panel.n_rows)
        indicator = build_indicator(canonical_panel)
        constructed = indicator.__class__(
            indicator.pca_aggregate,
            indicator.dynamic_weights,
            indicator.weighted_aggregate,
            indicator.scaled,
            Series(noise),
        )
        (_, p_value), _ = validate_and_forecast(canonical_panel, constructed)
        assert p_value[0] > 0.05

    def test_forecast_shape_contract(self, canonical_panel):
        indicator = build_indicator(canonical_panel)
        _, forecast = validate_and_forecast(canonical_panel, indicator)
        assert forecast.shape == (10, 3)

    def test_the_risk_spread_cannot_be_the_reference(self):
        with pytest.raises(ValueError, match="reference must not be the risk spread"):
            ColimitConfig(reference="Embi+ARG")

    def test_the_configured_reference_is_tested_and_forecast(self, canonical_panel):
        indicator = build_indicator(canonical_panel, ColimitConfig(reference="Pi Exp"))
        panel = canonical_panel
        causality, forecast = validate_and_forecast(panel, indicator, "Pi Exp")
        smoothed = indicator.smoothed.array
        matrix = np.column_stack(
            [smoothed, *(panel.column(n).array for n in ("Pi Exp", "Embi+ARG"))]
        )
        for got, want in zip(causality, econ.granger(smoothed, matrix[:, 1], 5)):
            np.testing.assert_array_equal(got, want)
        model = econ.fit_var(matrix, 5, "aic")
        expected = econ.forecast(model, matrix[-max(model.p, 1) :], 10)
        np.testing.assert_array_equal(forecast[:, 1], expected[:, 1])
        _, against_e = validate_and_forecast(panel, indicator)
        assert not np.allclose(forecast[:, 1], against_e[:, 1])
