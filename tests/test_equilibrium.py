import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimonetary.equilibrium import (
    REQUIRED_COLUMNS,
    MAX_ITERATIONS,
    EquilibriumTargets,
    analytic_equilibrium,
    gap_report,
    nelder_mead_1d,
    penalty,
    solve_panel,
)
from bimonetary.errors import EmptyResult, NonFiniteObjective
from bimonetary.panel import Panel, Series
from tests.conftest import SEED, daily_dates, make_canonical_panel

target_value = st.floats(min_value=-1e4, max_value=1e4)


def row_targets(panel, i):
    return EquilibriumTargets.from_values(
        *(panel.column(name)[i] for name in REQUIRED_COLUMNS)
    )


class TestPenalty:
    def test_perfect_agreement(self):
        t = EquilibriumTargets(7.0, 7.0, 7.0)
        assert penalty(7.0, t) == 0.0

    def test_unit_distance(self):
        assert penalty(1.0, EquilibriumTargets(0, 0, 0)) == 3.0

    def test_hand_value(self):
        assert penalty(2.0, EquilibriumTargets(1, 2, 3)) == 2.0

    @given(target_value, target_value, target_value)
    def test_penalty_at_mean_equals_dispersion(self, a, b, c):
        t = EquilibriumTargets(a, b, c)
        mean = analytic_equilibrium(t)
        dispersion = sum((v - mean) ** 2 for v in (a, b, c))
        assert penalty(mean, t) == pytest.approx(dispersion, rel=1e-9, abs=1e-9)


class TestAnalyticEquilibrium:
    def test_mean(self):
        assert analytic_equilibrium(EquilibriumTargets(1, 2, 3)) == 2.0

    def test_constant(self):
        assert analytic_equilibrium(EquilibriumTargets(4.2, 4.2, 4.2)) == 4.2

    def test_first_data_row(self):
        # rounded-table inputs, so a 1% band around the derived level
        t = EquilibriumTargets.from_values(2.07e13, 5.25e11, 361.0, 19.087, 2.58)
        assert analytic_equilibrium(t) == pytest.approx(2310.8, rel=0.01)

    @given(target_value, target_value, target_value)
    def test_global_minimum_property(self, a, b, c):
        t = EquilibriumTargets(a, b, c)
        best = penalty(analytic_equilibrium(t), t)
        rng = np.random.default_rng(SEED)
        for probe in rng.uniform(-2e4, 2e4, size=50):
            assert best <= penalty(float(probe), t) + 1e-9


    def test_thousand_probe_global_minimum(self):
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            t = EquilibriumTargets(*rng.uniform(-1e3, 1e3, size=3))
            best = penalty(analytic_equilibrium(t), t)
            probes = rng.uniform(-2e3, 2e3, size=1000)
            assert all(best <= penalty(float(e), t) + 1e-9 for e in probes)


class TestNelderMead:
    def test_shifted_quadratic(self):
        result = nelder_mead_1d(lambda x: (x - 3) ** 2, 0.0)
        assert result.x_min == pytest.approx(3.0, abs=1e-6)

    def test_known_offset(self):
        result = nelder_mead_1d(lambda x: x * x + 1.0, 5.0)
        assert result.f_min == pytest.approx(1.0, abs=1e-10)

    def test_nonsmooth_objective(self):
        result = nelder_mead_1d(lambda x: abs(x - 2.0), 10.0)
        assert result.x_min == pytest.approx(2.0, abs=1e-5)

    def test_max_iterations_is_flagged_not_raised(self):
        # unbounded below: every step expands, and x stays finite at the cap
        result = nelder_mead_1d(lambda x: -x, 0.0)
        assert result.iterations == MAX_ITERATIONS
        assert not result.converged
        assert math.isfinite(result.x_min) and result.x_min > 1e100

    def test_non_finite_objective(self):
        with pytest.raises(NonFiniteObjective):
            nelder_mead_1d(lambda x: math.inf, 0.0)

    def test_scale_equivariance(self):
        t = EquilibriumTargets(1.0, 2.0, 3.5)
        base = nelder_mead_1d(lambda e: penalty(e, t), 1.0)
        lam = 37.0
        scaled_t = EquilibriumTargets(lam * 1.0, lam * 2.0, lam * 3.5)
        scaled = nelder_mead_1d(lambda e: penalty(e, scaled_t), lam * 1.0)
        assert scaled.x_min == pytest.approx(lam * base.x_min, rel=1e-6)

    def test_converges_on_every_canonical_row(self):
        # penalties near 1e7 put an absolute f-spread of 1e-12 below one ulp
        panel = make_canonical_panel(2500)
        for i, observed in enumerate(panel.column("Historical Ars Usd")):
            t = row_targets(panel, i)
            result = nelder_mead_1d(lambda e: penalty(e, t), observed)
            mean = analytic_equilibrium(t)
            assert result.converged
            assert result.x_min == pytest.approx(
                mean, abs=1e-6 * max(1.0, abs(mean))
            )

    @settings(max_examples=40, deadline=None)
    @given(target_value, target_value, target_value, target_value)
    def test_matches_analytic_oracle(self, a, b, c, x0):
        t = EquilibriumTargets(a, b, c)
        result = nelder_mead_1d(lambda e: penalty(e, t), x0)
        mean = analytic_equilibrium(t)
        # when target dispersion dwarfs the mean, the objective is flat to
        # float resolution near the minimum: no sampler can localize beyond
        # sqrt(ulp(f_min)/curvature), so the bound widens with conditioning
        flat_width = math.sqrt(math.ulp(max(penalty(mean, t), 1.0)) / 3.0)
        tolerance = max(1e-6 * max(1.0, abs(mean)), 4.0 * flat_width)
        assert result.x_min == pytest.approx(mean, abs=tolerance)


class TestSolvePanel:
    def test_equals_oracle_on_every_row(self, canonical_panel):
        result = solve_panel(canonical_panel)
        assert len(result.dates) == canonical_panel.n_rows
        for i in range(len(result.dates)):
            mean = analytic_equilibrium(row_targets(canonical_panel, i))
            assert result.e_star[i] == pytest.approx(
                mean, abs=1e-6 * max(1.0, abs(mean))
            )
            assert result.gap[i] == result.e_star[i] - result.observed[i]
            assert result.penalty_at_min[i] >= 0.0

    def test_is_the_analytic_equilibrium_bitwise(self):
        panel = make_canonical_panel(2500)
        result = solve_panel(panel)
        assert len(result.dates) == panel.n_rows
        for i in range(panel.n_rows):
            assert result.e_star[i] == analytic_equilibrium(row_targets(panel, i))

    @pytest.mark.parametrize(
        "column, value, error",
        [
            ("Gdp_argentina", 0.0, ValueError),
            ("Gdp_argentina", -5.0e11, ValueError),
            ("Gdp_argentina", 1e-300, ValueError),      # infinite GDP ratio
            ("Gdp_usa", 1e200, NonFiniteObjective),     # squares overflow
        ],
    )
    def test_bad_row_raises(self, column, value, error):
        panel = make_canonical_panel(5)
        values = list(panel.column(column).values)
        values[3] = value
        with pytest.raises(error):
            solve_panel(panel.with_columns({column: Series(values)}))

    def test_constructed_fixed_point_has_zero_gap(self):
        # all three targets equal the observed rate
        rate = 25.0
        panel = Panel(
            daily_dates(3),
            {
                "Gdp_usa": Series([rate * 5.0] * 3),
                "Gdp_argentina": Series([5.0] * 3),
                "Embi+ARG": Series([1.0] * 3),
                "Historical Ars Usd": Series([rate] * 3),
                "Long Term Usd Rate": Series([rate] * 3),
            },
        )
        result = solve_panel(panel)
        for i in range(3):
            assert result.gap[i] == pytest.approx(0.0, abs=1e-6)
            assert result.penalty_at_min[i] == pytest.approx(0.0, abs=1e-9)

    def test_one_row_panel(self):
        panel = make_canonical_panel(1)
        result = solve_panel(panel)
        assert len(result.dates) == 1

    def test_missing_rows_are_skipped_and_reported(self):
        panel = make_canonical_panel(5)
        values = list(panel.column("Embi+ARG").values)
        values[2] = None
        broken = panel.with_columns({"Embi+ARG": Series(values)})
        result = solve_panel(broken)
        assert len(result.dates) == 4
        assert result.skipped_dates == (panel.dates[2],)

    def test_embi_percent_flag_rescales_risk_target(self):
        panel = make_canonical_panel(3)
        raw = solve_panel(panel)
        rescaled = solve_panel(panel, embi_in_percent=True)
        for i in range(3):
            assert rescaled.e_star[i] != raw.e_star[i]


class TestGapReport:
    def _series(self, gaps):
        from bimonetary.equilibrium import EquilibriumSeries

        gap = np.array(gaps, dtype=np.float64)
        return EquilibriumSeries(
            daily_dates(len(gap)),
            10.0 + gap,
            np.zeros(len(gap)),
            np.full(len(gap), 10.0),
            gap,
            (),
        )

    def test_zero_gaps(self):
        report = gap_report(self._series([0.0, 0.0, 0.0]))
        assert report.mean_gap == 0.0
        assert report.max_abs_gap == 0.0
        assert report.sign_runs == 0

    def test_alternating_signs(self):
        report = gap_report(self._series([1.0, -1.0]))
        assert report.mean_gap == 0.0
        assert report.max_abs_gap == 1.0
        assert report.sign_runs == 2

    def test_single_row(self):
        report = gap_report(self._series([-2.5]))
        assert report.mean_gap == -2.5
        assert report.max_abs_gap == 2.5
        assert report.sign_runs == 1

    def test_runs_ignore_zeros(self):
        report = gap_report(self._series([1.0, 0.0, 2.0, -1.0]))
        assert report.sign_runs == 2

    def test_empty_result(self):
        with pytest.raises(EmptyResult):
            gap_report(self._series([]))
