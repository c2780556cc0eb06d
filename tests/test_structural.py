import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bimonetary.errors import InsufficientRows, RankDeficient
from bimonetary.panel import CANONICAL_VARIABLES, Panel, Series
from bimonetary.structural import (
    StructuralCoefficients,
    calibrate,
    devaluation_expectation,
    simulate,
)
from tests.conftest import SEED, daily_dates
from tests.paper import (
    ExpectationDynamicsParams,
    ToyDemandParams,
    demand_ars,
    demand_usd,
    expectation_star,
    expectation_step,
    income,
    inflation_forecast,
    relative_demand,
    toy_demand_pesos,
    toy_demand_usd,
)

finite = st.floats(min_value=-1e3, max_value=1e3)


class TestDemands:
    def test_zero_inputs(self):
        c = StructuralCoefficients(alpha1=1, alpha2=1, alpha3=1)
        assert demand_ars(0, 0, 0, c) == 0.0

    def test_single_term(self):
        c = StructuralCoefficients(alpha1=2)
        assert demand_ars(1, 0, 0, c) == 2.0

    def test_hand_value(self):
        c = StructuralCoefficients(alpha1=1, alpha2=0.5, alpha3=2)
        assert demand_ars(10, 5, 3, c) == pytest.approx(6.5)

    def test_usd_hand_value(self):
        c = StructuralCoefficients(beta1=1, beta2=1, beta3=1)
        assert demand_usd(2, 3, 4, c) == pytest.approx(1.0)

    def test_usd_drops_expectations_when_beta3_zero(self):
        c = StructuralCoefficients(beta1=1, beta2=1, beta3=0)
        assert demand_usd(1, 1, 99.0, c) == demand_usd(1, 1, 0.0, c)

    @given(finite, finite, finite, st.floats(min_value=0.1, max_value=10))
    def test_linearity_without_intercept(self, y, i, pi, lam):
        c = StructuralCoefficients(alpha1=1.5, alpha2=-0.7, alpha3=2.2)
        scaled = demand_ars(lam * y, lam * i, lam * pi, c)
        assert scaled == pytest.approx(lam * demand_ars(y, i, pi, c), rel=1e-9, abs=1e-9)


class TestRelativeDemand:
    def test_plain_ratio(self):
        assert relative_demand(4, 2) == 2.0

    def test_equal_rates_exponential(self):
        assert relative_demand(4, 2, 0.3, 0.3, exponential=True) == pytest.approx(2.0)

    def test_unit_exponent(self):
        assert relative_demand(1, 1, 1, 0, exponential=True) == pytest.approx(
            math.e, rel=1e-6
        )

    def test_zero_denominator(self):
        from bimonetary.errors import DivisionByZero

        with pytest.raises(DivisionByZero):
            relative_demand(1, 0)


class TestDevaluationExpectation:
    def test_all_zero(self):
        assert devaluation_expectation(0, 0, 0, 0, 0) == 0.0

    def test_hand_value(self):
        assert devaluation_expectation(10, 2, 5, 1, 200) == pytest.approx(10.0)

    def test_first_data_row_anchor(self):
        # back-solved risk spread of 361 bp reproduces the printed value
        value = devaluation_expectation(1.658333, 1.9, 28.0, 1.41, 361.0)
        assert value == pytest.approx(22.738333, abs=1e-9)
        assert value == pytest.approx(22.73833, abs=5e-6)

    @given(finite, finite, finite, finite, finite, finite)
    def test_shift_in_argentine_inflation_passes_through(
        self, pi_arg, pi_usa, i_arg, i_usa, embi, d
    ):
        base = devaluation_expectation(pi_arg, pi_usa, i_arg, i_usa, embi)
        shifted = devaluation_expectation(pi_arg + d, pi_usa, i_arg, i_usa, embi)
        assert shifted - base == pytest.approx(d, abs=1e-9)


    @given(finite, finite, finite, finite, finite,
           st.floats(min_value=0.1, max_value=10))
    def test_homogeneous_when_spread_scales_too(
        self, pi_arg, pi_usa, i_arg, i_usa, embi, lam
    ):
        scaled = devaluation_expectation(
            lam * pi_arg, lam * pi_usa, lam * i_arg, lam * i_usa, lam * embi
        )
        base = devaluation_expectation(pi_arg, pi_usa, i_arg, i_usa, embi)
        assert scaled == pytest.approx(lam * base, rel=1e-9, abs=1e-9)


class TestForecastEquations:
    def test_inflation_projections(self):
        assert inflation_forecast(2, 3, StructuralCoefficients(gamma1=1)) == 2.0
        assert inflation_forecast(2, 3, StructuralCoefficients(gamma2=1)) == 3.0
        c = StructuralCoefficients(gamma1=0.5, gamma2=0.1)
        assert inflation_forecast(2, 3, c) == pytest.approx(1.3)

    def test_income_projections(self):
        assert income(7, 0, StructuralCoefficients(delta1=1)) == 7.0
        assert income(0, -5.441, StructuralCoefficients(delta2=1)) == -5.441
        assert income(1, 1, StructuralCoefficients(delta1=2, delta2=3)) == 5.0


class TestExpectationDynamics:
    def test_persistence_identity(self):
        p = ExpectationDynamicsParams(a=1)
        assert expectation_step(3.2, 9, 9, p) == 3.2

    def test_pure_noise(self):
        p = ExpectationDynamicsParams()
        assert expectation_step(1, 2, 3, p, noise=0.5) == 0.5

    def test_hand_value(self):
        p = ExpectationDynamicsParams(a=0.9, b=0.05, c=0.02)
        assert expectation_step(2, 1, 3, p) == pytest.approx(1.91)

    def test_star_defaults_to_addition(self):
        assert expectation_star(3, 4) == 7.0

    def test_star_with_correction(self):
        p = ExpectationDynamicsParams(eta=lambda pi, e: pi * e)
        assert expectation_star(2, 3, p) == 11.0

    def test_star_neutral_element(self):
        assert expectation_star(5.5, 0) == 5.5

    @given(finite, finite, finite)
    def test_star_commutative_associative(self, x, y, z):
        assert expectation_star(x, y) == pytest.approx(
            expectation_star(y, x), rel=1e-12, abs=1e-12
        )
        assert expectation_star(expectation_star(x, y), z) == pytest.approx(
            expectation_star(x, expectation_star(y, z)), rel=1e-9, abs=1e-9
        )


class TestToyCurves:
    def test_unit_denominator(self):
        assert toy_demand_pesos(100, 0, 0) == 100.0

    def test_printed_query_point(self):
        # direct evaluation of the defining expressions at the 60% point
        assert toy_demand_pesos(100, 0.45, 0.6) == pytest.approx(
            100 / (1.45 * math.exp(0.6)), rel=1e-12
        )
        assert toy_demand_pesos(100, 0.45, 0.6) == pytest.approx(37.849078, abs=1e-4)
        assert toy_demand_usd(0.6, 0.05) == pytest.approx(2.8 / 1.05, rel=1e-12)
        assert toy_demand_usd(0.6, 0.05) == pytest.approx(2.666667, abs=1e-6)

    def test_zero_income(self):
        assert toy_demand_pesos(0, 0.45, 0.6) == 0.0

    def test_usd_at_origin(self):
        assert toy_demand_usd(0, 0) == 1.0

    def test_usd_flat_when_b_zero(self):
        p = ToyDemandParams(B=0)
        assert toy_demand_usd(0.9, 0.05, p) == toy_demand_usd(0.0, 0.05, p)

    def test_pesos_strictly_decreasing_on_grid(self):
        rates = np.linspace(0.0, 1.0, 21)
        expectations = np.linspace(0.0, 1.0, 21)
        for pi in expectations:
            values = [toy_demand_pesos(100, i, pi) for i in rates]
            assert all(a > b for a, b in zip(values, values[1:]))
        for i in rates:
            values = [toy_demand_pesos(100, i, pi) for pi in expectations]
            assert all(a > b for a, b in zip(values, values[1:]))


TRUE = StructuralCoefficients(
    alpha1=0.8,
    alpha2=1.3,
    alpha3=0.6,
    beta1=0.4,
    beta2=-0.9,
    beta3=1.1,
    gamma1=0.7,
    gamma2=0.25,
    delta1=0.5,
    delta2=-1.4,
    ars_intercept=2.0,
    usd_intercept=-1.0,
    inflation_intercept=0.3,
    income_intercept=4.0,
)


def exact_panel(n_rows=60, c=TRUE, seed=SEED):
    """Panel satisfying all four equations simultaneously and exactly.

    Money and income are simultaneous; the 2x2 system is solved per row.
    """
    rng = np.random.default_rng(seed)
    lending = rng.uniform(-6, -2, n_rows)
    peso_rate = rng.uniform(20, 60, n_rows)
    pi_exp = rng.uniform(1, 4, n_rows)
    usd_rate = rng.uniform(1, 3, n_rows)
    usa_pi = rng.uniform(1.5, 2.5, n_rows)

    determinant = 1.0 - c.alpha1 * c.delta1
    m2 = (
        c.alpha1 * (c.delta2 * lending + c.income_intercept)
        + c.alpha2 * peso_rate
        - c.alpha3 * pi_exp
        + c.ars_intercept
    ) / determinant
    gdp = c.delta1 * m2 + c.delta2 * lending + c.income_intercept
    m2_usd = c.beta1 * gdp + c.beta2 * usd_rate - c.beta3 * usa_pi + c.usd_intercept
    ipc = c.gamma1 * pi_exp + c.gamma2 * m2 + c.inflation_intercept

    filler = {name: rng.uniform(1, 2, n_rows) for name in CANONICAL_VARIABLES}
    filler.update(
        {
            "M2": m2,
            "Gdp_argentina": gdp,
            "M2 Usd": m2_usd,
            "Ipc Argentina": ipc,
            "Long Interest": peso_rate,
            "Pi Exp": pi_exp,
            "Long Term Usd Rate": usd_rate,
            "Usa Pi Exp": usa_pi,
            "Argentina Net Lending Borrowing": lending,
        }
    )
    return Panel(
        daily_dates(n_rows),
        {name: Series(filler[name]) for name in CANONICAL_VARIABLES},
    )


def coefficients_close(a, b, rtol):
    for name in (
        "alpha1 alpha2 alpha3 beta1 beta2 beta3 gamma1 gamma2 delta1 delta2 "
        "ars_intercept usd_intercept inflation_intercept income_intercept"
    ).split():
        assert getattr(a, name) == pytest.approx(
            getattr(b, name), rel=rtol, abs=rtol
        ), name


class TestCalibrate:
    def test_exact_recovery(self):
        result = calibrate(exact_panel())
        coefficients_close(result.coefficients, TRUE, 1e-8)
        for r2 in result.r_squared.values():
            assert r2 == pytest.approx(1.0, abs=1e-10)

    def test_duplicated_regressor_is_rank_deficient(self):
        panel = exact_panel()
        clone = panel.with_columns({"Long Interest": panel.column("Pi Exp")})
        with pytest.raises(RankDeficient):
            calibrate(clone)

    def test_too_few_rows(self):
        panel = exact_panel(n_rows=3)
        with pytest.raises(InsufficientRows):
            calibrate(panel.restrict_dates(panel.dates[1], None))


class TestSimulate:
    def test_closed_loop_residuals_vanish(self):
        panel = exact_panel()
        fitted = calibrate(panel).coefficients
        out = simulate(panel, fitted)
        np.testing.assert_allclose(
            out.column("model_L_ars").to_array(),
            panel.column("M2").to_array(),
            rtol=1e-8,
        )
        np.testing.assert_allclose(
            out.column("model_Y").to_array(),
            panel.column("Gdp_argentina").to_array(),
            rtol=1e-8,
        )
        np.testing.assert_allclose(
            out.column("model_pi").to_array(),
            panel.column("Ipc Argentina").to_array(),
            rtol=1e-8,
        )

    def test_zero_coefficients_give_intercepts(self):
        panel = exact_panel(n_rows=10)
        c = StructuralCoefficients(
            ars_intercept=3.0, usd_intercept=1.0, inflation_intercept=-1.0
        )
        out = simulate(panel, c)
        assert set(out.column("model_L_ars").values) == {3.0}
        assert set(out.column("model_L_usd").values) == {1.0}
        assert set(out.column("model_pi").values) == {-1.0}

    def test_one_row_panel(self):
        panel = exact_panel(n_rows=1)
        out = simulate(panel, TRUE)
        assert out.n_rows == 1
        assert "model_relative_demand" in out.variables

    def test_model_e_is_the_parity_formula(self):
        panel = exact_panel(n_rows=5)
        out = simulate(panel, TRUE)
        for t in range(5):
            expected = devaluation_expectation(
                panel.column("Pi Exp")[t],
                panel.column("Usa Pi Exp")[t],
                panel.column("Short Interest")[t],
                panel.column("Short Term Usd Rate")[t],
                panel.column("Embi+ARG")[t],
            )
            assert out.column("model_E")[t] == pytest.approx(expected)

    def test_columns_are_the_paper_equations_bit_for_bit(self):
        rng = np.random.default_rng(SEED)
        n_rows = 12
        data = rng.uniform(-5, 5, (n_rows, len(CANONICAL_VARIABLES)))
        data[0] = 0.0
        # a row of -0.0 keeps the sign of zero only when the first term
        # starts the sum and the intercept ends it
        data[1] = -0.0
        data[2, ::2] = 0.0
        panel = Panel(
            daily_dates(n_rows),
            {name: Series(data[:, j]) for j, name in enumerate(CANONICAL_VARIABLES)},
        )
        c = replace(TRUE, alpha1=-0.0, ars_intercept=-0.0, inflation_intercept=-0.0)
        col = {name: panel.column(name).to_array() for name in panel.variables}
        l_ars = demand_ars(col["Gdp_argentina"], col["Long Interest"], col["Pi Exp"], c)
        l_usd = demand_usd(
            col["Gdp_argentina"], col["Long Term Usd Rate"], col["Usa Pi Exp"], c
        )
        expected = {
            "model_L_ars": l_ars,
            "model_L_usd": l_usd,
            "model_relative_demand": relative_demand(l_ars, l_usd),
            "model_E": devaluation_expectation(
                col["Pi Exp"], col["Usa Pi Exp"], col["Short Interest"],
                col["Short Term Usd Rate"], col["Embi+ARG"],
            ),
            "model_pi": inflation_forecast(col["Pi Exp"], col["M2"], c),
            "model_Y": income(col["M2"], col["Argentina Net Lending Borrowing"], c),
        }
        out = simulate(panel, c)
        assert out.variables == panel.variables + tuple(expected)
        for name, want in expected.items():
            got = out.column(name).to_array()
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


class TestValidation:
    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ValueError):
            StructuralCoefficients(alpha1=math.inf)

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError):
            ExpectationDynamicsParams(a=math.nan)
