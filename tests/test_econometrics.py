import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bimonetary import econometrics as econ
from bimonetary._dist import f_sf
from bimonetary.errors import (
    InsufficientObservations,
    NonFiniteFactor,
    NonPositiveDefiniteSigma,
    RankDeficient,
    SeriesTooShort,
    ShapeMismatch,
    SingularMomentMatrix,
)
from tests import reference
from tests.conftest import SEED, var_model
from tests.reference import granger_f


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lagged_matches_a_per_row_loop(draws):
    """Rows start..stop-1 (start >= p) of [1, exog_t, data_{t-1}, ...,
    data_{t-p} | data_t], column-major: lag j of column v in column
    1 + e + (j-1)K + v."""
    K, p = draws.draw(st.integers(1, 4)), draws.draw(st.integers(0, 4))
    T = draws.draw(st.integers(p, 10))
    start = draws.draw(st.integers(p, T))
    stop = draws.draw(st.integers(start, T))
    rng = np.random.default_rng(draws.draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal(T if K == 1 and draws.draw(st.booleans()) else (T, K))
    e, shape = draws.draw(st.sampled_from([(0, None), (1, (T,)), (2, (T, 2))]))
    exog = None if shape is None else rng.standard_normal(shape)

    block = econ._lagged(data, p, start, stop, exog)
    X, Y = block[:, : 1 + e + K * p], block[:, 1 + e + K * p :]

    series = data.reshape(T, K)
    given = np.zeros((T, 0)) if exog is None else exog.reshape(T, e)
    want = np.zeros((stop - start, 1 + e + K * p))
    for t in range(start, stop):
        want[t - start, 0] = 1.0
        for c in range(e):
            want[t - start, 1 + c] = given[t, c]
        for j in range(1, p + 1):
            for v in range(K):
                want[t - start, 1 + e + (j - 1) * K + v] = series[t - j, v]
    np.testing.assert_array_equal(X, want)
    np.testing.assert_array_equal(Y, series[start:stop])
    assert block.flags.f_contiguous


@pytest.mark.parametrize("p, start", [(1, 0), (3, 2), (4, 0)])
def test_lagged_rejects_rows_without_all_their_lags(p, start):
    """A negative slice start would wrap to the end of the series."""
    with pytest.raises(ValueError, match=f"row {start} has no lag {p}"):
        econ._lagged(np.arange(10.0), p, start, 10)


def fresh_rng():
    return np.random.default_rng(SEED)


def simulate_var1(A, T, rng, c=None):
    K = A.shape[0]
    c = np.zeros(K) if c is None else c
    data = np.zeros((T, K))
    shocks = rng.standard_normal((T, K))
    for t in range(1, T):
        data[t] = c + A @ data[t - 1] + shocks[t]
    return data


@pytest.mark.parametrize(
    "call",
    [
        lambda d: econ.adf_test(d[:, 1]),
        lambda d: econ.granger(d[:, 0], d[:, 1], 2),
        lambda d: econ.granger_matrix(d, 2),
        lambda d: econ.johansen_trace(d),
        lambda d: econ.fit_var(d, 2),
        lambda d: econ.fit_var_order(d, 2),
        lambda d: econ.ljung_box(d[:, 1], 10),
    ],
    ids=[
        "adf_test", "granger", "granger_matrix", "johansen_trace", "fit_var",
        "fit_var_order", "ljung_box",
    ],
)
def test_one_infinite_cell_is_a_value_error(call):
    data = np.cumsum(fresh_rng().standard_normal((200, 3)), axis=0)
    data[50, 1] = np.inf
    with pytest.raises(ValueError, match="infinite value"):
        call(data)


each_estimator = pytest.mark.parametrize(
    "call",
    [
        lambda d: econ.adf_test(d[:, 0]),
        lambda d: econ.johansen_trace(d),
        lambda d: econ.granger_matrix(d, 2),
        lambda d: econ.fit_var(d, 2),
    ],
    ids=["adf_test", "johansen_trace", "granger_matrix", "fit_var"],
)


@each_estimator
def test_overflowing_design_is_one_numerical_error(call):
    """Finite cells near the float maximum overflow in a difference or a
    column norm: one NonFiniteFactor, with no warning before it."""
    huge = np.array([1e308, -1e308] * 20) + np.arange(40)
    data = np.column_stack([huge, fresh_rng().standard_normal(40)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteFactor):
            call(data)


@each_estimator
def test_overflowing_column_norm_is_not_collinearity(call):
    """A walk scaled by 1e200 has a finite R factor whose column norms
    overflow: one NonFiniteFactor, not a RankDeficient after a warning."""
    rng = fresh_rng()
    big = np.cumsum(rng.standard_normal(200)) * 1e200
    data = np.column_stack([big, np.cumsum(rng.standard_normal(200))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteFactor):
            call(data)


class TestAdf:
    def test_white_noise_is_stationary(self):
        noise = fresh_rng().standard_normal(500)
        result = econ.adf_test(noise)
        assert result.is_stationary
        crit = econ.adf_critical_values(500 - 1 - result.lags_used)
        assert result.t_stat < crit["1%"]

    def test_random_walk_is_nonstationary(self):
        walk = np.cumsum(fresh_rng().standard_normal(500))
        result = econ.adf_test(walk)
        assert not result.is_stationary
        assert result.approx_pvalue > 0.05

    def test_differenced_walk_is_stationary(self):
        walk = np.cumsum(fresh_rng().standard_normal(500))
        assert econ.adf_test(np.diff(walk)).is_stationary

    def test_decision_consistent_with_critical_value(self):
        for series in (
            fresh_rng().standard_normal(200),
            np.cumsum(fresh_rng().standard_normal(200)),
        ):
            r = econ.adf_test(series)
            crit = econ.adf_critical_values(len(series) - 1 - r.lags_used)
            assert r.is_stationary == (r.t_stat < crit["5%"])
            assert 0.0 <= r.approx_pvalue <= 1.0

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            econ.adf_test(np.arange(10.0))

    def test_matches_reference_implementation(self):
        statsmodels = pytest.importorskip("statsmodels.tsa.stattools")
        rng = fresh_rng()
        series = rng.standard_normal(300) + 0.5 * np.sin(np.arange(300) / 7)
        mine = econ.adf_test(series)
        t_ref, p_ref, lag_ref, *_ = statsmodels.adfuller(series)
        assert mine.t_stat == pytest.approx(t_ref, rel=1e-8)
        assert mine.lags_used == lag_ref
        assert mine.approx_pvalue == pytest.approx(p_ref, abs=1e-6)

    @staticmethod
    def _matches_naive_oracle(T):
        rng = fresh_rng()
        series = rng.standard_normal(T) + 0.5 * np.sin(np.arange(T) / 7)
        mine = econ.adf_test(series)
        # the default cap, floor(12 (T/100)^(1/4)): 15 at T = 300
        t_ref, lag_ref = reference.adf(series, max_lags=int(12 * (T / 100) ** 0.25))
        assert mine.t_stat == pytest.approx(t_ref, rel=1e-8)
        assert mine.lags_used == lag_ref

    def test_matches_naive_oracle(self):
        # the series of test_matches_reference_implementation
        self._matches_naive_oracle(300)

    def test_blocked_design_matches_naive_oracle(self):
        # 5000 rows: the design spans three blocks of BLOCK_ROWS
        self._matches_naive_oracle(5000)


class TestJohansen:
    def test_independent_walks_not_cointegrated(self):
        rng = fresh_rng()
        w1 = np.cumsum(rng.standard_normal(400))
        w2 = np.cumsum(rng.standard_normal(400))
        result = econ.johansen_trace(np.column_stack([w1, w2]), 1)
        assert result.rank == 0
        assert not result.reject_5pct[0]

    def test_constructed_pair_is_cointegrated(self):
        rng = fresh_rng()
        w = np.cumsum(rng.standard_normal(400))
        pair = np.column_stack([w, w + 0.5 * rng.standard_normal(400)])
        result = econ.johansen_trace(pair, 1)
        assert result.rank >= 1
        assert result.reject_5pct[0]

    def test_single_column_rejected(self):
        with pytest.raises(ValueError):
            econ.johansen_trace(np.ones((100, 1)))

    def test_too_few_rows(self):
        with pytest.raises(InsufficientObservations):
            econ.johansen_trace(np.zeros((15, 2)))

    def test_matches_reference_implementation(self):
        vecm = pytest.importorskip("statsmodels.tsa.vector_ar.vecm")
        rng = fresh_rng()
        data = np.column_stack(
            [
                np.cumsum(rng.standard_normal(300)),
                np.cumsum(rng.standard_normal(300)),
                np.cumsum(rng.standard_normal(300)),
            ]
        )
        mine = econ.johansen_trace(data, 1)
        ref = vecm.coint_johansen(data, 0, 1)
        np.testing.assert_allclose(mine.trace_stats, ref.lr1, rtol=1e-8)
        np.testing.assert_allclose(
            mine.critical_values_5pct, ref.cvt[:, 1], rtol=0
        )

    @staticmethod
    def _matches_naive_oracle(T):
        rng = fresh_rng()
        data = np.column_stack([np.cumsum(rng.standard_normal(T)) for _ in range(3)])
        mine = econ.johansen_trace(data, 1)
        eigenvalues, trace = reference.johansen(data, 1)
        np.testing.assert_allclose(mine.eigenvalues, eigenvalues, rtol=1e-9)
        np.testing.assert_allclose(mine.trace_stats, trace, rtol=1e-9)

    def test_matches_naive_oracle(self):
        # the input of test_matches_reference_implementation
        self._matches_naive_oracle(300)

    def test_blocked_design_matches_naive_oracle(self):
        # 5000 rows: the design spans three blocks of BLOCK_ROWS
        self._matches_naive_oracle(5000)

    @pytest.mark.parametrize(
        "collinear",
        [lambda x: x, lambda x: 3.0 * x + 1.0, np.ones_like],
        ids=["duplicate", "affine", "constant"],
    )
    def test_collinear_levels_are_singular(self, collinear):
        rng = fresh_rng()
        x, w = np.cumsum(rng.standard_normal((2, 400)), axis=1)
        with pytest.raises(SingularMomentMatrix):
            econ.johansen_trace(np.column_stack([x, w, collinear(x)]), 0)

    @pytest.mark.parametrize("scale", [1e-15, 1e15])
    def test_eigenvalues_ignore_one_column_scale(self, scale):
        rng = fresh_rng()
        w = np.cumsum(rng.standard_normal(400))
        data = np.column_stack(
            [w, w + 0.5 * rng.standard_normal(400), np.cumsum(rng.standard_normal(400))]
        )
        want = econ.johansen_trace(data, 1).eigenvalues
        got = econ.johansen_trace(data * [1.0, scale, 1.0], 1).eigenvalues
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestGranger:
    def test_constructed_causal_pair(self):
        rng = fresh_rng()
        T = 200
        x = rng.standard_normal(T)
        noise = 0.1 * rng.standard_normal(T)
        y = np.zeros(T)
        y[1:] = 0.8 * x[:-1] + noise[1:]
        _, p_value = econ.granger(x, y, 5)
        assert p_value[0] < 0.01

    def test_independent_pair_not_causal(self):
        rng = fresh_rng()
        rng.standard_normal(400)  # advance past the causal fixture draws
        x = rng.standard_normal(200)
        y = rng.standard_normal(200)
        _, p_value = econ.granger(x, y, 5)
        assert p_value.shape == (5,)
        for lag_p in p_value:
            assert lag_p > 0.05

    def test_constant_cause_is_rank_deficient(self):
        y = fresh_rng().standard_normal(100)
        with pytest.raises(RankDeficient):
            econ.granger(np.ones(100), y, 2)

    def test_f_matches_independent_regression_on_hand_fixture(self):
        # 30-point fixture; restricted/unrestricted coded directly via lstsq
        rng = fresh_rng()
        x = rng.standard_normal(30)
        y = np.zeros(30)
        for t in range(1, 30):
            y[t] = 0.4 * y[t - 1] + 0.6 * x[t - 1] + 0.3 * rng.standard_normal()
        lag = 2
        rows = 30 - lag
        target = y[lag:]
        own = np.column_stack([y[lag - j : 30 - j] for j in range(1, lag + 1)])
        other = np.column_stack([x[lag - j : 30 - j] for j in range(1, lag + 1)])
        const = np.ones((rows, 1))

        def ssr(design):
            beta, *_ = np.linalg.lstsq(design, target, rcond=None)
            resid = target - design @ beta
            return float(resid @ resid)

        ssr_r = ssr(np.hstack([const, own]))
        ssr_u = ssr(np.hstack([const, own, other]))
        df_den = rows - 2 * lag - 1
        expected_f = ((ssr_r - ssr_u) / lag) / (ssr_u / df_den)

        f_stat, p_value = econ.granger(x, y, lag)
        assert f_stat[lag - 1] == pytest.approx(expected_f, abs=1e-10)
        # the p-value of F(lag, df_den) at the statistic
        assert p_value[lag - 1] == f_sf(float(f_stat[lag - 1]), lag, df_den)

    def test_matches_reference_implementation(self):
        stattools = pytest.importorskip("statsmodels.tsa.stattools")
        rng = fresh_rng()
        x = rng.standard_normal(150)
        y = np.zeros(150)
        y[1:] = 0.5 * x[:-1] + rng.standard_normal(149)
        f_stat, p_value = econ.granger(x, y, 3)
        ref = stattools.grangercausalitytests(np.column_stack([y, x]), 3)
        for lag in (1, 2, 3):
            f_ref, p_ref, *_ = ref[lag][0]["ssr_ftest"]
            assert f_stat[lag - 1] == pytest.approx(f_ref, rel=1e-8)
            assert p_value[lag - 1] == pytest.approx(p_ref, abs=1e-8)


def _granger_panel(T, K, scales=None):
    """A seeded stable VAR(1) panel, so some pairs cause and some do not."""
    rng = fresh_rng()
    A = 0.4 * rng.standard_normal((K, K)) / np.sqrt(K)
    data = simulate_var1(A, T + 50, rng)[50:]
    return data if scales is None else data * scales


#: Small integers with y_t = x_{t-1} (columns 0 and 1), so the unrestricted
#: lag-1 model of x causing y leaves a residual of exactly 0; column 2 is
#: noise and column 3 = 2 * column 2.
_EXACT_FIT = np.array(
    [
        [0, 0, 0], [0, 0, 1], [0, 0, 1], [-1, 0, -1], [2, -1, 1], [-1, 2, 1],
        [1, -1, 0], [-1, 1, -2], [0, -1, 1], [2, 0, -2], [-2, 2, 2], [1, -2, 2],
    ],
    dtype=float,
)
_EXACT_FIT = np.column_stack([_EXACT_FIT, 2.0 * _EXACT_FIT[:, 2]])


class TestGrangerMatrix:
    """Every (cause, effect, lag) entry against the naive per-pair oracle
    of ``tests/reference.py``."""

    @pytest.mark.parametrize(
        "T, K, max_lag, scales",
        [
            (300, 5, 5, None),
            # at lags 3 and 4 the shared design [1, K*L lags | K columns]
            # is wider than tall, while each pair still has T > 3L + 3
            (28, 8, 4, None),
            (300, 5, 4, np.logspace(-4, 5, 5)),
            # the shared design spans three blocks of BLOCK_ROWS rows
            (5000, 4, 3, None),
        ],
        ids=["K5-T300", "wide", "scales-1e-4-to-1e5", "blocked-T5000"],
    )
    def test_every_entry_matches_the_reference(self, T, K, max_lag, scales):
        data = _granger_panel(T, K, scales)
        f_stat, p_value = econ.granger_matrix(data, max_lag)
        assert f_stat.shape == p_value.shape == (K, K, max_lag)
        tested = ~np.eye(K, dtype=bool)
        assert np.isnan(f_stat[~tested]).all() and np.isnan(p_value[~tested]).all()
        assert np.isfinite(f_stat[tested]).all() and np.isfinite(p_value[tested]).all()
        for cause, effect in zip(*np.nonzero(tested)):
            for lag in range(1, max_lag + 1):
                f = float(f_stat[cause, effect, lag - 1])
                p = p_value[cause, effect, lag - 1]
                f_ref, p_ref, df_num, df_den = granger_f(
                    data[:, cause], data[:, effect], lag
                )
                assert abs(f - f_ref) <= 1e-9 * max(1.0, abs(f_ref))
                assert abs(p - p_ref) <= 2e-9
                assert p == f_sf(f, df_num, df_den)

    @pytest.mark.parametrize("fill", [0.0, 3.0], ids=["zero", "constant"])
    def test_zero_or_constant_column_is_rank_deficient(self, fill):
        data = _granger_panel(300, 5)
        data[:, 2] = fill
        with pytest.raises(RankDeficient):
            econ.granger_matrix(data, 3)

    def test_too_few_observations(self):
        with pytest.raises(InsufficientObservations):
            econ.granger_matrix(_granger_panel(18, 3), 5)

    def test_a_collinear_pair_fails_its_pivot_test(self):
        data = np.random.default_rng(SEED).standard_normal((200, 5))
        data[:, 3] = 2.0 * data[:, 1]
        with pytest.raises(RankDeficient, match=r"^relative pivot 2\.600e-16 below"):
            econ.granger_matrix(data, 3)

    @pytest.mark.parametrize(
        "columns, max_lag, message",
        [
            ([0, 1, 2], 1, "unrestricted regression fits exactly"),
            ([0, 1, 2], 2, r"relative pivot 3\.667e-17 below"),
            # pair (0, 1) fits exactly before pair (2, 3) fails its pivot test
            ([0, 1, 2, 3], 1, "unrestricted regression fits exactly"),
            # and the other way round: pair (0, 1) is collinear
            ([2, 3, 0, 1], 1, r"relative pivot 1\.134e-16 below"),
        ],
        ids=["exact", "exact-at-lag-1-of-2", "exact-first", "collinear-first"],
    )
    def test_the_first_failing_pair_raises(self, columns, max_lag, message):
        """Lag by lag, cause-major, and within a pair the pivot test before
        the exact fit: the messages the pair-by-pair loop gave."""
        with pytest.raises(RankDeficient, match=f"^{message}"):
            econ.granger_matrix(_EXACT_FIT[:, columns], max_lag)

    def test_the_one_pair_test_raises_on_an_exact_fit(self):
        with pytest.raises(RankDeficient, match="^unrestricted regression fits exactly$"):
            econ.granger(_EXACT_FIT[:, 0], _EXACT_FIT[:, 1], 1)


def _selected(monkeypatch, data, max_lags: int, criterion: str):
    """``(model, criterion value)`` of :func:`econ.fit_var`, the value being
    the score its own lag search gave the selected order."""
    scores = {}
    search = econ._lag_search

    def recording(data, max_p, score, exog=None):
        def kept(p, cross):
            scores[p] = score(p, cross)
            return scores[p]

        return search(data, max_p, kept, exog)

    monkeypatch.setattr(econ, "_lag_search", recording)
    model = econ.fit_var(data, max_lags, criterion)
    assert min(scores, key=scores.get) == model.p
    return model, scores[model.p]


class TestFitVar:
    def test_recovers_var1(self):
        A = np.array([[0.5, 0.1], [0.0, 0.3]])
        data = simulate_var1(A, 10_000, fresh_rng())
        model = econ.fit_var(data, 5, "aic")
        assert model.p == 1
        assert np.abs(model.A[0] - A).max() < 0.05
        assert np.abs(model.c).max() < 0.05

    def test_white_noise_selects_intercept_only(self):
        data = fresh_rng().standard_normal((500, 3))
        model = econ.fit_var(data, 4, "aic")
        assert model.p == 0
        assert model.A == ()
        assert model.residuals.shape == (500, 3)

    def test_constant_column_is_rank_deficient(self):
        rng = fresh_rng()
        data = np.column_stack([rng.standard_normal(100), np.full(100, 3.0)])
        with pytest.raises(RankDeficient):
            econ.fit_var_order(data, 1)

    def test_exact_recovery_on_noise_free_recursion(self):
        A = np.array([[0.5, 0.2], [-0.1, 0.4]])
        c = np.array([1.0, -0.5])
        data = np.zeros((30, 2))
        data[0] = [8.0, -3.0]  # off the fixed point so the transient identifies A
        for t in range(1, 30):
            data[t] = c + A @ data[t - 1]
        model = econ.fit_var_order(data, 1)
        np.testing.assert_allclose(model.A[0], A, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(model.c, c, rtol=1e-8, atol=1e-10)

    def test_sigma_invariants(self):
        data = simulate_var1(np.array([[0.4, 0.0], [0.2, 0.5]]), 500, fresh_rng())
        model = econ.fit_var_order(data, 2)
        assert model.residuals.shape == (498, 2)
        np.testing.assert_allclose(model.sigma, model.sigma.T, atol=1e-12)
        assert np.linalg.eigvalsh(model.sigma).min() > 0
        assert len(model.residuals) == 498

    def test_criteria_agree_with_reference(self):
        api = pytest.importorskip("statsmodels.tsa.api")
        data = simulate_var1(np.array([[0.5, 0.1], [0.0, 0.3]]), 600, fresh_rng())
        mine = econ.fit_var(data, 6, "aic")
        ref = api.VAR(data).fit(maxlags=6, ic="aic")
        assert mine.p == ref.k_ar
        np.testing.assert_allclose(mine.A[0], ref.coefs[0], rtol=1e-8)
        np.testing.assert_allclose(mine.c, ref.intercept, rtol=1e-8)
        np.testing.assert_allclose(mine.sigma, ref.sigma_u, rtol=1e-8)

    def test_fpe_order_holds_at_extreme_scales(self):
        """det(sigma) of ten columns under- or overflows at these scales
        while its logarithm is finite; the order the FPE picks does not
        move with the data's units."""
        rng = fresh_rng()
        K, T = 10, 2000
        A1, A2 = 0.3 * np.eye(K), 0.25 * np.eye(K) + 0.02 * rng.standard_normal((K, K))
        y, shocks = np.zeros((T, K)), rng.standard_normal((T, K))
        for t in range(2, T):
            y[t] = A1 @ y[t - 1] + A2 @ y[t - 2] + shocks[t]
        orders = [econ.fit_var(y * scale, 6, "fpe").p for scale in (1.0, 1e-20, 1e17)]
        assert orders == [econ.fit_var(y, 6, "aic").p] * 3 == [2] * 3

    @pytest.mark.parametrize("criterion", econ.CRITERIA)
    # 600 rows: the data of test_criteria_agree_with_reference; at 5000 rows
    # the design spans three blocks of BLOCK_ROWS
    @pytest.mark.parametrize(
        "max_lags, below_cap, T",
        [(6, True, 600), (1, False, 600), (6, True, 5000), (1, False, 5000)],
        ids=["rows-added", "p-at-cap", "blocked-rows-added", "blocked-p-at-cap"],
    )
    def test_select_then_refit_matches_naive_oracle(
        self, monkeypatch, criterion, max_lags, below_cap, T
    ):
        data = simulate_var1(np.array([[0.5, 0.1], [0.0, 0.3]]), T, fresh_rng())
        mine, mine_value = _selected(monkeypatch, data, max_lags, criterion)
        p, value, c, A, sigma, stderr = reference.var_select(data, max_lags, criterion)
        assert mine.p == p
        assert (p < max_lags) == below_cap
        if criterion == "fpe":  # the search ranks the FPE's logarithm
            mine_value = np.exp(mine_value)
        assert mine_value == pytest.approx(value, rel=1e-9)
        np.testing.assert_allclose(mine.c, c, rtol=1e-9)
        for mine_A, ref_A in zip(mine.A, A, strict=True):
            np.testing.assert_allclose(mine_A, ref_A, rtol=1e-9)
        np.testing.assert_allclose(mine.sigma, sigma, rtol=1e-9)
        np.testing.assert_allclose(mine.stderr, stderr, rtol=1e-9)

    def test_standard_errors_and_tvalues_match_naive_oracle(self):
        # the seeded data of TestReferenceAgreement.fitted_pair
        rng = fresh_rng()
        A = np.array([[0.5, 0.1], [-0.2, 0.3]])
        c = np.array([0.3, -0.1])
        data = np.zeros((800, 2))
        shocks = rng.standard_normal((800, 2))
        for t in range(1, 800):
            data[t] = c + A @ data[t - 1] + shocks[t]
        mine = econ.fit_var_order(data, 2)
        X = np.column_stack([np.ones(798), data[1:799], data[0:798]])
        beta, stderr = reference.ols(X, data[2:])
        np.testing.assert_allclose(mine.stderr, stderr, rtol=1e-10)
        np.testing.assert_allclose(
            mine.coef / mine.stderr, beta / stderr, rtol=1e-10
        )

    def test_insufficient_observations(self):
        with pytest.raises(InsufficientObservations):
            econ.fit_var(np.zeros((10, 3)), 5)

    def test_names_label_the_model_and_must_match_the_columns(self):
        data = simulate_var1(np.array([[0.5, 0.1], [0.0, 0.3]]), 300, fresh_rng())
        assert econ.fit_var(data, 3, names=["a", "b"]).variable_order == ("a", "b")
        assert econ.fit_var(data, 3).variable_order == ("y0", "y1")
        with pytest.raises(ShapeMismatch):
            econ.fit_var(data, 3, names=["a"])
        with pytest.raises(ShapeMismatch):
            econ.fit_var_order(data, 1, names=["a"])


class TestLjungBox:
    def test_iid_noise_passes(self):
        result = econ.ljung_box(fresh_rng().standard_normal(300), 10)
        assert result.p_value > 0.05

    def test_ar1_fails(self):
        rng = fresh_rng()
        rng.standard_normal(300)  # advance past the iid fixture draws
        shocks = rng.standard_normal(300)
        ar = np.zeros(300)
        for t in range(1, 300):
            ar[t] = 0.9 * ar[t - 1] + shocks[t]
        assert econ.ljung_box(ar, 10).p_value < 0.01

    def test_hand_computed_alternating_series(self):
        y = np.array([1.0, -1.0] * 10)
        T = 20
        centered = y - y.mean()
        rho1 = float(centered[1:] @ centered[:-1]) / float(centered @ centered)
        expected_q = T * (T + 2.0) * rho1**2 / (T - 1)
        result = econ.ljung_box(y, 1)
        assert result.q_stat == pytest.approx(expected_q, abs=1e-10)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            econ.ljung_box(np.arange(5.0), 10)


class TestIrf:
    def test_horizon_zero_is_identity(self):
        data = simulate_var1(np.array([[0.5, 0.1], [0.0, 0.3]]), 300, fresh_rng())
        model = econ.fit_var_order(data, 1)
        psi, _ = econ.irf(model, 0)
        np.testing.assert_array_equal(psi[0], np.eye(2))

    def test_scalar_geometric_recursion(self):
        model = var_model(("y",), np.zeros(1), (np.array([[0.5]]),), np.eye(1), 10)
        psi, _ = econ.irf(model, 3)
        values = [float(m[0, 0]) for m in psi]
        assert values == [1.0, 0.5, 0.25, 0.125]

    def test_theta_zero_is_cholesky(self):
        data = simulate_var1(np.array([[0.4, 0.2], [0.1, 0.3]]), 400, fresh_rng())
        model = econ.fit_var_order(data, 1)
        _, theta = econ.irf(model, 5)
        np.testing.assert_allclose(theta[0] @ theta[0].T, model.sigma, atol=1e-10)
        np.testing.assert_array_equal(theta[0], np.linalg.cholesky(model.sigma))

    def test_stable_model_responses_decay(self):
        data = simulate_var1(np.array([[0.5, 0.1], [0.0, 0.3]]), 400, fresh_rng())
        model = econ.fit_var_order(data, 1)
        assert reference.is_stable(model.A)
        psi, _ = econ.irf(model, 200)
        assert np.abs(psi[200]).max() < 1e-12

    def test_non_positive_definite_sigma(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        model = var_model(("a", "b"), np.zeros(2), (), indefinite, 10)
        with pytest.raises(NonPositiveDefiniteSigma):
            econ.irf(model, 2)


class TestFevd:
    def test_first_variable_horizon_one_own_share_is_exactly_one(self):
        data = simulate_var1(np.array([[0.5, 0.1], [0.0, 0.3]]), 400, fresh_rng())
        model = econ.fit_var_order(data, 1)
        shares = econ.fevd(model, 10)
        assert shares[0, 0, 0] == 1.0
        assert shares[0, 0, 1] == 0.0

    def test_rows_sum_to_one(self):
        data = simulate_var1(np.array([[0.4, 0.2], [0.1, 0.3]]), 400, fresh_rng())
        model = econ.fit_var_order(data, 1)
        shares = econ.fevd(model, 12)
        np.testing.assert_allclose(shares.sum(axis=2), 1.0, atol=1e-9)
        assert shares.min() >= 0.0 and shares.max() <= 1.0

    def test_diagonal_sigma_no_dynamics_is_identity_like(self):
        sigma = np.diag([1.0, 2.0, 0.5])
        model = var_model(("a", "b", "c"), np.zeros(3), (), sigma, 30)
        shares = econ.fevd(model, 6)
        for i in range(3):
            np.testing.assert_allclose(shares[i, :, i], 1.0, atol=1e-12)

    def test_matches_reference_implementation(self):
        api = pytest.importorskip("statsmodels.tsa.api")
        data = simulate_var1(np.array([[0.5, 0.1], [-0.2, 0.3]]), 500, fresh_rng())
        model = econ.fit_var_order(data, 2)
        ref = api.VAR(data).fit(2).fevd(8)
        mine = econ.fevd(model, 8)
        np.testing.assert_allclose(mine, ref.decomp, rtol=1e-6, atol=1e-8)

    def test_matches_scipy_oracle(self):
        # the data of test_matches_reference_implementation
        data = simulate_var1(np.array([[0.5, 0.1], [-0.2, 0.3]]), 500, fresh_rng())
        model = econ.fit_var_order(data, 2)
        ref = reference.fevd(model.A, model.sigma, 8)
        mine = econ.fevd(model, 8)
        np.testing.assert_allclose(mine, ref, rtol=1e-6, atol=1e-8)


class TestForecast:
    def test_intercept_only_returns_constant(self):
        model = var_model(("a", "b"), np.array([1.5, -2.0]), (), np.eye(2), 10)
        out = econ.forecast(model, np.zeros((1, 2)), 4)
        np.testing.assert_array_equal(out, np.tile([1.5, -2.0], (4, 1)))

    def test_scalar_halving(self):
        model = var_model(("y",), np.zeros(1), (np.array([[0.5]]),), np.eye(1), 10)
        out = econ.forecast(model, np.array([[8.0]]), 3)
        np.testing.assert_allclose(out[:, 0], [4.0, 2.0, 1.0])

    def test_zero_steps(self):
        model = econ.fit_var_order(
            simulate_var1(np.array([[0.3]]), 100, fresh_rng()), 1
        )
        assert econ.forecast(model, np.array([[1.0]]), 0).shape == (0, 1)

    def test_shape_mismatch(self):
        model = econ.fit_var_order(
            simulate_var1(np.array([[0.3, 0.0], [0.0, 0.3]]), 100, fresh_rng()), 2
        )
        with pytest.raises(ShapeMismatch):
            econ.forecast(model, np.zeros((1, 2)), 3)

    def test_converges_to_unconditional_mean(self):
        A = np.array([[0.5, 0.1], [0.0, 0.3]])
        c = np.array([1.0, 2.0])
        data = simulate_var1(A, 5000, fresh_rng(), c=c)
        model = econ.fit_var_order(data, 1)
        out = econ.forecast(model, data[-1:], 500)
        mean = reference.unconditional_mean(model.c, model.A)
        np.testing.assert_allclose(out[-1], mean, rtol=0, atol=1e-6)


class TestStationarityPipeline:
    def test_all_stationary_panel_unchanged(self):
        rng = fresh_rng()
        data = np.column_stack([rng.standard_normal(200), rng.standard_normal(200)])
        out, adf = econ.stationarity_pipeline(data, ("a", "b"))
        np.testing.assert_array_equal(out, data)
        assert all(t.is_stationary for t in adf.values())

    def test_random_walk_panel_differenced(self):
        rng = fresh_rng()
        data = np.column_stack(
            [np.cumsum(rng.standard_normal(300)), np.cumsum(rng.standard_normal(300))]
        )
        out, adf = econ.stationarity_pipeline(data, ("a", "b"))
        assert [(name, not t.is_stationary) for name, t in adf.items()] == [
            ("a", True),
            ("b", True),
        ]
        assert out.shape == (299, 2)

    def test_mixed_panel_aligned_by_row_drop(self):
        rng = fresh_rng()
        stationary = rng.standard_normal(300)
        walk = np.cumsum(rng.standard_normal(300))
        data = np.column_stack([stationary, walk])
        out, adf = econ.stationarity_pipeline(data, ("s", "w"))
        assert [(name, not t.is_stationary) for name, t in adf.items()] == [
            ("s", False),
            ("w", True),
        ]
        assert out.shape == (299, 2)
        # bit for bit: the stationary column's tail and the first difference
        bits = out.view(np.uint64)
        np.testing.assert_array_equal(bits[:, 0], stationary[1:].view(np.uint64))
        np.testing.assert_array_equal(bits[:, 1], (walk[1:] - walk[:-1]).view(np.uint64))


class TestSummaries:
    def test_json_summary_structure(self):
        data = simulate_var1(np.array([[0.5, 0.1], [0.0, 0.3]]), 300, fresh_rng())
        model = econ.fit_var_order(data, 1, names=("alpha", "beta"))
        doc = econ.var_summary_json(model)
        assert doc["lag_order"] == 1
        assert set(doc["equations"]) == {"alpha", "beta"}
        cell = doc["equations"]["alpha"]["L1.alpha"]
        assert set(cell) == {"coefficient", "std_error", "t_stat", "prob"}
        assert 0.0 <= cell["prob"] <= 1.0

    def test_text_summary_layout(self):
        data = simulate_var1(np.array([[0.5]]), 200, fresh_rng())
        model = econ.fit_var_order(data, 1, names=("y",))
        text = econ.var_summary_text(econ.var_summary_json(model))
        assert "Summary of Regression Results" in text
        assert "Results for equation y" in text
        assert "coefficient" in text and "t-stat" in text


class TestExtraPaths:
    def test_johansen_without_lagged_differences(self):
        rng = fresh_rng()
        w = np.cumsum(rng.standard_normal(300))
        pair = np.column_stack([w, w + 0.3 * rng.standard_normal(300)])
        result = econ.johansen_trace(pair, k_ar_diff=0)
        assert result.rank >= 1

    @pytest.mark.parametrize("criterion", ["aic", "bic", "hqic", "fpe"])
    def test_every_selection_criterion_runs(self, monkeypatch, criterion):
        data = simulate_var1(np.array([[0.6, 0.0], [0.1, 0.4]]), 400, fresh_rng())
        model, value = _selected(monkeypatch, data, 4, criterion)
        assert 0 <= model.p <= 4
        assert np.isfinite(value)

    def test_bic_never_selects_more_lags_than_aic(self):
        data = simulate_var1(np.array([[0.6, 0.2], [0.1, 0.4]]), 400, fresh_rng())
        aic = econ.fit_var(data, 6, "aic")
        bic = econ.fit_var(data, 6, "bic")
        assert bic.p <= aic.p


class TestReferenceAgreement:
    """Whole-stack agreement with an independent implementation."""

    @pytest.fixture
    def fitted_pair(self):
        api = pytest.importorskip("statsmodels.tsa.api")
        rng = fresh_rng()
        A = np.array([[0.5, 0.1], [-0.2, 0.3]])
        c = np.array([0.3, -0.1])
        data = np.zeros((800, 2))
        shocks = rng.standard_normal((800, 2))
        for t in range(1, 800):
            data[t] = c + A @ data[t - 1] + shocks[t]
        return data, econ.fit_var_order(data, 2), api.VAR(data).fit(2)

    def test_forecast_path(self, fitted_pair):
        data, mine, ref = fitted_pair
        np.testing.assert_allclose(
            econ.forecast(mine, data[-2:], 12),
            ref.forecast(data[-2:], 12),
            atol=1e-10,
        )

    def test_standard_errors_and_tvalues(self, fitted_pair):
        _, mine, ref = fitted_pair
        np.testing.assert_allclose(mine.stderr, ref.stderr, rtol=1e-10)
        np.testing.assert_allclose(
            mine.coef / mine.stderr, ref.tvalues, atol=1e-10
        )

    def test_orthogonalized_responses(self, fitted_pair):
        _, mine, ref = fitted_pair
        psi, theta = econ.irf(mine, 8)
        reference = ref.irf(8)
        for h in range(9):
            np.testing.assert_allclose(psi[h], reference.irfs[h], atol=1e-12)
            np.testing.assert_allclose(theta[h], reference.orth_irfs[h], atol=1e-12)

    def test_log_likelihood(self, fitted_pair):
        _, mine, ref = fitted_pair
        doc = econ.var_summary_json(mine)
        assert doc["log_likelihood"] == pytest.approx(ref.llf, rel=1e-12)

    def test_ljung_box(self, fitted_pair):
        diagnostic = pytest.importorskip("statsmodels.stats.diagnostic")
        _, mine, _ = fitted_pair
        resid = mine.residuals[:, 0]
        result = econ.ljung_box(resid, 10)
        ref = diagnostic.acorr_ljungbox(resid, lags=[10])
        assert result.q_stat == pytest.approx(float(ref["lb_stat"].iloc[0]), rel=1e-10)
        assert result.p_value == pytest.approx(float(ref["lb_pvalue"].iloc[0]), abs=1e-10)


class TestScipyOracleAgreement:
    """TestReferenceAgreement's checks, on its data, against the scipy and
    plain-recursion oracles of tests/reference.py."""

    @pytest.fixture
    def fitted(self):
        A = np.array([[0.5, 0.1], [-0.2, 0.3]])
        data = simulate_var1(A, 800, fresh_rng(), np.array([0.3, -0.1]))
        return data, econ.fit_var_order(data, 2)

    def test_forecast_path(self, fitted):
        data, mine = fitted
        np.testing.assert_allclose(
            econ.forecast(mine, data[-2:], 12),
            reference.forecast_path(mine.c, mine.A, data[-2:], 12),
            atol=1e-10,
        )

    def test_orthogonalized_responses(self, fitted):
        _, mine = fitted
        psi, theta = econ.irf(mine, 8)
        ref_psi, ref_theta = reference.ma_responses(mine.A, mine.sigma, 8)
        for h in range(9):
            np.testing.assert_allclose(psi[h], ref_psi[h], atol=1e-12)
            np.testing.assert_allclose(theta[h], ref_theta[h], atol=1e-12)

    def test_log_likelihood(self, fitted):
        _, mine = fitted
        doc = econ.var_summary_json(mine)
        ref = reference.var_log_likelihood(mine.residuals)
        assert doc["log_likelihood"] == pytest.approx(ref, rel=1e-12)

    def test_ljung_box(self, fitted):
        _, mine = fitted
        resid = mine.residuals[:, 0]
        result = econ.ljung_box(resid, 10)
        q, p = reference.ljung_box(resid, 10)
        assert result.q_stat == pytest.approx(q, rel=1e-10)
        assert result.p_value == pytest.approx(p, abs=1e-10)
