import tracemalloc

import numpy as np
import pytest

from bimonetary import _regression, econometrics as econ, structural
from bimonetary._regression import (
    BLOCK_ROWS,
    cross_products,
    factor_design,
    qr_least_squares,
    qr_r,
)
from bimonetary.errors import InsufficientRows, NonFiniteFactor, RankDeficient
from tests import reference
from tests.conftest import SEED, make_canonical_panel


def mixed_design(rng, n, k):
    """Intercept plus regressors whose magnitudes span nine decades."""
    X = np.ones((n, k))
    scales = np.logspace(-3, 6, k - 1)
    X[:, 1:] = rng.standard_normal((n, k - 1)) * scales + scales
    return X


def oracle_cross_products(X, Y):
    """E_j' E_j of Y on X[:, :j] for j = 0..k, one SVD solve per prefix."""
    linalg = pytest.importorskip("scipy.linalg")
    out = []
    for j in range(X.shape[1] + 1):
        residuals = Y if j == 0 else Y - X[:, :j] @ linalg.lstsq(X[:, :j], Y)[0]
        out.append(residuals.T @ residuals)
    return np.array(out)


def prefix_cross_products(X, Y):
    """``cross_products`` of the R that ``factor_design`` gives for ``[X |
    Y]``: every prefix's ``E_j' E_j``, or its SSR for a 1-d Y."""
    rows = lambda a, b: np.column_stack((X[a:b], Y[a:b]))
    r, _ = factor_design(rows, len(X), X.shape[1])
    cross = cross_products(r, X.shape[1])
    return cross[:, 0, 0] if Y.ndim == 1 else cross


class TestQrR:
    """The kernel's one QR function against numpy's, which calls the same
    LAPACK routine with the same workspace."""

    @pytest.mark.parametrize(
        "shape",
        [(2048, 48), (2048, 150), (300, 300), (5, 12), (3000, 1), (1, 1)],
        ids=["tall", "blocked", "square", "wide", "one-column", "one-cell"],
    )
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_r_is_numpys_bit_for_bit_and_the_input_unchanged(self, shape, order):
        rng = np.random.default_rng(SEED)
        scales = np.logspace(-3, 5, shape[1])
        a = np.asarray(rng.standard_normal(shape) * scales, order=order)
        before = a.copy()
        r = qr_r(a)
        np.testing.assert_array_equal(r, np.linalg.qr(a, mode="r"))
        np.testing.assert_array_equal(a, before)

    def test_a_column_major_block_is_factored_in_place(self):
        a = np.asfortranarray(np.random.default_rng(SEED).standard_normal((500, 7)))
        want = np.linalg.qr(a, mode="r")
        np.testing.assert_array_equal(qr_r(a, overwrite=True), want)
        np.testing.assert_array_equal(np.triu(a[:7]), want)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_stack_is_numpys_r_of_each_matrix(self, order):
        rng = np.random.default_rng(SEED)
        stack = rng.standard_normal((4, 30, 7)) * np.logspace(-3, 5, 7)
        if order == "F":  # each matrix column-major, factored in place
            stack = np.swapaxes(np.ascontiguousarray(np.swapaxes(stack, 1, 2)), 1, 2)
        want = np.stack([np.linalg.qr(a, mode="r") for a in stack])
        np.testing.assert_array_equal(qr_r(stack, overwrite=True), want)
        np.testing.assert_array_equal(
            cross_products(want, 5), np.stack([cross_products(r, 5) for r in want])
        )

    def test_a_lapack_error_raises(self, monkeypatch):
        def illegal_argument(m, n, a, lda, tau, work, lwork, info):
            work[0] = 1.0
            return {"info": -4}

        monkeypatch.setattr(_regression.lapack_lite, "dgeqrf", illegal_argument)
        with pytest.raises(np.linalg.LinAlgError, match="info -4"):
            qr_r(np.ones((3, 2)))

    def test_a_non_finite_factor_is_a_numerical_error(self):
        with pytest.raises(NonFiniteFactor):
            qr_r(np.full((4, 1), 1e308))  # its norm, 2e308, overflows


class TestPrefixCrossProducts:
    # 5000 rows span three blocks of BLOCK_ROWS
    @pytest.mark.parametrize("n", [200, 7, 5000], ids=["tall", "square", "blocked"])
    @pytest.mark.parametrize("m", [None, 3], ids=["vector", "matrix"])
    def test_every_prefix_matches_lstsq_oracle(self, n, m):
        rng = np.random.default_rng(SEED)
        X = mixed_design(rng, n, 7)
        shape = (n,) if m is None else (n, m)
        Y = X @ rng.standard_normal((7,) + shape[1:]) * 1e-3 + rng.standard_normal(shape)
        got = prefix_cross_products(X, Y)
        want = oracle_cross_products(X, Y)
        assert got.shape == want.shape == (8,) + (() if m is None else (m, m))
        scale = np.abs(want[0]).max()
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * scale)

    def test_nonincreasing_and_full_prefix_is_least_squares_ssr(self):
        rng = np.random.default_rng(SEED)
        X = mixed_design(rng, 300, 5)
        y = rng.standard_normal(300)
        ssr = prefix_cross_products(X, y)
        assert (np.diff(ssr) <= 0).all()
        assert ssr[0] == pytest.approx(y @ y, rel=1e-13)
        residuals = qr_least_squares(X, y).residuals
        assert ssr[-1] == pytest.approx(float(residuals @ residuals), rel=1e-12)

    def test_collinear_last_column_raises_like_the_prefix_loop(self):
        rng = np.random.default_rng(SEED)
        X = mixed_design(rng, 100, 4)
        X = np.column_stack([X, X[:, 1] - 2.0 * X[:, 3]])
        y = rng.standard_normal(100)
        for j in range(1, X.shape[1]):
            qr_least_squares(X[:, :j], y)
        with pytest.raises(RankDeficient):
            qr_least_squares(X, y)
        with pytest.raises(RankDeficient):
            prefix_cross_products(X, y)

    def test_shape_and_zero_column_checks_match_qr_least_squares(self):
        y = np.arange(4.0)
        for X, error in (
            (np.ones((4, 5)), InsufficientRows),
            (np.column_stack([np.ones(4), np.zeros(4)]), RankDeficient),
        ):
            with pytest.raises(error):
                qr_least_squares(X, y)
            with pytest.raises(error):
                prefix_cross_products(X, y)


class TestLeastSquares:
    # 5000 rows span three blocks of BLOCK_ROWS
    @pytest.mark.parametrize(
        "m, n",
        [(None, 200), (3, 200), (None, 5000), (3, 5000)],
        ids=["vector", "matrix", "blocked-vector", "blocked-matrix"],
    )
    def test_beta_and_stderr_match_naive_oracle(self, m, n):
        # regressor columns scaled from 1e-4 to 1e5 beside the intercept
        rng = np.random.default_rng(SEED)
        X = np.ones((n, 6))
        scales = np.logspace(-4, 5, 5)
        X[:, 1:] = rng.standard_normal((n, 5)) * scales + scales
        shape = (n,) if m is None else (n, m)
        coef = (rng.standard_normal(shape[1:] + (6,)) / np.r_[1.0, scales]).T
        Y = X @ coef + rng.standard_normal(shape)
        fit = qr_least_squares(X, Y)
        beta, stderr = reference.ols(X, Y)
        assert fit.beta.shape == fit.stderr.shape == beta.shape
        np.testing.assert_allclose(fit.beta, beta, rtol=1e-9)
        np.testing.assert_allclose(fit.stderr, stderr, rtol=1e-9)


class TestFactorizationCount:
    """One blocked tall factorization per lag search, refit included,
    counted, so the old per-candidate cost or a full-design QR cannot come
    back unnoticed; counts repeat exactly, timings do not. Every design here
    spans at least three blocks of BLOCK_ROWS rows."""

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        """The shape of every matrix the kernel's one QR function factors."""
        calls = []
        inner = _regression.qr_r

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return inner(a, *args, **kwargs)

        monkeypatch.setattr(_regression, "qr_r", counted)
        return calls

    @staticmethod
    def _blocked(qr_calls, tall_rows):
        """Asserts that ``qr_calls`` open with the blocked factorization of
        one ``tall_rows``-row design: one leaf per block of BLOCK_ROWS rows
        (the last holds the rest), then one combine, the QR of every leaf's
        R factor stacked, in the design's width. Returns the calls after
        it."""
        leaves = -(-tall_rows // BLOCK_ROWS)
        assert leaves >= 3
        rows = [r for r, *_ in qr_calls[:leaves]]
        assert rows == [BLOCK_ROWS] * (leaves - 1) + [tall_rows - BLOCK_ROWS * (leaves - 1)]
        width = qr_calls[0][1]
        combine_rows = sum(min(r, width) for r in rows)
        assert qr_calls[leaves][:2] == (combine_rows, width)
        return qr_calls[leaves + 1 :]

    def _one_tall_then_refit(self, qr_calls, tall_rows, max_lags, chosen):
        """The blocked QR of the largest design, then the refit's QR of that
        R's columns with the ``max_lags - chosen`` rows the chosen design
        adds."""
        width = qr_calls[0][1]
        ((refit_rows, _),) = self._blocked(qr_calls, tall_rows)
        assert refit_rows <= width + max_lags - chosen

    def test_adf_searches_then_refits(self, qr_calls):
        walk = np.cumsum(np.random.default_rng(SEED).standard_normal(9000))
        result = econ.adf_test(walk)
        # the default cap, floor(12 (T/100)^(1/4)) = 36 at T = 9000: 5 leaves
        self._one_tall_then_refit(qr_calls, 9000 - 1 - 36, 36, result.lags_used)

    def test_fit_var_searches_then_refits(self, qr_calls):
        rng = np.random.default_rng(SEED)
        data = np.cumsum(rng.standard_normal((7000, 3)), axis=0) * 0.1
        data += rng.standard_normal((7000, 3))
        model = econ.fit_var(data, max_lags=8)
        self._one_tall_then_refit(qr_calls, 7000 - 8, 8, model.p)

    def test_granger_factors_once(self, qr_calls):
        rng = np.random.default_rng(SEED)
        x, y = rng.standard_normal((2, 7000))
        econ.granger(x, y, max_lag=6)
        # then one re-triangularised column subset per lag: one pair, six lags
        assert len(self._blocked(qr_calls, 7000 - 6)) == 6

    def test_granger_matrix_factors_once_for_all_pairs(self, qr_calls):
        # pair by pair this would take K (K-1) max_lag = 450 tall factorizations
        data = np.random.default_rng(SEED).standard_normal((9000, 10))
        econ.granger_matrix(data, max_lag=5)
        small = self._blocked(qr_calls, 9000 - 5)
        # then one call per lag L on the stack of all K (K-1) = 90 pairs: R's
        # 1 + K max_lag + K rows plus the max_lag - L rows R lacks, by the
        # pair's 2L + 2 columns
        assert small == [(90, 1 + 10 * 5 + 10 + 5 - L, 2 * L + 2) for L in range(1, 6)]

    def test_every_factorization_forms_r_only(self, qr_calls, monkeypatch):
        """Every factorization goes through the kernel's R-only QR function,
        none through ``np.linalg.qr``."""
        numpy_calls = []
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: numpy_calls.append(a))
        rng = np.random.default_rng(SEED)
        data = np.cumsum(rng.standard_normal((400, 3)), axis=0) * 0.1
        data += rng.standard_normal((400, 3))
        econ.adf_test(data[:, 0])
        econ.fit_var(data, max_lags=4)
        econ.fit_var_order(data, 2)
        econ.johansen_trace(data, k_ar_diff=2)
        econ.granger_matrix(data, max_lag=3)
        structural.calibrate(make_canonical_panel(200))
        assert qr_calls
        assert numpy_calls == []


class TestPeakMemory:
    """No kernel caller allocates a full lagged design or ``[X | Y]`` copy:
    on a 20,000 x 10 panel each call's traced peak stays under 8 MB, where
    the VAR(10) design alone takes 16 MB."""

    @pytest.fixture(scope="class")
    def panel(self):
        rng = np.random.default_rng(SEED)
        walks = np.cumsum(rng.standard_normal((20_000, 10)), axis=0) * 0.1
        return walks + rng.standard_normal((20_000, 10))

    @pytest.mark.parametrize(
        "call",
        [
            lambda data: econ.fit_var(data, max_lags=10),
            lambda data: econ.granger_matrix(data, 5),
            lambda data: econ.adf_test(data[:, 0]),
            lambda data: econ.johansen_trace(data),
            lambda data: econ.fit_var_order(data, 2),
        ],
        ids=["fit_var", "granger_matrix", "adf_test", "johansen_trace", "fit_var_order"],
    )
    def test_traced_peak_stays_under_8_mb(self, panel, call):
        tracemalloc.start()
        try:
            call(panel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestMonteCarlo:
    """Seeded size and recovery checks that need no statistics package."""

    def test_adf_rejects_about_five_percent_of_random_walks(self):
        rng = np.random.default_rng(SEED)
        replicates = 400
        rejections = sum(
            econ.adf_test(np.cumsum(rng.standard_normal(250))).is_stationary
            for _ in range(replicates)
        )
        # 5% +- three binomial standard errors (0.011 each)
        assert 0.017 <= rejections / replicates <= 0.083

    def test_var_order_is_recovered(self):
        rng = np.random.default_rng(SEED)
        A1 = np.array([[0.5, 0.1], [0.0, 0.3]])
        A2 = np.array([[-0.3, 0.0], [0.2, -0.4]])
        orders = []
        for _ in range(20):
            data = np.zeros((600, 2))
            shocks = rng.standard_normal((600, 2))
            for t in range(2, 600):
                data[t] = A1 @ data[t - 1] + A2 @ data[t - 2] + shocks[t]
            orders.append(econ.fit_var(data[100:], max_lags=6, criterion="bic").p)
        assert orders.count(2) >= 18

    def test_johansen_finds_one_cointegrating_relation(self):
        # the trend drifts: with an unrestricted constant the K - r = 1 entry
        # of the table is the chi-square(1) value, which assumes a drift
        rng = np.random.default_rng(SEED)
        ranks = []
        for _ in range(40):
            trend = np.cumsum(0.3 + rng.standard_normal(400))
            pair = np.column_stack(
                [trend + rng.standard_normal(400), 0.5 * trend + rng.standard_normal(400)]
            )
            ranks.append(econ.johansen_trace(pair, k_ar_diff=1).rank)
        assert ranks.count(1) >= 36
