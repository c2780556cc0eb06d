import warnings

import numpy as np
import pytest

from bimonetary._dist import beta_inc, chi2_sf, f_sf, gamma_q, normal_cdf
from tests import reference
from tests.conftest import SEED

scipy_stats = pytest.importorskip("scipy.stats")
scipy_special = pytest.importorskip("scipy.special")


class TestTabulatedAnchors:
    def test_chi_square_ten_dof_at_upper_five_percent(self):
        # classic table entry: chi2(10) upper 5% point is 18.307
        assert chi2_sf(18.307, 10) == pytest.approx(0.050, abs=5e-4)

    def test_chi_square_one_dof_at_384(self):
        assert chi2_sf(3.841, 1) == pytest.approx(0.050, abs=5e-4)

    def test_f_upper_five_percent_points(self):
        # F(3, 20) upper 5% point is 3.098; F(1, 30) is 4.171
        assert f_sf(3.098, 3, 20) == pytest.approx(0.050, abs=5e-4)
        assert f_sf(4.171, 1, 30) == pytest.approx(0.050, abs=5e-4)

    def test_standard_normal_points(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


class TestAgainstScipy:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 50.0])
    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 4.0, 30.0, 120.0])
    def test_regularized_gamma(self, a, x):
        assert gamma_q(a, x) == pytest.approx(scipy_special.gammaincc(a, x), abs=1e-13)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (2, 3), (10, 1), (25, 40)])
    @pytest.mark.parametrize("x", [0.0, 0.05, 0.3, 0.5, 0.77, 0.99, 1.0])
    def test_regularized_beta(self, a, b, x):
        assert beta_inc(a, b, x) == pytest.approx(
            scipy_special.betainc(a, b, x), abs=1e-13
        )

    @pytest.mark.parametrize("x,df", [(0.5, 1), (7.3, 4), (18.0, 10), (55.0, 40)])
    def test_chi2_sf(self, x, df):
        assert chi2_sf(x, df) == pytest.approx(scipy_stats.chi2.sf(x, df), abs=1e-13)

    @pytest.mark.parametrize(
        "f,d1,d2", [(0.2, 2, 10), (1.0, 5, 5), (3.8, 3, 40), (25.0, 1, 12)]
    )
    def test_f_sf(self, f, d1, d2):
        assert f_sf(f, d1, d2) == pytest.approx(scipy_stats.f.sf(f, d1, d2), abs=1e-13)


class TestEdgeCases:
    def test_zero_arguments(self):
        assert gamma_q(2.0, 0.0) == 1.0
        assert chi2_sf(0.0, 5) == 1.0
        assert f_sf(0.0, 2, 3) == 1.0
        assert beta_inc(2, 3, 0.0) == 0.0
        assert beta_inc(2, 3, 1.0) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gamma_q(-1.0, 1.0)
        with pytest.raises(ValueError):
            beta_inc(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)

    def test_extreme_statistics_underflow_to_zero(self):
        assert chi2_sf(1e4, 2) == 0.0
        assert f_sf(1e30, 1, 50) == pytest.approx(0.0, abs=1e-12)


class TestArrayTail:
    """The F tail over arrays against the scalar Lentz loop it replaced
    (``tests/reference.py``), bit for bit: each entry takes the steps the
    scalar loop takes, and its prefactor the same libm calls."""

    @staticmethod
    def _draws(n):
        rng = np.random.default_rng(SEED)
        f = np.exp(rng.uniform(-10.0, 8.0, n))
        df_num = rng.integers(1, 31, n).astype(float)
        df_den = np.round(np.exp(rng.uniform(np.log(5), np.log(20_000), n)))
        # no tail (f <= 0), the far tail, and the ends of the df_den range
        f[:6] = [0.0, -1.0, -1e-12, 1e30, 1e30, 1.0]
        df_num[:6] = [3.0, 1.0, 2.0, 1.0, 30.0, 1.0]    # -1 * 1 + 1 would be 0
        df_den[:6] = [5.0, 1.0, 20_000.0, 5.0, 20_000.0, 5.0]
        return f, df_num, df_den

    def test_f_sf_matches_the_scalar_loop_on_seeded_draws(self):
        f, df_num, df_den = self._draws(24_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f_sf(f, df_num, df_den)
        want = np.array(
            [reference.f_sf(*v) for v in zip(f.tolist(), df_num.tolist(), df_den.tolist())]
        )
        assert got.tobytes() == want.tobytes()
        # both sides of I_x's symmetry split are covered, with many draws each
        a, b = df_den / 2.0, df_num / 2.0
        x = df_den / (df_den + df_num * np.maximum(f, 1e-300))
        direct = (x < (a + 1.0) / (a + b + 2.0))[f > 0]
        assert direct.sum() > 5000 and (~direct).sum() > 5000

    def test_beta_inc_matches_the_scalar_loop_at_the_ends_and_inside(self):
        rng = np.random.default_rng(SEED)
        a, b = rng.uniform(0.5, 2000.0, (2, 2000))
        x = rng.uniform(0.0, 1.0, 2000)
        x[:2] = [0.0, 1.0]
        want = [reference.beta_inc(*v) for v in zip(a.tolist(), b.tolist(), x.tolist())]
        assert beta_inc(a, b, x).tobytes() == np.array(want).tobytes()

    def test_a_float_gives_a_float(self):
        assert f_sf(3.8, 3, 40) == reference.f_sf(3.8, 3, 40)
        assert np.ndim(f_sf(3.8, 3, 40)) == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: beta_inc([1.0, 0.0], 1.0, 0.5),
            lambda: beta_inc(1.0, [2.0, -1.0], 0.5),
            lambda: beta_inc(1.0, 1.0, [0.5, 1.5]),
            lambda: beta_inc(1.0, 1.0, [0.5, -0.1]),
            lambda: beta_inc(1.0, 1.0, [0.5, np.nan]),
            lambda: f_sf([1.0, np.nan], 2, 10),
            lambda: f_sf([1.0, 2.0], [1, 0], 10),
            lambda: f_sf(1.0, 1, [10, -1]),
        ],
    )
    def test_any_invalid_entry_raises(self, call):
        with pytest.raises(ValueError):
            call()
