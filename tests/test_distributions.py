import pytest

from bimonetary._dist import beta_inc, chi2_sf, f_sf, gamma_q, normal_cdf

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
