import math

import numpy as np
import pytest

from kramers.neumann import (
    SeriesExpansion,
    build_series,
    e_n,
    pole_residual,
    u0,
    u_coefficient,
)
from kramers.quadrature import QuadratureSpec
from kramers.special_integrals import phi0, t_n

SPEC = QuadratureSpec()
SQPI = math.sqrt(math.pi)


class TestU0:
    def test_closed_form(self):
        assert u0() == SQPI / 2.0
        assert u0() == pytest.approx(0.886227, abs=1e-6)

    def test_equals_moment_ratio(self):
        assert u0() == pytest.approx(t_n(2, 0.0) / t_n(1, 0.0), rel=1e-15)


class TestUCoefficient:
    def test_first_order_value(self, series_cache):
        series = series_cache(0.0, 1)
        u1 = u_coefficient(1, 0.0, series.phi_funcs[0], SPEC)
        assert u1 == pytest.approx(0.1405, abs=5e-4)
        # frozen from three independent quadrature routes
        assert u1 == pytest.approx(0.14052350, abs=2e-7)

    def test_density_slope(self, series_cache):
        """(1-gamma) U_n is linear in gamma: the kernel is (1-gamma) S_1."""
        gammas = np.array([0.0, 0.25, 0.5])
        scaled = np.array([
            [(1.0 - g) * u for u in series_cache(g, 4).u_coeffs[1:]]
            for g in gammas
        ])
        np.testing.assert_allclose(
            scaled[1], 0.5 * (scaled[0] + scaled[2]), rtol=0, atol=1e-10
        )
        slope = np.polyfit(gammas, scaled[:, 0], 1)[0]
        assert slope == pytest.approx(0.2009, abs=1e-3)
        phi_0 = series_cache(0.0, 1).phi_funcs[0]
        u1 = u_coefficient(1, 0.25, phi_0, SPEC)
        assert u1 == series_cache(0.25, 4).u_coeffs[1]

    def test_second_order_value(self, series_cache):
        series = series_cache(0.0, 2)
        u2 = u_coefficient(2, 0.0, series.phi_funcs[1], SPEC)
        assert u2 == pytest.approx(-0.0116, abs=5e-4)

    def test_domain(self, series_cache):
        phi_0 = series_cache(0.0, 1).phi_funcs[0]
        with pytest.raises(ValueError):
            u_coefficient(0, 0.0, phi_0, SPEC)
        with pytest.raises(ValueError):
            u_coefficient(1, 1.0, phi_0, SPEC)


class TestEn:
    def test_seed_density_at_origin(self, series_cache):
        phi_0 = series_cache(0.0, 1).phi_funcs[0]
        assert e_n(0, 0.0, phi_0, SPEC).values[0] == pytest.approx(-0.5, abs=1e-12)

    def test_density_scaling(self, series_cache):
        phi_0 = series_cache(0.0, 1).phi_funcs[0]
        assert e_n(0, 0.5, phi_0, SPEC).values[0] == pytest.approx(-1.0, abs=1e-12)

    def test_first_density_finite_and_decaying(self, series_cache):
        series = series_cache(0.0, 2)
        e1 = series.e_funcs[1]
        assert np.all(np.isfinite(e1.values))
        probe = np.array([100.0, 300.0, 790.0])
        mags = np.abs(e1(probe))
        assert mags[0] > mags[1] > mags[2]
        assert mags[-1] < 1e-5


class TestBuildSeries:
    def test_paper_coefficients(self, series_cache):
        series = series_cache(0.0, 2)
        assert series.u_coeffs[0] == pytest.approx(0.8862, abs=5e-4)
        assert series.u_coeffs[1] == pytest.approx(0.1405, abs=5e-4)
        assert series.u_coeffs[2] == pytest.approx(-0.0116, abs=5e-4)

    def test_zero_order_any_gamma(self):
        for gamma in (0.0, 0.3):
            series = build_series(gamma, 0, SPEC)
            assert series.u_coeffs == (SQPI / 2.0,)

    def test_order_consistency(self, series_cache):
        full = series_cache(0.0, 2)
        part = series_cache(0.0, 1)
        assert full.u_coeffs[:2] == part.u_coeffs
        np.testing.assert_array_equal(
            full.phi_funcs[1].values, part.phi_funcs[1].values
        )

    def test_seed_is_phi0(self, series_cache):
        series = series_cache(0.0, 1)
        ks = [0.0, 0.7, 3.0]
        for k in ks:
            assert series.phi_funcs[0](k) == pytest.approx(phi0(k), abs=1e-10)

    def test_order_domain(self):
        with pytest.raises(ValueError):
            build_series(0.0, 5, SPEC)
        with pytest.raises(ValueError):
            build_series(0.0, -1, SPEC)

    def test_gamma_domain_and_warning(self):
        with pytest.raises(ValueError):
            build_series(0.96, 0, SPEC)
        with pytest.warns(UserWarning, match="convergence"):
            build_series(0.6, 0, SPEC)

    def test_diagnostics_present(self, series_cache):
        series = series_cache(0.0, 2)
        assert len(series.diagnostics) == 3
        assert series.diagnostics[1]["u_error"] >= 0.0

    def test_expansion_invariant(self):
        with pytest.raises(ValueError, match="sqrt"):
            SeriesExpansion(
                gamma=0.0, order=0, u_coeffs=(0.5,), phi_funcs=(),
                e_funcs=(), diagnostics=(),
            )


class TestRecordedSeries:
    """Order-4 series recorded when every grid node was integrated alone.

    U_1..U_4 to 1e-12 relative; phi_4 and E_4 at every 16th node to 1e-12
    of their largest value (the last nodes hold values near 1e-13).
    """

    U = {
        0.0: [0.1405234316942604, -0.011555351976562833,
              0.0010925167140026673, -0.00010544498005860478],
        0.25: [0.254340741515391, -0.023416084658733537,
               0.0022683275909644914, -0.00021993930272291842],
    }
    PHI_4 = {
        0.0: [-1.538694626622049e-05, -9.101914353263536e-06,
              -4.131819985154322e-06, -2.0598635874142534e-06,
              -1.0559886622920664e-06, -1.386973896592966e-07,
              -1.2611551390689045e-08, -9.102308876007977e-10,
              -4.984597642560131e-11, -3.3456084615122587e-13],
        0.25: [-4.868525965736366e-06, -2.8799025881675107e-06,
               -1.307333667099137e-06, -6.51753713156172e-07,
               -3.341214126526255e-07, -4.388472094430172e-08,
               -3.99037368539938e-09, -2.8800274176583084e-10,
               -1.5771578477774016e-11, -1.058571427243642e-13],
    }
    E_4 = {
        0.0: [-3.077389253244098e-05, -2.4208654521487084e-05,
              -1.730145144880117e-05, -1.3006966212479465e-05,
              -9.93097441009255e-06, -4.389148482493643e-06,
              -1.6443731693669853e-06, -5.422621539333776e-07,
              -1.5306740843294432e-07, -1.604420069709858e-08],
        0.25: [-4.103185669888098e-05, -3.227820602674654e-05,
               -2.3068601930348003e-05, -1.7342621615332265e-05,
               -1.3241299212437302e-05, -5.852197976313457e-06,
               -2.192497560908262e-06, -7.230162052090834e-07,
               -2.0408987790232485e-07, -2.1392267595490393e-08],
    }

    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    def test_order_four(self, series_cache, gamma):
        series = series_cache(gamma, 4)
        assert series.u_coeffs[1:] == pytest.approx(self.U[gamma], rel=1e-12)
        for recorded, func in ((self.PHI_4, series.phi_funcs[4]),
                               (self.E_4, series.e_funcs[4])):
            expected = np.array(recorded[gamma])
            np.testing.assert_allclose(
                func.values[::16], expected, rtol=0,
                atol=1e-12 * np.abs(func.values).max(),
            )


class TestPoleResidual:
    def test_zero_order_closed_form(self, series_cache):
        series = series_cache(0.0, 1)
        for k in (1e-3, 0.1, 1.0):
            expected = -k * k * phi0(k)
            assert pole_residual(series, 0, k, SPEC) == pytest.approx(
                expected, abs=1e-12
            )

    def test_first_order_quadratic_scaling(self, series_cache):
        series = series_cache(0.0, 2)
        ks = np.array([1e-3, 2e-3, 4e-3])
        vals = np.array([abs(pole_residual(series, 1, k, SPEC)) for k in ks])
        slope = np.polyfit(np.log(ks), np.log(vals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_out_of_range_order(self, series_cache):
        with pytest.raises(ValueError):
            pole_residual(series_cache(0.0, 1), 2, 0.001, SPEC)
