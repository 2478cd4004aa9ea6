import math

import numpy as np
import pytest

from kramers.kernels import apply_kernel
from kramers.neumann import (
    SeriesExpansion,
    _pole_integrand,
    build_series,
    e_n,
    pole_residual,
    u0,
    u_coefficient,
)
from kramers.quadrature import QuadratureSpec, _log_tail, _tail_points
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

    def test_diagnostics_bound_every_order(self, series_cache):
        """u_error bounds U_n at rel_tol; u_tail is U_n's fitted tail part."""
        gamma = 0.25
        series = series_cache(gamma, 4)
        for n in range(1, 5):
            diag = series.diagnostics[n]
            u_n = series.u_coeffs[n]
            assert diag["order"] == n
            assert math.isfinite(diag["u_error"])
            assert 0.0 <= diag["u_error"] <= SPEC.rel_tol * abs(u_n)
            pole = _pole_integrand(0.0, gamma, series.phi_funcs[n - 1], SPEC)
            samples = pole(_tail_points(SPEC.k_max))
            tail = _log_tail(samples, SPEC.k_max, 2, 1.0, "tail")[0]
            scale = SQPI * (1.0 - gamma) ** n
            assert diag["u_tail"] == pytest.approx(tail / scale, rel=1e-14)
            assert abs(diag["u_tail"]) < 0.1 * abs(u_n)

    def test_shared_table_changes_nothing(self, series_cache):
        """build_series shares one kernel table; the outputs are bit-identical
        to apply_kernel and u_coefficient, which build their own."""
        gamma = 0.25
        series = series_cache(gamma, 4)
        for n in range(1, 5):
            phi_prev = series.phi_funcs[n - 1]
            alone = apply_kernel(phi_prev, gamma, SPEC)
            np.testing.assert_array_equal(series.phi_funcs[n].values, alone.values)
            assert series.u_coeffs[n] == u_coefficient(n, gamma, phi_prev, SPEC)

    def test_expansion_invariant(self):
        with pytest.raises(ValueError, match="sqrt"):
            SeriesExpansion(
                gamma=0.0, order=0, u_coeffs=(0.5,), phi_funcs=(),
                e_funcs=(), diagnostics=(),
            )


class TestRecordedSeries:
    """Order-4 series recorded from the kernel table.

    U_1..U_4 to 1e-12 relative; phi_4 and E_4 at every 16th node to 1e-12
    of their largest value (the last nodes hold values near 1e-13).  These
    values replaced ones recorded from adaptive integrals that were off by
    up to 1.4e-10 in U_n; the recorded U_n match QUADPACK on every knot
    interval of phi_{n-1} to 3.4e-15 relative.
    """

    U = {
        0.0: [0.14052343167416917, -0.011555351976047956,
              0.0010925167139592966, -0.00010544498006890559],
        0.25: [0.25434074150913416, -0.02341608466104926,
               0.00226832759151726, -0.00021993930281852652],
    }
    PHI_4 = {
        0.0: [-1.5386946269951104e-05, -9.10191435783262e-06,
              -4.131819987545551e-06, -2.0598635887603586e-06,
              -1.0559886630661077e-06, -1.386973898055073e-07,
              -1.2611551410573792e-08, -9.102308889013681e-10,
              -4.9845976531086005e-11, -3.345608470508107e-13],
        0.25: [-4.86852596822671e-06, -2.8799025897829813e-06,
               -1.3073336679343328e-06, -6.517537136312067e-07,
               -3.3412141292325995e-07, -4.388472099314873e-08,
               -3.990373688501864e-09, -2.8800274219144856e-10,
               -1.5771578511788943e-11, -1.0585714301217065e-13],
    }
    E_4 = {
        0.0: [-3.0773892539902214e-05, -2.4208654533639622e-05,
              -1.730145145881413e-05, -1.300696622097942e-05,
              -9.93097441737197e-06, -4.389148487120554e-06,
              -1.6443731719596835e-06, -5.422621547081811e-07,
              -1.5306740875686754e-07, -1.6044200740239065e-08],
        0.25: [-4.103185671986957e-05, -3.2278206044852877e-05,
               -2.3068601945085475e-05, -1.734262162797255e-05,
               -1.3241299223162597e-05, -5.852197982827397e-06,
               -2.192497562612912e-06, -7.230162062775748e-07,
               -2.0408987834249015e-07, -2.1392267653652106e-08],
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

    def test_integrates_to_the_series_k_max(self, series_cache):
        """spec supplies only rel_tol: a wider k_max changes nothing."""
        series = series_cache(0.25, 2)
        wide = QuadratureSpec(k_max=2.0 * SPEC.k_max)
        for n in (1, 2):
            assert pole_residual(series, n, 0.3, wide) == pole_residual(
                series, n, 0.3, SPEC
            )

    def test_out_of_range_order(self, series_cache):
        with pytest.raises(ValueError):
            pole_residual(series_cache(0.0, 1), 2, 0.001, SPEC)
