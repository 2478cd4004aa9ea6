import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PPoly

from kramers.kernels import SpectralFunction
from kramers.quadrature import K_MAX, integrate_gaussian_weighted
from kramers.special_integrals import GasParameters
from kramers.transport import (
    DimensionalContext,
    VelocityProfile,
    dimensional_slip,
    distribution_function,
    gamma_from_physical,
    slip_coefficient_kv,
    slip_velocity,
    velocity_profile,
)

SQPI = math.sqrt(math.pi)


def e_q(series, q):
    """The weights q^n of E_q = sum_n q^n E_n, and E_q itself: a PPoly on
    the densities' pieces, summed in order as the transforms sum them."""
    weights = [q**n for n in range(series.order + 1)]
    c = sum(w * e.c for w, e in zip(weights, series.e_funcs))
    return weights, PPoly.construct_fast(c, series.e_funcs[0].nodes)


class TestSlipVelocity:
    def test_full_accommodation_second_order(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        u_sl = slip_velocity(params, series_cache(0.0, 2))
        assert u_sl == pytest.approx(1.0151, abs=1e-3)

    def test_zero_order_closed_form(self, series_cache):
        for q in (0.3, 1.0):
            params = GasParameters(gamma=0.0, q=q, g_v=1.0)
            expected = (2.0 - q) / q * SQPI / 2.0
            assert slip_velocity(params, series_cache(0.0, 0)) == pytest.approx(
                expected, rel=1e-14
            )

    def test_accommodation_limit_with_density(self, series_cache):
        params = GasParameters(gamma=0.25, q=0.6, g_v=1.0)
        expected = (1.0 - 0.25) * (2.0 - 0.6) / 0.6 * SQPI / 2.0
        assert slip_velocity(params, series_cache(0.25, 0)) == pytest.approx(
            expected, rel=1e-14
        )

    def test_gradient_linearity(self, series_cache):
        series = series_cache(0.0, 2)
        base = slip_velocity(GasParameters(0.0, 1.0, 1.0), series)
        scaled = slip_velocity(GasParameters(0.0, 1.0, 2.5), series)
        assert scaled == pytest.approx(2.5 * base, rel=1e-15)

    def test_gamma_mismatch_rejected(self, series_cache):
        params = GasParameters(gamma=0.1, q=1.0, g_v=1.0)
        with pytest.raises(ValueError, match="gamma"):
            slip_velocity(params, series_cache(0.0, 2))


class TestSlipCoefficient:
    def test_second_order_value(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        kv = slip_coefficient_kv(params, series_cache(0.0, 2))
        assert kv == pytest.approx(1.0151 * 2.0 / SQPI, abs=2e-3)

    def test_zero_order_unity(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        kv = slip_coefficient_kv(params, series_cache(0.0, 0))
        assert kv == pytest.approx(1.0, abs=1e-15)

    def test_near_exact_reference(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        kv = slip_coefficient_kv(params, series_cache(0.0, 2))
        exact = 1.0162 * 2.0 / SQPI
        assert abs(kv - exact) / exact <= 0.0015

    def test_overflowing_slip_named(self, series_cache):
        """(2-q)/q is finite at q = 1.2e-308, but K_v was inf; so was the
        slip velocity at a large gradient."""
        series = series_cache(0.0, 2)
        tiny = GasParameters(gamma=0.0, q=1.2e-308)
        assert math.isfinite(slip_velocity(tiny, series))
        with pytest.raises(ValueError, match=r"q=1\.2e-308, g_v=1\.0: K_v is not finite"):
            slip_coefficient_kv(tiny, series)
        steep = GasParameters(gamma=0.0, q=1e-300, g_v=1e10)
        with pytest.raises(ValueError, match="the slip velocity is not finite"):
            slip_velocity(steep, series)
        with pytest.raises(ValueError, match="the slip velocity is not finite"):
            velocity_profile(steep, series, [0.0, 1.0])


class TestVelocityProfile:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_constructor_rejects_non_finite_coordinates(self, bad):
        with pytest.raises(ValueError, match="x_nodes must be finite"):
            VelocityProfile(x_nodes=[bad], u_continuum=[0.0], u_sl=0.0, g_v=1.0)

    def test_asymptote_split_exact(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.3)
        profile = velocity_profile(
            params, series_cache(0.0, 2), [0.0, 0.5, 2.0, 11.0]
        )
        recon = profile.u_sl + profile.g_v * profile.x_nodes + profile.u_continuum
        np.testing.assert_array_equal(profile.u_total, recon)

    def test_inputs_are_copied_not_frozen(self, series_cache):
        """velocity_profile and VelocityProfile leave the caller's arrays
        writable; the record's arrays are read-only copies, and a read-only
        input is shared."""
        x, u_c = np.array([0.0, 1.0]), np.array([0.5, 0.25])
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        profile = velocity_profile(params, series_cache(0.0, 1), x)
        record = VelocityProfile(x_nodes=x, u_continuum=u_c, u_sl=1.0, g_v=2.0)
        x[0], u_c[0] = 3.0, 4.0
        for p in (profile, record):
            assert p.x_nodes[0] == 0.0
            for arr in (p.x_nodes, p.u_continuum, p.u_total):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0
        assert record.u_continuum[0] == 0.5 and record.u_total[0] == 1.5
        again = VelocityProfile(x_nodes=record.x_nodes, u_continuum=record.u_continuum,
                                u_sl=1.0, g_v=2.0)
        assert again.x_nodes is record.x_nodes
        assert again.u_continuum is record.u_continuum

    def test_compares_and_hashes_by_identity(self, series_cache):
        """Two profiles from the same call raised numpy's ambiguous truth
        value on ==, and hash() a TypeError."""
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        a, b = (velocity_profile(params, series_cache(0.0, 1), [0.0, 1.0])
                for _ in range(2))
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_wall_layer_decays(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        profile = velocity_profile(params, series_cache(0.0, 2), [0.0, 20.0])
        assert abs(profile.u_continuum[1]) < 1e-3 * abs(profile.u_continuum[0])

    def test_asymptote_recovery(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        profile = velocity_profile(params, series_cache(0.0, 2), [20.0])
        drift = profile.u_total[0] - profile.g_v * 20.0
        assert drift == pytest.approx(profile.u_sl, abs=1e-3)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_wall_value_against_brute_force(self, series_cache):
        """Order-0 U_c(0) vs nested scipy quadrature with 1/k substitution."""

        def t_scipy(n, k):
            pts = (1.0 / k,) if k > 0.125 else None
            val, _ = quad(
                lambda t: math.exp(-t * t) * t**n / (1.0 + k * k * t * t),
                0.0, 8.0, epsabs=1e-30, epsrel=1e-11, limit=200, points=pts,
            )
            return 2.0 / SQPI * val

        def phi0_scipy(k):
            pts = (1.0 / k,) if k > 0.125 else None
            val, _ = quad(
                lambda t: (1.0 - 2.0 * t / SQPI) * math.exp(-t * t) * t**3
                / (1.0 + k * k * t * t),
                0.0, 8.0, epsabs=1e-30, epsrel=1e-11, limit=200, points=pts,
            )
            return val

        def density(k):
            return phi0_scipy(k) / t_scipy(2, k)

        head, _ = quad(density, 0.0, 10.0, epsabs=1e-12, epsrel=1e-10, limit=300)
        tail, _ = quad(
            lambda u: density(1.0 / u) / (u * u), 1e-6, 0.1,
            epsabs=1e-12, epsrel=1e-9, limit=300,
        )
        brute = (head + tail) / math.pi

        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        profile = velocity_profile(params, series_cache(0.0, 0), [0.0])
        assert profile.u_continuum[0] == pytest.approx(brute, abs=2e-5)

    def test_gradient_linearity(self, series_cache):
        series = series_cache(0.0, 2)
        a = velocity_profile(GasParameters(0.0, 1.0, 1.0), series, [1.0])
        b = velocity_profile(GasParameters(0.0, 1.0, 2.5), series, [1.0])
        assert b.u_continuum[0] == pytest.approx(
            2.5 * a.u_continuum[0], rel=1e-12
        )

    def test_order_difference_is_single_term(self, series_cache):
        """Profile at order 2 minus order 1 equals the q^2 spectral term."""
        from kramers.transport import _osc_transform

        params = GasParameters(gamma=0.0, q=0.8, g_v=1.0)
        s2 = series_cache(0.0, 2)
        s1 = series_cache(0.0, 1)
        for x in (0.0, 1.0, 4.0):
            full = velocity_profile(params, s2, [x]).u_continuum[0]
            part = velocity_profile(params, s1, [x]).u_continuum[0]
            term = (
                params.g_v * (2.0 - params.q) * params.q**2 / math.pi
                * _osc_transform(s2.e_funcs[2:], [[1.0]], np.array([x]),
                                 label="order-2 term")[0][0, 0]
            )
            assert full - part == pytest.approx(term, abs=1e-9)

    def test_continuum_part_reads_no_gamma(self, series_cache):
        """U_c = G_v (2-q) (1/pi) int cos(kx) E_q dk with the gamma-free E_n:
        the same bits at every gamma (scaling E_n by 1/(1-gamma) and U_c by
        1-gamma moved it by up to 1.1e-16 at gamma 0.25)."""
        x = np.linspace(0.0, 30.0, 61)
        u_c = [velocity_profile(GasParameters(gamma=g, q=0.7), series_cache(g, 4),
                                x).u_continuum for g in (0.0, 0.25, 0.5)]
        np.testing.assert_array_equal(u_c[1], u_c[0])
        np.testing.assert_array_equal(u_c[2], u_c[0])

    def test_negative_coordinates_rejected(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        with pytest.raises(ValueError):
            velocity_profile(params, series_cache(0.0, 0), [-1.0])

    def test_far_field_finite(self, series_cache):
        """The head costs the same at every x1, so far coordinates just work."""
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        profile = velocity_profile(params, series_cache(0.0, 0), [600.0, 1e5])
        assert np.all(np.isfinite(profile.u_continuum))
        assert np.all(np.abs(profile.u_continuum) < 1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coordinates_rejected(self, series_cache, bad):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        with pytest.raises(ValueError, match="x_nodes must be finite"):
            velocity_profile(params, series_cache(0.0, 0), [1.0, bad])

    def test_non_vector_coordinates_rejected(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        with pytest.raises(ValueError, match=r"x_nodes must be 1-d, got shape \(2, 2\)"):
            velocity_profile(params, series_cache(0.0, 0), [[0.0, 1.0], [2.0, 3.0]])

    def test_overflowing_coordinate_rejected(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        with pytest.raises(ValueError, match="overflows"):
            velocity_profile(params, series_cache(0.0, 0), [1e306])

    @pytest.mark.parametrize("x", [1e100, 1e300])
    def test_huge_coordinates_give_no_warning(self, series_cache, x):
        """The Taylor branch of the head must not form w^2 of huge
        coordinates: a RuntimeWarning fails this test."""
        series = series_cache(0.0, 1)
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        u_c = velocity_profile(params, series, [x]).u_continuum
        assert abs(u_c[0]) < 1e-12
        for mu in (0.5, -0.5):
            assert math.isfinite(distribution_function(params, series, x, mu))

    def test_total_is_derived_from_its_parts(self):
        profile = VelocityProfile(x_nodes=[0.0, 1.0], u_continuum=[0.5, 0.25],
                                  u_sl=1.0, g_v=2.0)
        np.testing.assert_array_equal(profile.u_total, [1.5, 3.25])
        with pytest.raises(ValueError):
            profile.u_total[0] = 0.0
        with pytest.raises(TypeError):
            VelocityProfile(x_nodes=[0.0], u_total=[9.0], u_continuum=[0.0],
                            u_sl=0.0, g_v=1.0)
        with pytest.raises(ValueError, match=r"u_continuum has shape \(1,\), x_nodes \(3,\)"):
            VelocityProfile(x_nodes=[0.0, 1.0, 2.0], u_continuum=[5.0], u_sl=0.0, g_v=1.0)

    def test_overflowing_total_named(self, series_cache):
        """g_v = 1e308 gave u_total [7.06e307, inf] at x1 = [0, 10], with
        only a RuntimeWarning (which fails this test) to say so."""
        params = GasParameters(gamma=0.0, q=1.0, g_v=1e308)
        with pytest.raises(ValueError, match=r"^g_v=1e\+308: u_total is not finite at x1=10$"):
            velocity_profile(params, series_cache(0.0, 2), [0.0, 10.0, 20.0])
        with pytest.raises(ValueError, match="u_total is not finite at x1=3"):
            VelocityProfile(x_nodes=[0.0, 3.0], u_continuum=[0.0, math.nan],
                            u_sl=0.0, g_v=1.0)

    @pytest.mark.parametrize("mu, first", [(0.5, 10), (-5.0, 0), (0.0, 10)])
    def test_overflowing_distribution_named(self, series_cache, mu, first):
        """h(10, mu) at g_v = 1e308 was inf for mu 0.5 and -5; the first
        bad coordinate is named."""
        params = GasParameters(gamma=0.0, q=1.0, g_v=1e308)
        series = series_cache(0.0, 2)
        for x1, at in ((10.0, 10), ([0.0, 10.0, 20.0], first)):
            message = rf"^q=1.0, g_v=1e\+308: h\(x1, mu={mu:g}\) is not finite at x1={at}$"
            with pytest.raises(ValueError, match=message):
                distribution_function(params, series, x1, mu)


class TestCombinedDensity:
    def test_summed_pieces_match_refit(self, series_cache, monkeypatch):
        """The PPoly on the summed pieces, which the tail fit samples, is
        the interpolant refitted to the summed node values, to rounding."""
        import kramers.transport as transport

        series = series_cache(0.25, 4)
        nodes = series.e_funcs[0].nodes
        fit, sampled = transport._fit_log_tail, []

        def captured(f, k_max, label):
            sampled.append(f)
            return fit(f, k_max, label)

        monkeypatch.setattr(transport, "_fit_log_tail", captured)
        transport._plan.cache_clear()
        for top in (4, 3):
            weights = [0.9**n for n in range(top + 1)]
            transport._osc_transform(series.e_funcs, [weights], np.array([1.0]))
            values = sum(w * e.values for w, e in zip(weights, series.e_funcs))
            refit = SpectralFunction(nodes=nodes, values=values, label="refit")
            probe = np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])])
            scale = np.max(np.abs(values))
            np.testing.assert_allclose(
                sampled.pop()(probe), refit(probe), rtol=0, atol=1e-14 * scale
            )

    def test_sums_need_one_grid(self, series_cache):
        """Densities on two grids are rejected by name before any work,
        by the profile and by h at mu > 0."""
        from kramers.kernels import standard_grid
        from kramers.neumann import SeriesExpansion
        from kramers.special_integrals import phi0_vec

        grids = (standard_grid(800.0), standard_grid(400.0))
        funcs = tuple(SpectralFunction(nodes=g, values=phi0_vec(g), label=f"E_{n}")
                      for n, g in enumerate(grids))
        series = SeriesExpansion(
            gamma=0.0, order=1, u_coeffs=series_cache(0.0, 1).u_coeffs,
            phi_funcs=funcs, e_funcs=funcs,
            diagnostics=({"order": 0, "u_tail": 0.0}, {"order": 1, "u_tail": 0.0}),
        )
        params = GasParameters(gamma=0.0, q=0.8)
        with pytest.raises(ValueError, match="grid"):
            velocity_profile(params, series, [0.0, 1.0])
        with pytest.raises(ValueError, match="grid"):
            distribution_function(params, series, 1.0, 0.5)


class TestClosedFormHead:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("x", [0.0, 0.05, 0.5, 2.5, 20.0, 450.0, 680.0, 5000.0])
    def test_matches_quadpack_on_each_knot_interval(self, series_cache, x):
        """Every piece of every transform against QUADPACK's weighted rules.

        The same bound holds at every mu, |mu| = 10 included, the largest
        h(x1, mu) accepts: the 14-point interpolant of the damped piece must
        resolve the damping width 1/|mu| on the first knot interval (0.032
        wide) at every x, x = 680 included.
        """
        from kramers.transport import _head_pieces, _heads

        _, density = e_q(series_cache(0.0, 2), 0.8)

        def e(k):
            return float(density(k))

        for mu in (0.25, 2.0, -1.0, 10.0, -10.0):
            lo, hi = density.x[:-1], density.x[1:]
            heads = _heads(_head_pieces(density.x, density.c[:, None], mu)[0],
                           np.array([x]))[:, 0]
            assert lo[0] == 0.0 and hi[-1] == K_MAX

            def damp(k):
                return 1.0 / (1.0 + (k * mu) ** 2)

            integrands = (
                ("cos", e),
                ("cos", lambda k: e(k) * damp(k)),
                ("sin", lambda k: k * e(k) * damp(k)),
            )
            for row, (weight, f) in zip(heads, integrands):
                expected = [
                    quad(f, a, b, weight=weight, wvar=x, epsabs=1e-17,
                         epsrel=1e-14, limit=200)[0]
                    for a, b in zip(lo, hi)
                ]
                np.testing.assert_allclose(row, expected, rtol=0, atol=1e-13)


class TestWallTransform:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("case", [(0.0, 2, 1.0), (0.25, 4, 0.9)])
    @pytest.mark.parametrize("mu", [0.5, -1.0])
    def test_matches_quadpack_plus_fitted_tail(self, series_cache, case, mu):
        """x = 0: QUADPACK on each knot interval, then the exact integral of
        (alpha + beta ln k)/k^2 through the integrand at 0.7 k_max and k_max."""
        from kramers.transport import _osc_transform

        gamma, order, q = case
        series = series_cache(gamma, order)
        weights, density = e_q(series, q)
        knots = density.x
        k_max = knots[-1]

        def damp(k):
            return 1.0 / (1.0 + (k * mu) ** 2)

        values = _osc_transform(series.e_funcs, [weights], np.zeros(1), mu)[0][:2, 0]
        for value, f in zip(values, (density, lambda k: density(k) * damp(k))):
            head = math.fsum(
                quad(lambda k: float(f(k)), a, b, epsabs=1e-17, epsrel=1e-14,
                     limit=200)[0]
                for a, b in zip(knots[:-1], knots[1:])
            )
            ka = 0.7 * k_max
            fa, fb = (float(f(k)) * k**2 for k in (ka, k_max))
            beta = (fb - fa) / math.log(k_max / ka)
            alpha = fb - beta * math.log(k_max)
            tail = (alpha + beta * (math.log(k_max) + 1.0)) / k_max
            assert value == pytest.approx(head + tail, abs=1e-13)


    @pytest.mark.parametrize("mu", [0.5, -1.0])
    def test_tiny_coordinates_take_the_wall_limit(self, series_cache, mu):
        """Below x k_max = eps every transform is its x = 0 value, so tiny
        and subnormal x1 give finite output without a warning; just above
        the cutoff the cosine transform still agrees with it."""
        from kramers.transport import _WALL_OMEGA

        series = series_cache(0.25, 2)
        params = GasParameters(gamma=0.25, q=0.6)
        cutoff = _WALL_OMEGA / series.phi_funcs[0].k_max
        x = np.array([0.0, 1e-310, 1e-300, 0.5 * cutoff, 4.0 * cutoff])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u_c = velocity_profile(params, series, x).u_continuum
            h = distribution_function(params, series, x[:-1], mu)
        assert np.all(np.isfinite(u_c)) and np.all(np.isfinite(h))
        np.testing.assert_allclose(u_c, u_c[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(h, h[0], rtol=0, atol=1e-12)


class TestSharedTransforms:
    @pytest.mark.parametrize("x", [0.0, 2.5, 17.0, 450.0])
    @pytest.mark.parametrize("mu", [0.5, -1.0, 10.0])
    def test_shared_samples_match_single_transforms(self, series_cache, x, mu):
        """The cosine row of a pass with mu is the cosine-only pass, bit for
        bit: its integrand is the quintic piece, whose Chebyshev coefficients
        past T_5 are zero in both passes, while the damped rows go to
        degree 13."""
        from kramers.transport import _osc_transform

        series = series_cache(0.0, 2)
        weights, _ = e_q(series, 0.8)
        shared, wall = _osc_transform(series.e_funcs, [weights], np.array([x]), mu)
        (cosine,), _ = _osc_transform(series.e_funcs, [weights], np.array([x]))
        assert shared.shape == (3, 1) and wall.shape == (3, 0)
        assert shared[0, 0] == cosine[0]

    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [0.3, 0.8, 1.0])
    def test_source_bracket_row_is_the_partial_sum(self, series_cache, gamma, order, q):
        """The second weight row of h at mu > 0 transforms at the wall to
        the same bits as sum_{n<N} q^n E_n alone."""
        from kramers.transport import _osc_transform

        series = series_cache(gamma, order)
        weights, _ = e_q(series, q)
        for mu in (0.25, 0.5, 2.0, 10.0):
            _, wall = _osc_transform(
                series.e_funcs, [weights, weights[:-1]], np.array([7.0]), mu)
            alone, _ = _osc_transform(
                series.e_funcs[:order], [weights[:-1]], np.array([0.0]), mu)
            assert np.array_equal(wall[:, 0], alone[:, 0])


class TestTailSeries:
    """Tails past k_max of the fitted model (alpha + beta ln k)/k^2 against
    30-digit references, across x k_max = 40, where the Gauss-Laguerre sum
    on the turned contour starts at k_max instead of past the near-wall
    Gauss-Legendre stretch.

    Each reference is int_{k_max}^inf F(k) e^{ikx} dk, its real part for
    the cosine rows and its imaginary part for the k-sine one, with F the
    model, the model times 1/(1 + k^2 mu^2), and k * k times that damped
    model: the k-sine integrand k sin(kx) * k * model * damping written out
    with its double k, the known k-sine tail defect (ROADMAP).  They were
    computed with mpmath 1.3 at 30 digits by turning the contour up into the
    half-plane, where F is analytic past k_max:
    i e^{i k_max x} int_0^inf F(k_max + it) e^{-tx} dt, the integral the
    code sums with 16 Gauss-Laguerre nodes and mpmath.quad integrated
    adaptively.  Where x k_max <= 41 that agrees to 22 digits with mpmath.quadosc (quadrature on half
    periods up to a zero past 60/x, then quadosc); at x k_max = 1e3 and 1e5
    quadosc was off by orders of magnitude, as QUADPACK's QAWF can be.
    mpmath is not a dependency, so the values are literals.  The damping
    depends on mu^2 only, so -mu has the same references.
    """

    ALPHA, BETA = 0.8, -0.8  # near the fits of E_q at gamma 0.25, order 4
    #: (k_max, x k_max): the cosine tail, then the damped cosine and k-sine
    #: tails at |mu| = 0.25 and at |mu| = 10
    REFERENCE = {
        (50.0, 1e-3): (
            -0.06233495970719875, -0.0001103685524436329, -0.012363004424268628,
            -6.923398422608952e-08, -7.728618460080374e-06),
        (50.0, 5): (
            -0.008575558105807402, -4.522747016127667e-05, -0.0003151093921095722,
            -2.840783605184723e-08, -7.181731361854688e-08),
        (50.0, 39): (
            0.00113476233404538, 7.057144991995999e-06, -0.005817725012811725,
            4.438161118228275e-09, -3.6628302509365107e-06),
        (50.0, 41): (
            -0.00013471091263281406, -5.10372389756685e-07, 0.017908121056166418,
            -3.196527537116345e-10, 1.1264189022560522e-05),
        (50.0, 1e3): (
            3.8482704225515605e-05, 2.4438889033880273e-07, -0.0004175802021688242,
            1.5371864492393438e-10, -2.6266177230492664e-07),
        (50.0, 1e5): (
            1.6663925070632025e-08, 1.0602975100798254e-10, 7.402632621842797e-06,
            6.669268334779777e-14, 4.656237272981768e-09),
        (800.0, 1e-3): (
            -0.006664169918053419, -5.014872314516555e-08, -0.0010980538653774779,
            -3.134341140516391e-11, -6.862844384416128e-07),
        (800.0, 5): (
            -0.0010331995048215089, -2.1245567343762467e-08, 0.0003820198342161182,
            -1.3278737175588722e-11, 2.388255691399744e-07),
        (800.0, 39): (
            0.00013820938852199624, 3.3769254517966446e-09, -0.0007241666780228555,
            2.110629685866338e-12, -4.5261714942744376e-07),
        (800.0, 41): (
            -1.5874182875183798e-05, -2.2988237689707064e-10, 0.002199200129967978,
            -1.436775139989912e-13, 1.374534420388407e-06),
        (800.0, 1e3): (
            4.69463369317002e-06, 1.172015156035863e-10, -5.1286143393611766e-05,
            7.325277484656858e-14, -3.2054642804138964e-08),
        (800.0, 1e5): (
            2.03321662052838e-09, 5.08575481875579e-14, 9.089331897030735e-07,
            3.17867622132822e-17, 5.680974367588145e-10),
        (16384.0, 1e-3): (
            -0.00047260143012035303, -8.767411539539774e-12, -7.090830696261068e-05,
            -5.47963240516755e-15, -4.431769198548416e-08),
        (16384.0, 5): (
            -7.688953704012532e-05, -3.760069414101582e-12, 3.935921092881938e-05,
            -2.3500434924219028e-15, 2.459951828561911e-08),
        (16384.0, 39): (
            1.0326517108979042e-05, 6.014793265580085e-13, -5.439239889619127e-05,
            3.759246008713304e-16, -3.399525163184438e-08),
        (16384.0, 41): (
            -1.1715173121356356e-06, -4.0076444075891525e-14, 0.0001644339451157643,
            -2.5047777951802465e-17, 1.0277122181796796e-07),
        (16384.0, 1e3): (
            3.5097378128861475e-07, 2.089089144941494e-14, -3.834782857091097e-06,
            1.3056807932566831e-17, -2.3967394288661677e-09),
        (16384.0, 1e5): (
            1.5201351440819895e-10, 9.065774166023686e-18, 6.795695756403878e-08,
            5.6661091914686306e-21, 4.2473101007534126e-11),
    }

    @pytest.mark.parametrize("k_max, phase", sorted(REFERENCE))
    def test_matches_mpmath(self, k_max, phase):
        from kramers.transport import _tail_pieces

        plain, *damped = self.REFERENCE[k_max, phase]
        x = np.array([phase / k_max])
        for mu, pair in zip((0.25, 10.0), (damped[:2], damped[2:])):
            expected = np.array([plain, *pair])
            bound = 1e-16 * np.maximum(1.0, np.abs(expected) * k_max)
            for sign in (1.0, -1.0):
                tails = _tail_pieces(self.ALPHA, self.BETA, x, sign * mu, k_max)[:, 0]
                assert np.all(np.abs(tails - expected) <= bound), (mu, tails - expected)

    def test_far_coordinates_take_no_gauss_points(self, series_cache, monkeypatch):
        """Past x k_max = 40 the contour starts at k_max: no Gauss-Legendre
        stretch is evaluated for such a coordinate, in a profile or in h."""
        import kramers.transport as transport

        stretched = []
        original = transport._gauss_stretch

        def recorded(alpha, beta, x, *args):
            stretched.extend(x)
            return original(alpha, beta, x, *args)

        monkeypatch.setattr(transport, "_gauss_stretch", recorded)
        series = series_cache(0.25, 4)
        params = GasParameters(gamma=0.25, q=0.9, g_v=1.0)
        k_max = series.e_funcs[0].k_max
        far = np.array([40.0, 41.0, 1e3, 1e5]) / k_max
        velocity_profile(params, series, far)
        for mu in (0.5, -0.5):
            distribution_function(params, series, far, mu)
        assert stretched == []
        near = np.array([1e-3, 5.0, 39.0]) / k_max
        velocity_profile(params, series, np.concatenate([near, far]))
        assert stretched == list(near)


class TestDistributionFunction:
    # h(x1, mu) recorded with B-spline evaluation and one density sampling
    # per transform; the shared samples must reproduce it to rounding.  The
    # x1 = 0 values at mu = -1 (and gamma = 0.25, mu = 0.5) were re-recorded
    # when the head at x = 0 became closed form: the adaptive head they came
    # from was off by up to 4e-11 against QUADPACK (TestWallTransform).  All
    # were re-recorded (moving by up to 2.0e-11) when U_n and phi_n came to
    # be integrated with the fixed kernel table, whose U_n match QUADPACK
    # to 3.4e-15 relative where the adaptive ones were off by up to 1.4e-10.
    H_POINTS = [(0.0, 0.5), (0.0, -1.0), (2.5, 0.5), (2.5, -1.0), (17.0, 0.0), (17.0, 0.7)]
    H_RECORDED = {
        (0.0, 2, 1.0): [
            -0.0013213039774975233, 1.9026210827366266, 2.9780124399904464,
            4.502514728504653, 18.015180429560324, 17.3151744901235,
        ],
        (0.25, 4, 0.9): [
            0.11666142750318065, 1.5769071615524528, 3.0945163459336547,
            4.239841872498871, 18.00618679766663, 17.48118188283269,
        ],
    }

    @pytest.mark.parametrize("case", sorted(H_RECORDED))
    def test_recorded_values(self, series_cache, case):
        gamma, order, q = case
        series = series_cache(gamma, order)
        params = GasParameters(gamma=gamma, q=q, g_v=1.0)
        for (x1, mu), expected in zip(self.H_POINTS, self.H_RECORDED[case]):
            h = distribution_function(params, series, x1, mu)
            assert h == pytest.approx(expected, abs=1e-12)

    def test_asymptotic_antisymmetry(self, series_cache):
        series = series_cache(0.0, 2)
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        x = 30.0  # wall part negligible here
        mu = 0.8
        h_plus = distribution_function(params, series, x, mu)
        h_minus = distribution_function(params, series, x, -mu)
        assert h_plus - h_minus == pytest.approx(
            -2.0 * params.g_v * (1.0 - params.gamma) * mu, abs=1e-4
        )

    def test_velocity_moment_matches_continuum(self, series_cache):
        """(1/sqrt(pi)) int exp(-t^2) h_c dt reproduces U_c."""
        series = series_cache(0.0, 2)
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        x = 1.0
        profile = velocity_profile(params, series, [x])

        def h_c(mu):
            h_as = profile.u_sl + params.g_v * (x - mu)
            return distribution_function(params, series, x, mu) - h_as

        def folded(t):
            return np.array([h_c(v) + h_c(-v) for v in np.atleast_1d(t)])

        moment = integrate_gaussian_weighted(folded) / SQPI
        assert moment == pytest.approx(profile.u_continuum[0], abs=1e-6)

    def test_wall_layer_vanishes_far_away(self, series_cache):
        series = series_cache(0.0, 2)
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        mu = 0.7

        def h_c(x):
            h_as = (
                slip_velocity(params, series)
                + params.g_v * (x - (1.0 - params.gamma) * mu)
            )
            return distribution_function(params, series, x, mu) - h_as

        assert abs(h_c(25.0)) < 1e-3 * abs(h_c(0.0))

    def test_half_space_only(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        with pytest.raises(ValueError):
            distribution_function(params, series_cache(0.0, 0), -1.0, 0.5)

    @pytest.mark.parametrize("name, x1, mu", [
        ("x1", math.nan, 0.5), ("x1", math.inf, 0.5),
        ("mu", 1.0, math.nan), ("mu", 1.0, math.inf), ("mu", 1.0, -math.inf),
    ])
    def test_non_finite_arguments_rejected(self, series_cache, name, x1, mu):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            distribution_function(params, series_cache(0.0, 0), x1, mu)

    @pytest.mark.parametrize("mu", [10.5, -10.5, 100.0, 1e200])
    def test_large_velocity_rejected(self, series_cache, mu):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        with pytest.raises(ValueError, match=r"mu must lie in \[-10, 10\]"):
            distribution_function(params, series_cache(0.0, 1), 1.0, mu)

    @pytest.mark.parametrize("mu", [[0.5, 1.0], np.array([0.5, 1.0]), np.ones((1, 1))])
    def test_velocity_array_rejected(self, series_cache, mu):
        """An array mu raised an unnamed TypeError from math.isfinite."""
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        shape = re.escape(str(np.shape(mu)))
        with pytest.raises(ValueError, match=f"mu must be one velocity, got an array "
                                             f"of shape {shape}"):
            distribution_function(params, series_cache(0.0, 1), 1.0, mu)

    @pytest.mark.parametrize("mu", [np.array(0.5), np.float64(0.5), np.float32(0.5)])
    def test_numpy_velocity_is_a_float(self, series_cache, mu):
        """A 0-d array or numpy scalar mu gives the float mu's bits and
        reads its cached plan (an array key would be unhashable)."""
        import kramers.transport as transport

        assert type(transport.check_mu(mu)) is float
        params = GasParameters(gamma=0.25, q=0.9)
        series = series_cache(0.25, 2)
        expected = distribution_function(params, series, [0.0, 2.0], 0.5)
        hits = transport._plan.cache_info().hits
        np.testing.assert_array_equal(
            distribution_function(params, series, [0.0, 2.0], mu), expected)
        assert transport._plan.cache_info().hits == hits + 1

    @pytest.mark.parametrize("mu", [10.0, -10.0])
    def test_velocity_bound_allowed(self, series_cache, mu):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        value = distribution_function(params, series_cache(0.0, 1), 1.0, mu)
        assert math.isfinite(value)

    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    @pytest.mark.parametrize("order", [0, 2, 4])
    def test_zero_velocity_is_the_profile(self, series_cache, gamma, order):
        """h(x1, 0) = U_sl + G_v x1 + U_c(x1) = u_total(x1) by construction:
        the mu = 0 pass is the cosine transform of the profile, so the two
        differ only in the order of their last roundings."""
        series = series_cache(gamma, order)
        x = np.concatenate([[0.0, 5e-324], np.linspace(0.0, 60.0, 619)[1:]])
        for q in (0.3, 1.0):
            for g_v in (1.0, -2.5):
                params = GasParameters(gamma=gamma, q=q, g_v=g_v)
                u = velocity_profile(params, series, x).u_total
                h = distribution_function(params, series, x, 0.0)
                assert (np.abs(h - u) <= 4.5e-16 * np.maximum(1.0, np.abs(u))).all()

    def test_zero_velocity_allowed(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        value = distribution_function(params, series_cache(0.0, 2), 1.0, 0.0)
        assert math.isfinite(value)

    def test_subnormal_velocity_decays_without_warning(self, series_cache):
        """At mu = 1e-310, x1/mu overflows and the wall source e^{-x1/mu} is
        0 without a RuntimeWarning; h is then its mu = 0 value."""
        series = series_cache(0.0, 2)
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        x = np.array([0.5, 5.0])
        tiny = distribution_function(params, series, x, 1e-310)
        np.testing.assert_allclose(
            tiny, distribution_function(params, series, x, 0.0), rtol=0, atol=1e-14
        )


class TestBatchedCoordinates:
    """One transform pass over many coordinates equals one per coordinate."""

    X1 = [0.0, 1e-4, 1e-3, 0.3, 7.0, 39.0, 600.0, 1e5]
    PARAMS = GasParameters(gamma=0.25, q=0.9, g_v=1.0)

    def test_profile_matches_single_nodes(self, series_cache):
        series = series_cache(0.25, 4)
        batch = velocity_profile(self.PARAMS, series, self.X1).u_continuum
        single = [velocity_profile(self.PARAMS, series, [x]).u_continuum[0]
                  for x in self.X1]
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("mu", [0.0, 0.5, -0.5, 10.0, -10.0])
    def test_distribution_matches_scalar_calls(self, series_cache, mu):
        series = series_cache(0.25, 4)
        batch = distribution_function(self.PARAMS, series, np.array(self.X1), mu)
        single = [distribution_function(self.PARAMS, series, x, mu) for x in self.X1]
        assert batch.shape == (len(self.X1),)
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-15)

    def test_scalar_coordinate_gives_float(self, series_cache):
        series = series_cache(0.25, 4)
        assert type(distribution_function(self.PARAMS, series, 2.5, 0.5)) is float
        assert type(distribution_function(self.PARAMS, series, 2, 0.0)) is float
        column = distribution_function(self.PARAMS, series, [[2.5], [3.0]], -0.5)
        assert isinstance(column, np.ndarray) and column.shape == (2, 1)

    def test_chunk_boundaries_change_nothing(self, series_cache, monkeypatch):
        import kramers.transport as transport

        series = series_cache(0.25, 4)
        x = np.array(self.X1 + [2.5, 3.0, 17.0])

        def run():
            return (velocity_profile(self.PARAMS, series, x).u_continuum,
                    distribution_function(self.PARAMS, series, x, 0.5))

        whole = run()
        monkeypatch.setattr(transport, "_X_CHUNK", 3)
        for chunked, expected in zip(run(), whole):
            np.testing.assert_allclose(chunked, expected, rtol=0, atol=1e-15)

    def test_one_tail_fit_per_plan(self, series_cache, monkeypatch):
        """Each (densities, weights, mu) is planned once: its head pieces
        and its tail fit once, h at mu > 0 with its source bracket as a
        second row of the same plan; a warm repeat, at any coordinates,
        makes neither, and h at mu = 0 reads the profile's plan."""
        import kramers.transport as transport

        series = series_cache(0.25, 4)
        fit, pieces = transport._fit_log_tail, transport._head_pieces
        labels, stacks = [], []

        def counted(f, k_max, label):
            labels.append(label)
            return fit(f, k_max, label)

        def counted_pieces(nodes, c, *args):
            stacks.append(c.shape[1])
            return pieces(nodes, c, *args)

        monkeypatch.setattr(transport, "_fit_log_tail", counted)
        monkeypatch.setattr(transport, "_head_pieces", counted_pieces)
        transport._plan.cache_clear()
        x = np.linspace(0.0, 30.0, 301)
        for _ in range(2):
            velocity_profile(self.PARAMS, series, x)
            distribution_function(self.PARAMS, series, x, 0.5)
        assert labels == ["transform tail fit at k_max=800"] * 2
        assert stacks == [1, 2]
        for mu, stacked in ((-0.5, [1]), (0.5, []), (0.0, [])):
            labels.clear(), stacks.clear()
            distribution_function(self.PARAMS, series, 7.0, mu)
            distribution_function(self.PARAMS, series, [0.0, 7.0], mu)
            assert stacks == stacked and len(labels) == len(stacked)


class TestPlan:
    """The coordinate-free part of a transform, cached per (densities,
    weights, mu): a warm call gives its cold call's bits."""

    PARAMS = GasParameters(gamma=0.25, q=0.9)
    X1 = [0.0, 1e-3, 0.3, 7.0, 39.0, 600.0]

    @pytest.mark.parametrize("chunk", [128, 3])
    @pytest.mark.parametrize("x1", [2.5, X1], ids=["scalar", "array"])
    @pytest.mark.parametrize("mu", [None, 0.5, -0.5])
    def test_warm_calls_repeat_cold_bits(self, series_cache, monkeypatch, chunk, x1, mu):
        import kramers.transport as transport

        series = series_cache(0.25, 4)
        monkeypatch.setattr(transport, "_X_CHUNK", chunk)

        def run():
            if mu is None:
                return velocity_profile(self.PARAMS, series, x1).u_continuum
            return distribution_function(self.PARAMS, series, x1, mu)

        transport._plan.cache_clear()
        cold = run()
        hits = transport._plan.cache_info().hits
        np.testing.assert_array_equal(run(), cold)
        assert transport._plan.cache_info().hits == hits + 1

    def test_arrays_are_read_only(self, series_cache):
        import kramers.transport as transport

        series = series_cache(0.25, 2)
        weights = tuple(self.PARAMS.q**n for n in range(3))
        plan = transport._plan(tuple(series.e_funcs), (weights, weights[:-1]), 0.5)
        arrays = [*plan.tables, plan.heads, plan.tails]
        assert plan.heads.shape == (3, 2) and plan.tails.shape == (2, 2)
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 1.0

    def test_series_at_every_gamma_share_an_entry(self):
        """The densities are the series' own gamma-free E_n, so gamma 0 and
        0.25 at the same q and mu read one plan."""
        import kramers.transport as transport
        from kramers.neumann import build_series

        series = [build_series(gamma, 3) for gamma in (0.0, 0.25)]
        assert series[0].e_funcs == series[1].e_funcs
        transport._plan.cache_clear()
        for s in series:
            params = GasParameters(gamma=s.gamma, q=0.9)
            distribution_function(params, s, 2.0, -0.5)
        info = transport._plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_guard_fires_cold_and_warm(self):
        """A density whose tail past k_max outweighs its head: at x1 = 0
        the 10% guard fires on every call, cold or warm, and a profile
        with every x1 > 0 reads no x = 0 tail.  At mu > 0 the source
        bracket's tail is read at any x1."""
        import kramers.transport as transport
        from kramers.kernels import standard_grid
        from kramers.neumann import SeriesExpansion, u0
        from kramers.quadrature import TailEstimateDominatesError

        k = standard_grid()
        # int_0^inf (k^2 - 1)/(1 + k^2)^2 dk = 0: the head is -1/k_max
        heavy = SpectralFunction(nodes=k, values=(k**2 - 1.0) / (1.0 + k**2) ** 2,
                                 label="E_0")
        series = SeriesExpansion(
            gamma=0.0, order=1, u_coeffs=(u0(), 0.0), phi_funcs=(heavy, heavy),
            e_funcs=(heavy, heavy), diagnostics=({"order": 0, "u_tail": 0.0},) * 2,
        )
        params = GasParameters(gamma=0.0, q=0.5)
        transport._plan.cache_clear()
        for _ in range(2):
            with pytest.raises(TailEstimateDominatesError) as err:
                velocity_profile(params, series, [1.0, 0.0])
            assert err.value.label == "U_c cosine transform at x1=0"
            velocity_profile(params, series, [1.0, 2.0])
            with pytest.raises(TailEstimateDominatesError) as err:
                distribution_function(params, series, 1.0, 0.5)
            assert err.value.label == "source bracket at mu=0.5"
            distribution_function(params, series, 1.0, -0.5)

    def test_one_module_level_cache(self):
        import kramers.transport as transport

        cached = [name for name, obj in vars(transport).items()
                  if hasattr(obj, "cache_info")]
        assert cached == ["_plan"]
        assert transport._plan.cache_info().maxsize == 32


class TestPhysicalConversions:
    def test_gamma_from_zero_density(self):
        assert gamma_from_physical(0.0, 3e-10) == 0.0

    def test_gamma_boundary_rejected(self):
        sigma = 1.0
        n = 15.0 / (4.0 * math.pi)
        with pytest.raises(ValueError):
            gamma_from_physical(n, sigma)

    def test_gamma_arithmetic(self):
        value = gamma_from_physical(2.5e25, 3.7e-10)
        assert value == pytest.approx(
            4.0 / 15.0 * math.pi * 2.5e25 * 3.7e-10**3, rel=1e-12
        )
        assert value == pytest.approx(1.06e-3, rel=1e-2)

    def test_context_from_frequency(self):
        """The mean free path is derived from nu and beta, never passed."""
        ctx = DimensionalContext(nu=1e9, beta=2e-6)
        assert ctx.mean_free_path == pytest.approx(6.2666e-7, rel=1e-4)
        assert ctx.mean_free_path == math.sqrt(math.pi) / 2.0 / 1e9 / math.sqrt(2e-6)
        with pytest.raises(TypeError):
            DimensionalContext(nu=1e9, beta=2e-6, mean_free_path=1e-6)

    @pytest.mark.parametrize("density, diameter, name", [
        (math.nan, 1.0, "number_density"), (math.inf, 0.0, "number_density"),
        (1.0, math.nan, "diameter"), (1.0, math.inf, "diameter"),
        (-1.0, 1.0, "number_density"),
    ])
    def test_gamma_bad_input_named(self, density, diameter, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            gamma_from_physical(density, diameter)

    @pytest.mark.parametrize("nu, beta, name", [
        (0.0, 2e-6, "nu"), (1e9, 0.0, "beta"), (math.nan, 2e-6, "nu"),
        (1e9, -1.0, "beta"), (1e9, math.inf, "beta"),
        (5e-324, 1e-10, "mean_free_path"),
    ])
    def test_context_bad_input_named(self, nu, beta, name):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            DimensionalContext(nu=nu, beta=beta)

    def test_round_trip_with_slip_coefficient(self, series_cache):
        params = GasParameters(gamma=0.0, q=0.7, g_v=1.0)
        series = series_cache(0.0, 2)
        ctx = DimensionalContext(nu=3e8, beta=4e-6)
        u_sl = slip_velocity(params, series)
        dim = dimensional_slip(u_sl, ctx)
        g_v_dim = params.g_v * ctx.nu  # dimensional gradient du_y/dx
        assert dim / (ctx.mean_free_path * g_v_dim) == pytest.approx(
            slip_coefficient_kv(params, series), rel=1e-12
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_slip_rejected(self, value):
        """dimensional_slip(nan, ctx) was a silent nan, and inf passed too."""
        ctx = DimensionalContext(nu=1e9, beta=2e-6)
        with pytest.raises(ValueError, match=f"u_sl_dimensionless must be finite, got {value}"):
            dimensional_slip(value, ctx)
        assert dimensional_slip(-1.0, ctx) == -dimensional_slip(1.0, ctx)

    def test_beta_scaling(self):
        ctx1 = DimensionalContext(nu=1e9, beta=2e-6)
        ctx4 = DimensionalContext(nu=1e9, beta=8e-6)
        assert dimensional_slip(1.0, ctx4) == pytest.approx(
            dimensional_slip(1.0, ctx1) / 2.0, rel=1e-14
        )
