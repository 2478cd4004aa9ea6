import math

import numpy as np
import pytest
from scipy.integrate import quad

from kramers.kernels import SpectralFunction
from kramers.quadrature import QuadratureSpec, integrate_gaussian_weighted
from kramers.special_integrals import GasParameters
from kramers.transport import (
    DimensionalContext,
    dimensional_slip,
    distribution_function,
    gamma_from_physical,
    slip_coefficient_kv,
    slip_velocity,
    velocity_profile,
)

SPEC = QuadratureSpec()
SQPI = math.sqrt(math.pi)


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


class TestVelocityProfile:
    def test_asymptote_split_exact(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.3)
        profile = velocity_profile(
            params, series_cache(0.0, 2), [0.0, 0.5, 2.0, 11.0]
        )
        recon = profile.u_sl + profile.g_v * profile.x_nodes + profile.u_continuum
        np.testing.assert_array_equal(profile.u_total, recon)

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
                * _osc_transform(s2.e_funcs[2], x, ("cos",),
                                 label="order-2 term")[0]
            )
            assert full - part == pytest.approx(term, abs=1e-9)

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

    def test_overflowing_coordinate_rejected(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        with pytest.raises(ValueError, match="overflows"):
            velocity_profile(params, series_cache(0.0, 0), [1e306])


class TestCombinedDensity:
    def test_summed_pieces_match_refit(self, series_cache):
        from kramers.transport import _combined_density

        series = series_cache(0.25, 4)
        for upto in (None, 3):
            summed = _combined_density(series, 0.9, upto=upto)
            refit = SpectralFunction(
                nodes=summed.nodes, values=summed.values, label="refit",
            )
            probe = np.concatenate(
                [summed.nodes, 0.5 * (summed.nodes[:-1] + summed.nodes[1:])]
            )
            scale = np.max(np.abs(summed.values))
            np.testing.assert_allclose(
                summed(probe), refit(probe), rtol=0, atol=1e-14 * scale
            )


class TestClosedFormHead:
    KINDS = ("cos", "damped_cos", "damped_ksin")

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("x", [0.0, 0.05, 0.5, 2.5, 20.0, 450.0, 5000.0])
    def test_matches_quadpack_on_each_knot_interval(self, series_cache, x):
        """Every piece of every transform against QUADPACK's weighted rules.

        At |mu| = 10, the largest h(x1, mu) accepts, the 9-point damping fit
        on the first knot interval (0.032 wide) leaves up to 3e-13 here (at
        x = 450; 1.3e-12 at x near 680), and rounding at x = 0.
        """
        from kramers.transport import _combined_density, _head_pieces

        density = _combined_density(series_cache(0.0, 2), 0.8)

        def e(k):
            return float(density(k))

        for mu in (0.25, 2.0, -1.0, 10.0, -10.0):
            lo, hi, heads = _head_pieces(density, x, self.KINDS, mu=mu)
            assert lo[0] == 0.0 and hi[-1] == SPEC.k_max

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
                np.testing.assert_allclose(
                    row, expected, rtol=0, atol=1e-13 if abs(mu) < 10.0 else 1e-12
                )


class TestWallTransform:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("case", [(0.0, 2, 1.0), (0.25, 4, 0.9)])
    @pytest.mark.parametrize("mu", [0.5, -1.0])
    def test_matches_quadpack_plus_fitted_tail(self, series_cache, case, mu):
        """x = 0: QUADPACK on each knot interval, then the exact integral of
        (alpha + beta ln k)/k^2 through the integrand at 0.7 k_max and k_max."""
        from kramers.transport import _combined_density, _osc_transform

        gamma, order, q = case
        density = _combined_density(series_cache(gamma, order), q)
        knots, k_max = density.poly.x, density.k_max

        def damp(k):
            return 1.0 / (1.0 + (k * mu) ** 2)

        values = _osc_transform(density, 0.0, ("cos", "damped_cos"), mu)
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


class TestSharedTransforms:
    KINDS = ("cos", "damped_cos", "damped_ksin")

    @pytest.mark.parametrize("x", [0.0, 2.5, 17.0])
    @pytest.mark.parametrize("mu", [0.5, -1.0])
    def test_shared_samples_match_single_transforms(self, series_cache, x, mu):
        from kramers.transport import _combined_density, _osc_transform

        density = _combined_density(series_cache(0.0, 2), 0.8)
        shared = _osc_transform(density, x, self.KINDS, mu=mu)
        assert len(shared) == 3
        for kind, value in zip(self.KINDS, shared):
            (single,) = _osc_transform(density, x, (kind,), mu=mu)
            assert value == pytest.approx(single, abs=1e-15)


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

        moment = integrate_gaussian_weighted(folded, SPEC) / SQPI
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

    @pytest.mark.parametrize("mu", [10.0, -10.0])
    def test_velocity_bound_allowed(self, series_cache, mu):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        value = distribution_function(params, series_cache(0.0, 1), 1.0, mu)
        assert math.isfinite(value)

    def test_zero_velocity_allowed(self, series_cache):
        params = GasParameters(gamma=0.0, q=1.0, g_v=1.0)
        value = distribution_function(params, series_cache(0.0, 2), 1.0, 0.0)
        assert math.isfinite(value)


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
        ctx = DimensionalContext.from_frequency(nu=1e9, beta=2e-6)
        assert ctx.mean_free_path == pytest.approx(6.2666e-7, rel=1e-4)

    def test_context_consistency_enforced(self):
        with pytest.raises(ValueError, match="mean free path"):
            DimensionalContext(nu=1e9, beta=2e-6, mean_free_path=1e-6)

    def test_round_trip_with_slip_coefficient(self, series_cache):
        params = GasParameters(gamma=0.0, q=0.7, g_v=1.0)
        series = series_cache(0.0, 2)
        ctx = DimensionalContext.from_frequency(nu=3e8, beta=4e-6)
        u_sl = slip_velocity(params, series)
        dim = dimensional_slip(u_sl, ctx)
        g_v_dim = params.g_v * ctx.nu  # dimensional gradient du_y/dx
        assert dim / (ctx.mean_free_path * g_v_dim) == pytest.approx(
            slip_coefficient_kv(params, series), rel=1e-12
        )

    def test_beta_scaling(self):
        ctx1 = DimensionalContext.from_frequency(nu=1e9, beta=2e-6)
        ctx4 = DimensionalContext.from_frequency(nu=1e9, beta=8e-6)
        assert dimensional_slip(1.0, ctx4) == pytest.approx(
            dimensional_slip(1.0, ctx1) / 2.0, rel=1e-14
        )
