import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import make_interp_spline

from kramers.kernels import (
    SpectralFunction,
    apply_kernel,
    s_kernel,
    standard_grid,
    weighted_sum,
)
from kramers.quadrature import QuadratureSpec, integrate_spectral
from kramers.special_integrals import (
    SQRT_PI, MomentBatch, fixed_row, j_m, phi0_vec, t_n, t_n_vec,
)

SPEC = QuadratureSpec()


def phi_seed(spec=SPEC, grid=None):
    grid = standard_grid(spec) if grid is None else grid
    return SpectralFunction(
        nodes=grid, values=phi0_vec(grid), tail_exponent=4, label="phi_0"
    )


class TestSpectralFunction:
    def test_requires_zero_start(self):
        with pytest.raises(ValueError):
            SpectralFunction(
                nodes=np.array([0.5, 1.0]), values=np.array([1.0, 2.0]),
                tail_exponent=2, label="bad",
            )

    def test_requires_strict_increase(self):
        with pytest.raises(ValueError):
            SpectralFunction(
                nodes=np.array([0.0, 1.0, 1.0]), values=np.zeros(3),
                tail_exponent=2, label="bad",
            )

    def test_requires_finite_values(self):
        with pytest.raises(ValueError, match="bad"):
            SpectralFunction(
                nodes=np.array([0.0, 1.0]), values=np.array([1.0, np.nan]),
                tail_exponent=2, label="bad",
            )

    def test_requires_tail_exponent(self):
        with pytest.raises(ValueError):
            SpectralFunction(
                nodes=np.array([0.0, 1.0]), values=np.ones(2),
                tail_exponent=1, label="bad",
            )

    def test_requires_eight_nodes(self):
        nodes = np.linspace(0.0, 1.0, 7)
        with pytest.raises(ValueError, match="8 nodes"):
            SpectralFunction(
                nodes=nodes, values=np.ones(7), tail_exponent=2, label="short",
            )

    def test_immutable_samples(self):
        f = phi_seed()
        with pytest.raises(ValueError):
            f.values[0] = 3.0

    def test_read_only_polynomial(self):
        f = phi_seed()
        with pytest.raises(AttributeError):
            f.poly = None
        with pytest.raises(ValueError):
            f.poly.c[0, 0] = 1.0
        with pytest.raises(ValueError):
            f.poly.x[1] = 0.5

    def test_weighted_sum_needs_one_grid(self):
        f = phi_seed()
        other = phi_seed(grid=standard_grid(QuadratureSpec(k_max=400.0)))
        with pytest.raises(ValueError, match="grid"):
            weighted_sum([1.0, 1.0], [f, other], label="mixed")
        total = weighted_sum([2.0, -0.5], [f, f], label="1.5 phi_0")
        np.testing.assert_allclose(
            total(f.nodes), 1.5 * f.values, rtol=0,
            atol=1e-15 * np.max(np.abs(f.values)),
        )
        assert total.label == "1.5 phi_0"

    def test_interpolation_hits_nodes(self):
        f = phi_seed()
        np.testing.assert_allclose(f(f.nodes), f.values, rtol=0, atol=1e-13)

    def test_algebraic_tail(self):
        f = phi_seed()
        k_max = f.nodes[-1]
        expected = f.values[-1] * (k_max / (2 * k_max)) ** f.tail_exponent
        assert f(2 * k_max) == pytest.approx(expected, rel=1e-14)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            phi_seed()(-0.5)

    @pytest.mark.parametrize("k", [math.nan, np.array([0.5, math.nan, 2.0])])
    def test_nan_k_rejected(self, k):
        with pytest.raises(ValueError, match="k >= 0"):
            phi_seed()(k)

    def test_matches_quintic_bspline(self):
        """The piecewise-polynomial form reproduces the clamped quintic B-spline."""
        f = phi_seed()
        spline = make_interp_spline(
            f.nodes, f.values, k=5,
            bc_type=([(1, 0.0), (3, 0.0)], [(3, 0.0), (4, 0.0)]),
        )
        rng = np.random.default_rng(2024)
        probe = np.concatenate([
            f.nodes,
            0.5 * (f.nodes[:-1] + f.nodes[1:]),
            rng.uniform(0.0, f.k_max, 2000),
        ])
        scale = np.max(np.abs(f.values))
        np.testing.assert_allclose(f(probe), spline(probe), rtol=0, atol=1e-14 * scale)
        beyond = f.k_max * np.array([1.0 + 1e-12, 1.5, 4.0, 1e3])
        expected = f.values[-1] * f.k_max**f.tail_exponent / beyond**f.tail_exponent
        np.testing.assert_allclose(f(beyond), expected, rtol=1e-15, atol=0)

    def test_deterministic_evaluation(self):
        f = phi_seed()
        probe = np.linspace(0.0, 900.0, 57)
        np.testing.assert_array_equal(f(probe), f(probe))


class TestSKernel:
    def test_gamma_zero_is_s1(self):
        k, k1 = 0.8, 1.7
        from kramers.special_integrals import j_n

        s1 = j_n(3, k, k1) - SQRT_PI * t_n(3, k) * t_n(1, k1)
        assert s_kernel(k, k1, 0.0) == pytest.approx(s1, abs=1e-13)

    def test_left_boundary_value(self):
        k1 = 1.3
        expected = t_n(3, k1) - t_n(1, k1)
        assert s_kernel(0.0, k1, 0.0) == pytest.approx(expected, abs=1e-11)

    def test_dual_route_lattice(self):
        lattice = [0.0, 0.5, 1.0, 2.5, 7.0]
        for gamma in (0.0, 0.2, 0.5):
            for k in lattice:
                for k1 in lattice:
                    via_jm = j_m(3, k, k1, gamma) - SQRT_PI * t_n(3, k) * j_m(
                        1, 0.0, k1, gamma
                    )
                    assert s_kernel(k, k1, gamma) == pytest.approx(
                        via_jm, abs=1e-10
                    )


class TestApplyKernel:
    def test_zero_function_maps_to_zero(self):
        grid = standard_grid(SPEC)
        zero = SpectralFunction(
            nodes=grid, values=np.zeros_like(grid), tail_exponent=2, label="zero"
        )
        out = apply_kernel(zero, 0.3, SPEC)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-14)

    def test_homogeneous_scaling(self):
        phi = phi_seed()
        scaled = SpectralFunction(
            nodes=phi.nodes.copy(), values=3.0 * phi.values,
            tail_exponent=4, label="phi_0",
        )
        a = apply_kernel(phi, 0.25, SPEC)
        b = apply_kernel(scaled, 0.25, SPEC)
        np.testing.assert_allclose(b.values, 3.0 * a.values, atol=1e-9)

    def test_label_advances(self):
        out = apply_kernel(phi_seed(), 0.0, SPEC)
        assert out.label == "phi_1"
        assert out.tail_exponent == 2

    def test_seed_image_at_origin_against_brute_force(self):
        """phi_1(0) cross-checked with a from-scratch scipy computation."""

        def t_scipy(n, k):
            val, _ = quad(
                lambda t: math.exp(-t * t) * t**n / (1.0 + k * k * t * t),
                0.0, 8.0, epsabs=1e-14, epsrel=1e-12, limit=200,
            )
            return 2.0 / math.sqrt(math.pi) * val

        def integrand(k1):
            s = t_scipy(3, k1) - t_scipy(1, k1)  # S(0, k1) at gamma=0
            phi = math.sqrt(math.pi) / 2.0 * t_scipy(3, k1) - t_scipy(4, k1)
            return s * phi / t_scipy(2, k1)

        head, _ = quad(integrand, 0.0, 400.0, epsabs=1e-12, epsrel=1e-10,
                       limit=400)
        brute = head / math.pi  # integrand decays like ln^2/k^4: tail < 1e-9
        psi = apply_kernel(phi_seed(), 0.0, SPEC)
        assert psi.values[0] == pytest.approx(brute, abs=2e-8)
        assert psi.values[0] == pytest.approx(0.0178300, abs=2e-7)

    def test_grid_refinement_stability(self):
        spec = SPEC
        grid = standard_grid(spec)
        doubled = np.concatenate([
            np.linspace(0.0, 2.0, 127),
            np.geomspace(2.0, 50.0, 129)[1:],
            np.geomspace(50.0, spec.k_max, 65)[1:],
        ])
        psi = apply_kernel(phi_seed(spec, grid), 0.0, spec)
        psi_fine = apply_kernel(phi_seed(spec, doubled), 0.0, spec)
        scale = np.abs(psi.values).max()
        rel = np.abs(psi_fine(grid) - psi.values).max() / scale
        assert rel < 1e-8

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            apply_kernel(phi_seed(), 1.0, SPEC)

    def test_lockstep_matches_per_node_integrals(self):
        """Every 10th node against its own integral of one kernel column.

        The family contracts all kernel rows in one matrix product, whose
        rounding differs from the one-row product at 4e-16.  S_1 cancels
        where k1 is small against k, so relative to a small node value
        that becomes up to 1.4e-13 (6.6e-12 at the last nodes, ~1e-12 in
        size); the tolerance is therefore relative to the largest value.
        """
        phi = phi_seed()
        gamma = 0.25
        psi = apply_kernel(phi, gamma, SPEC)
        scale = np.abs(psi.values).max()
        t3 = t_n_vec(3, phi.nodes)
        for i in range(0, len(phi.nodes), 10):
            k = float(phi.nodes[i])
            t3k = t3[i]
            row3 = fixed_row(3, k)

            def integrand(k1):
                batch = MomentBatch(k1)
                s_row = batch.against(row3) - SQRT_PI * t3k * batch.t(1)
                return s_row * phi(batch.k) / batch.t(2)

            alone = (1.0 - gamma) * integrate_spectral(
                integrand, SPEC, tail_exponent=2, label=f"node {i}"
            ) / np.pi
            assert psi.values[i] == pytest.approx(alone, rel=0.0, abs=1e-14 * scale)


class TestStandardGrid:
    def test_starts_at_zero_strictly_increasing(self):
        grid = standard_grid(SPEC)
        assert grid[0] == 0.0
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] == SPEC.k_max

    def test_sections(self):
        grid = standard_grid(SPEC)
        assert np.sum(grid <= 2.0) == 64
        assert np.sum((grid > 2.0) & (grid <= 50.0)) == 64
        assert np.sum(grid > 50.0) == 32

    def test_k_max_too_close_to_two_names_k_max(self):
        # accepted by QuadratureSpec, but the 64 nodes on (2, k_max] collide
        spec = QuadratureSpec(k_max=math.nextafter(2.0, 3.0))
        with pytest.raises(ValueError, match="k_max"):
            standard_grid(spec)
