import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import make_interp_spline

from kramers.kernels import (
    SpectralFunction,
    _KernelTable,
    _apply_table,
    apply_kernel,
    s_kernel,
    standard_grid,
    weighted_sum,
)
from kramers.quadrature import (
    QuadratureSpec, TailEstimateDominatesError, _log_tail, _tail_points,
)
from kramers.special_integrals import (
    SQRT_PI, MomentBatch, fixed_row, j_m, phi0_vec, t_n, t_n_vec,
)

SPEC = QuadratureSpec()


def phi_seed(spec=SPEC, grid=None):
    grid = standard_grid(spec) if grid is None else grid
    return SpectralFunction(
        nodes=grid, values=phi0_vec(grid), label="phi_0"
    )


class TestSpectralFunction:
    def test_requires_zero_start(self):
        with pytest.raises(ValueError):
            SpectralFunction(
                nodes=np.array([0.5, 1.0]), values=np.array([1.0, 2.0]),
                label="bad",
            )

    def test_requires_strict_increase(self):
        with pytest.raises(ValueError):
            SpectralFunction(
                nodes=np.array([0.0, 1.0, 1.0]), values=np.zeros(3),
                label="bad",
            )

    def test_requires_finite_values(self):
        with pytest.raises(ValueError, match="bad"):
            SpectralFunction(
                nodes=np.array([0.0, 1.0]), values=np.array([1.0, np.nan]),
                label="bad",
            )

    def test_requires_eight_nodes(self):
        nodes = np.linspace(0.0, 1.0, 7)
        with pytest.raises(ValueError, match="8 nodes"):
            SpectralFunction(
                nodes=nodes, values=np.ones(7), label="short",
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

    def test_defined_up_to_k_max(self):
        f = phi_seed()
        assert f(f.k_max) == pytest.approx(f.values[-1], rel=1e-13)
        beyond = math.nextafter(f.k_max, math.inf)
        for k in (beyond, np.array([1.0, beyond]), 2.0 * f.k_max):
            with pytest.raises(ValueError, match="phi_0.*k_max"):
                f(k)

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

    def test_deterministic_evaluation(self):
        f = phi_seed()
        probe = np.linspace(0.0, 800.0, 57)
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
            nodes=grid, values=np.zeros_like(grid), label="zero"
        )
        out = apply_kernel(zero, 0.3, SPEC)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-14)

    def test_homogeneous_scaling(self):
        phi = phi_seed()
        scaled = SpectralFunction(
            nodes=phi.nodes.copy(), values=3.0 * phi.values, label="phi_0",
        )
        a = apply_kernel(phi, 0.25, SPEC)
        b = apply_kernel(scaled, 0.25, SPEC)
        np.testing.assert_allclose(b.values, 3.0 * a.values, atol=1e-9)

    def test_label_advances(self):
        out = apply_kernel(phi_seed(), 0.0, SPEC)
        assert out.label == "phi_1"

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

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_heads_match_quadpack_per_knot_interval(self):
        """The table's heads against QUADPACK on every knot interval.

        Both sides share the tail and the moment rule, so the comparison
        is of the heads.  S_1 = J_3 - sqrt(pi) T_3(k) T_1(k1) cancels where
        k1 is small against k (at node 150, k = 367, to 1e-4 of the J_3
        term), and the rounding of that difference differs between one
        point and a batch of them; so the tolerance is relative to the
        integral of the J_3 term, which is 3.4 to 4.6 times the value at
        nodes 0 to 20.
        """
        phi = phi_seed()
        gamma = 0.25
        psi = apply_kernel(phi, gamma, SPEC)
        nodes = phi.nodes
        t3 = t_n_vec(3, nodes)
        for i in (0, 8, 20, 100, 150):
            row3 = fixed_row(3, float(nodes[i]))

            def integrand(k1, i=i, row3=row3):
                batch = MomentBatch(k1)
                s_row = batch.against(row3) - SQRT_PI * t3[i] * batch.t(1)
                return s_row * phi(batch.k) / batch.t(2)

            def j3_term(k1, row3=row3):
                batch = MomentBatch(k1)
                return np.abs(batch.against(row3) * phi(batch.k) / batch.t(2))[0]

            head = sum(
                quad(lambda k1: integrand(k1)[0], a, b, epsabs=0.0,
                     epsrel=1e-13, limit=200)[0]
                for a, b in zip(nodes[:-1], nodes[1:])
            )
            scale = quad(j3_term, 0.0, SPEC.k_max, epsrel=1e-6, limit=200)[0]
            samples = integrand(_tail_points(SPEC.k_max))
            tail = _log_tail(samples, SPEC.k_max, 2, head, f"node {i}")[0]
            want = (1.0 - gamma) * (head + tail) / np.pi
            assert psi.values[i] == pytest.approx(
                want, rel=0.0, abs=1e-14 * (1.0 - gamma) * scale / np.pi
            )

    def test_halved_knot_intervals(self):
        """The fixed rule is converged: halving its intervals moves nothing."""
        phi = phi_seed()
        nodes = phi.nodes
        halved = np.sort(np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1])]))
        psi = apply_kernel(phi, 0.25, SPEC)
        table = _KernelTable(halved)
        fine = _apply_table(table, phi, table.density(phi), 0.25)
        np.testing.assert_array_equal(fine.nodes[::2], nodes)
        scale = np.abs(psi.values).max()
        assert np.abs(fine.values[::2] - psi.values).max() < 1e-14 * scale

    def test_table_ends_with_tail_points(self):
        """The last two table points are the tail points, with weight 0, and
        their moments and rows match a MomentBatch of those points alone.

        A batch of 2 points and the table's last chunk round the rule sums
        differently, and S_1 cancels, so its rows are compared relative to
        their largest entry (elementwise they agree to 6e-15).
        """
        grid = standard_grid(SPEC)
        table = _KernelTable(grid)
        k_tail = _tail_points(SPEC.k_max)
        np.testing.assert_array_equal(table.k[-2:], k_tail)
        np.testing.assert_array_equal(table.w_k[-2:], 0.0)
        batch = MomentBatch(k_tail)
        np.testing.assert_allclose(table.t1[-2:], batch.t(1), rtol=1e-15, atol=0)
        np.testing.assert_allclose(table.t2[-2:], batch.t(2), rtol=1e-15, atol=0)
        rows3 = np.stack([fixed_row(3, float(k)) for k in grid], axis=1)
        s = batch.against(rows3) - np.outer(batch.t(1), SQRT_PI * t_n_vec(3, grid))
        np.testing.assert_allclose(
            table.s[-2:], s, rtol=0, atol=1e-15 * np.abs(s).max()
        )

    def test_tail_dominating_node(self):
        """A density whose image at one node is all tail names that node."""
        phi_1 = apply_kernel(phi_seed(), 0.0, SPEC)
        phi_2 = apply_kernel(phi_1, 0.0, SPEC)
        psi_1, psi_2 = apply_kernel(phi_1, 0.0, SPEC), apply_kernel(phi_2, 0.0, SPEC)
        j = 100
        # head + tail vanishes at node j, so there the tail is minus the head
        mixed = weighted_sum(
            [1.0, -psi_2.values[j] / psi_1.values[j]], [phi_2, phi_1], "phi_2"
        )
        with pytest.raises(TailEstimateDominatesError) as err:
            apply_kernel(mixed, 0.0, SPEC)
        assert err.value.label == f"phi_3 grid node k={phi_1.nodes[j]:.3g}"


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
