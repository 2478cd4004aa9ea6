import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PPoly, make_interp_spline

from kramers.kernels import (
    SpectralFunction,
    _KernelTable,
    _apply_table,
    apply_kernel,
    s_kernel,
    standard_grid,
)
from kramers.neumann import build_series
from kramers.quadrature import (
    K_MAX, TailEstimateDominatesError, _log_tail, _tail_points,
)
from kramers.special_integrals import (
    SQRT_PI, MomentBatch, fixed_row, j_n, phi0_vec, t_n, t_n_vec,
)



def phi_seed(grid=None):
    grid = standard_grid() if grid is None else grid
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

    def test_compares_and_hashes_by_identity(self):
        """Two records on the same nodes raised numpy's ambiguous truth
        value on ==, and hash() a TypeError."""
        a, b = phi_seed(), phi_seed()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_read_only_polynomial(self):
        """One quintic per knot interval, whose breakpoints are the nodes."""
        f = phi_seed()
        assert f.c.shape == (6, len(f.nodes) - 1)
        with pytest.raises(AttributeError):
            f.c = None
        with pytest.raises(ValueError):
            f.c[0, 0] = 1.0
        with pytest.raises(ValueError):
            f.nodes[1] = 0.5

    def test_inputs_are_copied_not_frozen(self, series_cache):
        """The caller's writable arrays stay writable and the record's copies
        do not follow them; a read-only input, the grid the densities of a
        series share, is shared and not copied."""
        grid = standard_grid()
        values = phi0_vec(grid)
        f = SpectralFunction(nodes=grid, values=values, label="phi_0")
        grid[0], values[0] = -1.0, 7.0
        assert f.nodes[0] == 0.0 and f.values[0] != 7.0
        for arr in (f.nodes, f.values, f.c):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        series = series_cache(0.0, 2)
        nodes = series.e_funcs[0].nodes
        assert series.e_funcs[1].nodes is nodes and series.phi_funcs[0].nodes is nodes
        assert not nodes.flags.writeable
        again = SpectralFunction(nodes=nodes, values=series.e_funcs[0].values, label="E")
        assert again.nodes is nodes and again.values is series.e_funcs[0].values

    def test_evaluation_is_ppoly_to_the_bit(self):
        """c comes from PPoly.from_spline, without its empty end intervals;
        evaluating it gives the values of a PPoly on (c, nodes) bit for bit,
        at random points, every node, 0 and k_max, as arrays and as
        scalars, and those of the spline itself to rounding."""
        f = phi_seed()
        ppoly = PPoly.construct_fast(f.c, f.nodes)
        rng = np.random.default_rng(5)
        k = np.concatenate([rng.uniform(0.0, f.k_max, 20000), f.nodes,
                            [0.0, f.k_max], rng.uniform(0.0, 2.0, 2000)])
        assert np.array_equal(f(k), ppoly(k))
        assert np.array_equal(f(k.reshape(-1, 2)), ppoly(k).reshape(-1, 2))
        for point in (0.0, 1.25, f.k_max):
            assert f(point) == ppoly(point)
            assert np.ndim(f(point)) == 0
        spline = make_interp_spline(f.nodes, f.values, k=5, bc_type=(
            [(1, 0.0), (3, 0.0)], [(3, 0.0), (4, 0.0)]))
        np.testing.assert_allclose(f(k), spline(k), rtol=0,
                                   atol=1e-14 * np.abs(f.values).max())

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
        """S = J^(3)(k, k1) - sqrt(pi) T_3(k) J^(1)(0, k1), with the adaptive
        J^(m) = J_m + gamma k1^2 J_{m+2} keeping its gamma terms."""
        def j_m(m, k, k1, gamma):
            return j_n(m, k, k1) + gamma * k1 * k1 * j_n(m + 2, k, k1)

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

    def test_arrays_equal_their_scalar_calls(self):
        k, k1 = np.array([0.0, 0.5, 7.0]), np.array([1.3, 0.0, 40.0])
        gamma = np.array([0.0, 0.5])[:, None]
        values = s_kernel(k, k1, gamma)
        assert values.shape == (2, 3)
        expected = [[s_kernel(float(a), float(b), g) for a, b in zip(k, k1)]
                    for g in (0.0, 0.5)]
        assert (values == np.array(expected)).all()
        assert type(s_kernel(0.5, 1.3, 0.2)) is float

    def test_one_member_per_distinct_pair(self, monkeypatch):
        """J_3 is free of gamma: 18 values at 3 distinct (k, k1) integrate 3
        members, not the 6 of the (k, k1) broadcast, and each value is its
        scalar call's, bit for bit."""
        from kramers import kernels

        k = np.array([[0.5, 0.5, 7.0], [0.0, 0.5, 7.0]])
        k1 = np.array([1.3, 1.3, 40.0])
        gamma = np.array([0.0, 0.2, 0.5])[:, None, None]
        members = []
        original = kernels.j_n

        def counted(n, k, k1):
            members.append(np.broadcast(k, k1).size)
            return original(n, k, k1)

        monkeypatch.setattr(kernels, "j_n", counted)
        values = s_kernel(k, k1, gamma)
        assert members == [3]
        monkeypatch.undo()
        assert values.shape == (3, 2, 3)
        for index in np.ndindex(values.shape):
            g, i, j = index
            scalar = s_kernel(float(k[i, j]), float(k1[j]), float(gamma[g, 0, 0]))
            assert values[index] == scalar

    @pytest.mark.parametrize("gamma", [1.5, -0.1, math.nan, [0.2, 1.0]])
    def test_gamma_domain(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            s_kernel(0.5, 0.7, gamma)


class TestApplyKernel:
    def test_zero_function_maps_to_zero(self):
        grid = standard_grid()
        zero = SpectralFunction(
            nodes=grid, values=np.zeros_like(grid), label="zero"
        )
        out = apply_kernel(zero)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-14)

    def test_homogeneous_scaling(self):
        phi = phi_seed()
        scaled = SpectralFunction(
            nodes=phi.nodes.copy(), values=3.0 * phi.values, label="phi_0",
        )
        a = apply_kernel(phi)
        b = apply_kernel(scaled)
        np.testing.assert_allclose(b.values, 3.0 * a.values, atol=1e-9)

    def test_label_advances(self):
        out = apply_kernel(phi_seed())
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
        psi = apply_kernel(phi_seed())
        assert psi.values[0] == pytest.approx(brute, abs=2e-8)
        assert psi.values[0] == pytest.approx(0.0178300, abs=2e-7)

    def test_grid_refinement_stability(self):
        grid = standard_grid()
        doubled = np.concatenate([
            np.linspace(0.0, 2.0, 127),
            np.geomspace(2.0, 50.0, 129)[1:],
            np.geomspace(50.0, K_MAX, 65)[1:],
        ])
        psi = apply_kernel(phi_seed(grid))
        psi_fine = apply_kernel(phi_seed(doubled))
        scale = np.abs(psi.values).max()
        rel = np.abs(psi_fine(grid) - psi.values).max() / scale
        assert rel < 1e-8

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
        psi = apply_kernel(phi)
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
            scale = quad(j3_term, 0.0, K_MAX, epsrel=1e-6, limit=200)[0]
            samples = integrand(_tail_points(K_MAX))
            tail = _log_tail(samples, K_MAX, head, f"node {i}")[0]
            want = (head + tail) / np.pi
            assert psi.values[i] == pytest.approx(
                want, rel=0.0, abs=1e-14 * scale / np.pi
            )

    def test_halved_knot_intervals(self):
        """The fixed rule is converged: halving its intervals moves nothing."""
        phi = phi_seed()
        nodes = phi.nodes
        halved = np.sort(np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1])]))
        psi = apply_kernel(phi)
        table = _KernelTable(halved)
        fine = _apply_table(table, phi, table.density(phi))
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
        grid = standard_grid()
        table = _KernelTable(grid)
        k_tail = _tail_points(K_MAX)
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
        phi_1 = apply_kernel(phi_seed())
        phi_2 = apply_kernel(phi_1)
        psi_1, psi_2 = apply_kernel(phi_1), apply_kernel(phi_2)
        j = 100
        # head + tail vanishes at node j, so there the tail is minus the head
        mixed = SpectralFunction(
            nodes=phi_2.nodes,
            values=phi_2.values - psi_2.values[j] / psi_1.values[j] * phi_1.values,
            label="phi_2",
        )
        with pytest.raises(TailEstimateDominatesError) as err:
            apply_kernel(mixed)
        assert err.value.label == f"phi_3 grid node k={phi_1.nodes[j]:.3g}"


class TestStandardGrid:
    def test_starts_at_zero_strictly_increasing(self):
        grid = standard_grid()
        assert grid[0] == 0.0
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] == K_MAX

    def test_sections(self):
        grid = standard_grid()
        assert np.sum(grid <= 2.0) == 64
        assert np.sum((grid > 2.0) & (grid <= 50.0)) == 64
        assert np.sum(grid > 50.0) == 32

    def test_k_max_too_close_to_two_names_k_max(self):
        # inside (2, 16384], but the 64 nodes on (2, k_max] collide
        with pytest.raises(ValueError, match="k_max=.* too close to 2"):
            standard_grid(math.nextafter(2.0, 3.0))
        # the same for the 32 nodes on (50, k_max], which up to 50.001 crowd
        # into a sliver that gave silent wrong answers (U_1 470 times off at
        # 50 + 1e-9, U_2..U_4 8e-4 off at 50 + 1e-6)
        for k_max in (math.nextafter(50.0, 51.0), 50.0 + 1e-12, 50.0 + 1e-9,
                      50.0 + 1e-6, 50.001):
            with pytest.raises(ValueError, match="k_max=.* too close to 50"):
                standard_grid(k_max)

    def test_smallest_accepted_k_max_past_fifty_is_accurate(self):
        """At the first k_max past the sliver, U_1..U_4 differ from a build
        0.001 further out by the k_max drift alone (3.8e-7 for U_4)."""
        edge = build_series(0.0, 4, math.nextafter(50.001, 51.0)).u_coeffs
        near = build_series(0.0, 4, 50.002).u_coeffs
        np.testing.assert_allclose(edge[1:], near[1:], rtol=1e-6, atol=0.0)
