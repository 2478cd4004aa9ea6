import dataclasses
import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from kramers import kernels, neumann, quadrature
from kramers.kernels import apply_kernel
from kramers.neumann import (
    MAX_ORDER,
    SeriesExpansion,
    _order,
    _pole_integrand,
    build_series,
    pole_residual,
    u0,
)
from kramers.quadrature import (
    K_MAX, TailEstimateDominatesError, _log_tail, _tail_points,
    integrate_spectral,
)
from kramers.special_integrals import MomentBatch, phi0, t_n
from kramers.verification import run_checks

SQPI = math.sqrt(math.pi)


class TestU0:
    def test_closed_form(self):
        assert u0() == SQPI / 2.0
        assert u0() == pytest.approx(0.886227, abs=1e-6)

    def test_equals_moment_ratio(self):
        assert u0() == pytest.approx(t_n(2, 0.0) / t_n(1, 0.0), rel=1e-15)


class TestUCoefficient:
    def test_first_order_value(self, series_cache):
        u1 = series_cache(0.0, 1).u_coeffs[1]
        assert u1 == pytest.approx(0.1405, abs=5e-4)
        # frozen from three independent quadrature routes
        assert u1 == pytest.approx(0.14052350, abs=2e-7)

    def test_density_slope(self, series_cache):
        """(1-gamma) U_n is affine in gamma: the kernel is (1-gamma) S_1, so
        every U_n integrates the gamma-0 iterates and is affine to
        rounding, not to quadrature error."""
        gammas = np.array([0.0, 0.1, 0.25, 0.5])
        scaled = np.array([
            [(1.0 - g) * u for u in series_cache(g, 4).u_coeffs[1:]]
            for g in gammas
        ])
        chord = scaled[0] + np.outer(gammas, (scaled[-1] - scaled[0]) / 0.5)
        np.testing.assert_allclose(scaled, chord, rtol=0, atol=1e-15)
        slope = np.polyfit(gammas, scaled[:, 0], 1)[0]
        assert slope == pytest.approx(0.2009, abs=1e-3)

    def test_second_order_value(self, series_cache):
        u2 = series_cache(0.0, 2).u_coeffs[2]
        assert u2 == pytest.approx(-0.0116, abs=5e-4)

    def test_domain(self):
        """Every order divides by (1 - gamma): gamma = 1, negative gamma and
        NaN are refused before any work."""
        for gamma in (1.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="supported domain"):
                build_series(gamma, 1)


class TestEn:
    def test_seed_density_at_origin(self, series_cache):
        e_0 = series_cache(0.0, 1).e_funcs[0]
        assert e_0.values[0] == pytest.approx(-0.5, abs=1e-12)

    def test_density_scaling(self, series_cache):
        """A series holds the gamma-free E_0 = phi_0/T_2; its density at
        gamma 0.5 is E_0/(1-gamma), -1 at the origin."""
        series = series_cache(0.5, 4)
        assert series.e_funcs[0] is series_cache(0.0, 1).e_funcs[0]
        assert series.e_funcs[0].values[0] / (1.0 - series.gamma) == pytest.approx(
            -1.0, abs=1e-12)

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
            series = build_series(gamma, 0)
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
            build_series(0.0, 5)
        with pytest.raises(ValueError):
            build_series(0.0, -1)

    @pytest.mark.parametrize("order", [2.0, True, np.int64(2), "2"])
    def test_order_must_be_an_int(self, order):
        """2.0 ended in an unnamed TypeError from range, and True built a
        series whose order was True."""
        message = f"order must be an int in [0, 4], got {order!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_series(0.1, order)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            build_series(0.96, 0)

    def test_no_warning_past_half(self):
        """build_series warned above gamma 0.5 that convergence in q was
        only evidenced at small gamma; the iteration is free of gamma."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_series(0.6, 2)

    @pytest.mark.parametrize("gamma", [0.5, 0.95])
    def test_q_series_ratio_free_of_gamma(self, gamma):
        """U_4/U_3 is -0.0965 at gamma 0, -0.0972 at 0.5 and -0.0974 at
        0.95: the series in q converges at one rate at every gamma, as the
        gamma-free c_n and d_n imply."""
        base = build_series(0.0, 4).u_coeffs
        u = build_series(gamma, 4).u_coeffs
        assert u[4] / u[3] == pytest.approx(base[4] / base[3], rel=0.02)

    def test_diagnostics_present(self, series_cache):
        series = series_cache(0.0, 2)
        assert len(series.diagnostics) == 3
        assert series.diagnostics[0] == {"order": 0, "u_tail": 0.0}
        assert sorted(series.diagnostics[1]) == ["order", "u_tail"]

    def test_diagnostics_bound_every_order(self, series_cache):
        """u_tail is U_n's fitted tail part."""
        gamma = 0.25
        series = series_cache(gamma, 4)
        for n in range(1, 5):
            diag = series.diagnostics[n]
            u_n = series.u_coeffs[n]
            assert diag["order"] == n
            pole = _pole_integrand((series.phi_funcs[n - 1],), np.zeros(1))
            index = np.zeros(2, dtype=int)  # the one density
            # at both tail points I_n(0), weighted by J_1(0, k1), and C_n
            i_n, c_n = (pole(_tail_points(K_MAX), index, index + j) for j in (0, 1))
            samples = gamma * t_n(1, 0.0) * c_n + (1.0 - gamma) * i_n
            tail = _log_tail(samples, K_MAX, 1.0, "tail")[0]
            scale = SQPI * (1.0 - gamma)
            assert diag["u_tail"] == pytest.approx(tail / scale, rel=1e-14)
            assert abs(diag["u_tail"]) < 0.1 * abs(u_n)

    def test_shared_table_changes_nothing(self, series_cache):
        """phi_n is apply_kernel of phi_{n-1}, bit for bit, though
        apply_kernel builds its own table, and a series at any gamma holds
        that same phi_n; U_n is bit-identical to a series built only up to
        order n."""
        gamma = 0.25
        series, base = series_cache(gamma, 4), series_cache(0.0, 4)
        for n in range(1, 5):
            alone = apply_kernel(series.phi_funcs[n - 1])
            np.testing.assert_array_equal(series.phi_funcs[n].values, alone.values)
            assert series.phi_funcs[n] is base.phi_funcs[n]
            assert series.u_coeffs[n] == series_cache(gamma, n).u_coeffs[n]

    @pytest.mark.parametrize(
        "k_max, gamma, order, label",
        [
            (8.0, 0.3, 1, "U_1 pole-elimination integral"),
            (15.0, 0.3, 2, "U_2 pole-elimination integral"),
            (30.0, 0.3, 3, "U_3 pole-elimination integral"),
            (15.0, 0.0, 2, "phi_2 grid node k=15"),
        ],
    )
    def test_u_guarded_before_phi(self, k_max, gamma, order, label):
        """U_n's 10% tail guard fires before phi_n's, so a short k range
        names the first integral whose tail dominates."""
        with pytest.raises(TailEstimateDominatesError) as info:
            build_series(gamma, order, k_max)
        assert info.value.label == label

    def test_guard_near_its_threshold(self):
        """At k_max 30 and gamma 0.3 U_2's fitted tail is 9.3% of its head,
        so order 2 builds, and U_3's is 10.4%, so order 3 names U_3."""
        series = build_series(0.3, 2, 30.0)
        u_2, u_tail = series.u_coeffs[2], series.diagnostics[2]["u_tail"]
        assert 0.092 < abs(u_tail / (u_2 + u_tail)) < 0.094
        with pytest.raises(TailEstimateDominatesError) as info:
            build_series(0.3, 3, 30.0)
        assert info.value.label == "U_3 pole-elimination integral"
        assert ("tail estimate -2.995e-04 exceeds 10% of the truncated part "
                "-2.866e-03") in str(info.value)

    def test_short_range_that_builds(self):
        series = build_series(0.0, 4, 20.0)
        assert series.phi_funcs[4].k_max == 20.0

    def test_expansion_invariant(self):
        with pytest.raises(ValueError, match="sqrt"):
            SeriesExpansion(
                gamma=0.0, order=0, u_coeffs=(0.5,), phi_funcs=(),
                e_funcs=(), diagnostics=(),
            )

    @pytest.mark.parametrize("field", ["phi_funcs", "e_funcs", "diagnostics"])
    def test_expansion_lengths_match_order(self, series_cache, field):
        """A short tuple would make weighted sums drop orders silently."""
        built = series_cache(0.0, 2)
        parts = {
            "phi_funcs": built.phi_funcs, "e_funcs": built.e_funcs,
            "diagnostics": built.diagnostics,
        }
        parts[field] = parts[field][:1]
        with pytest.raises(ValueError, match=f"{field} must hold orders"):
            SeriesExpansion(
                gamma=0.0, order=2, u_coeffs=built.u_coeffs, **parts
            )


def _series_arrays(series):
    return (
        series.u_coeffs,
        [phi.values for phi in series.phi_funcs],
        [e.values for e in series.e_funcs],
        series.diagnostics,
    )


def _assert_same_series(a, b):
    a, b = _series_arrays(a), _series_arrays(b)
    assert a[0] == b[0] and a[3] == b[3]
    for got, want in zip(a[1] + a[2], b[1] + b[2]):
        np.testing.assert_array_equal(got, want)


class TestGridPartsCache:
    """build_series takes the parts of its grid, the kernel table and the
    gamma-free phi_n, E_n and phi_n/T_2 of every order, from one bounded
    per-process cache, neumann._order."""

    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    def test_cold_build_equals_warm_build(self, gamma):
        _order.cache_clear()
        cold = [build_series(gamma, order) for order in range(1, 5)]
        warm = [build_series(gamma, order) for order in range(1, 5)]
        for a, b in zip(cold, warm):
            _assert_same_series(a, b)

    def test_cached_arrays_are_read_only(self):
        for n in range(MAX_ORDER + 1):
            table, phis, es, v, parts, t2 = _order(K_MAX, n)
            phi, e_n = phis[n], es[n]
            arrays = (table.k, table.w_k, table.t1, table.t2,
                      table.s, phi.nodes, phi.values, phi.c, e_n.values,
                      e_n.c, t2)
            if n == MAX_ORDER:
                # phi_{n+1} and U_{n+1} are never built, so neither are their inputs
                assert v is None and parts is None
            else:
                arrays += (v,)
                # the parts of U_{n+1} are four immutable floats
                assert len(parts) == 4 and all(type(p) is float for p in parts)
            for arr in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0

    def test_distinct_k_max_get_distinct_parts(self):
        small, large = _order(400.0, 0), _order(800.0, 0)
        assert small[0].k_max == 400.0 and large[0].k_max == 800.0
        assert small[1][0].k_max == 400.0 and large[1][0].k_max == 800.0
        assert _order(400.0, 0) is small
        assert _order(400.0, 1)[0] is small[0]
        series = build_series(0.0, 1, 400.0)
        assert series.phi_funcs[0].nodes is small[1][0].nodes

    def test_threads_build_the_same_series(self):
        _order.cache_clear()
        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(lambda _: build_series(0.25, 3), range(2))
        _assert_same_series(first, second)

    def test_warm_build_makes_no_table(self, monkeypatch):
        """The first series on a grid makes its one kernel table, and new
        orders reuse it; a series at a new gamma then makes no table,
        applies no kernel, fits no spline (so makes no SpectralFunction, whose
        constructor fits one), samples no density and fits no tail model:
        U_n comes from the cached parts, and phi_n and E_n are the cached
        ones (scaling them made 9 weighted sums at order 4)."""
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for module, name in ((neumann, "_KernelTable"), (neumann, "_apply_table"),
                             (kernels, "_quintic_coefficients"),
                             (kernels._KernelTable, "density"),
                             (quadrature, "_log_model")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        _order.cache_clear()
        build_series(0.1, 2)
        build_series(0.3, 4)
        assert calls.count("_KernelTable") == 1
        assert calls.count("_apply_table") == 4
        # orders 0..3 sample their density for the next order; order 4 does not
        assert calls.count("density") == MAX_ORDER
        calls.clear()
        series = build_series(0.37, 4)
        assert calls == []
        assert series.u_coeffs == build_series(0.37, 4).u_coeffs

    def test_warm_build_calls_no_numpy(self, monkeypatch):
        """A warm series forms each U_n from the cached floats by float
        arithmetic: with numpy gone from neumann and quadrature it builds
        the same coefficients and diagnostics, bit for bit."""
        expected = build_series(0.37, MAX_ORDER)

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"a warm build called np.{name}")

        monkeypatch.setattr(neumann, "np", NoNumpy())
        monkeypatch.setattr(quadrature, "np", NoNumpy())
        series = build_series(0.37, MAX_ORDER)
        # a float's repr round-trips its bits, and tells -0.0 from 0.0
        assert repr(series.u_coeffs) == repr(expected.u_coeffs)
        assert repr(series.diagnostics) == repr(expected.diagnostics)

    def test_cold_build_batch_count(self, monkeypatch):
        """A cold build of orders 0..4 makes 13 MomentBatches: 11 for the
        kernel table, one for phi_0 and one for T_2 at the grid nodes.  T_2
        once per order and T_3, T_4 of phi_0 from two batches made 18."""
        batches, init = [], MomentBatch.__init__

        def counted(batch, k):
            init(batch, k)
            batches.append(batch)

        monkeypatch.setattr(MomentBatch, "__init__", counted)
        _order.cache_clear()
        build_series(0.0, MAX_ORDER)
        assert len(batches) == 13
        assert all(_order(K_MAX, n)[5] is _order(K_MAX, 0)[5]
                   for n in range(MAX_ORDER + 1))

    def test_every_gamma_holds_the_cached_densities(self):
        """A series at any gamma holds the cached, immutable, gamma-free
        phi_n and E_n themselves, as the cached tuples of its order."""
        for gamma in (0.0, 0.3):
            for order in range(MAX_ORDER + 1):
                series = build_series(gamma, order)
                assert series.phi_funcs is _order(K_MAX, order)[1]
                assert series.e_funcs is _order(K_MAX, order)[2]
                for n in range(order + 1):
                    assert series.phi_funcs[n] is _order(K_MAX, n)[1][n]
                    assert series.e_funcs[n] is _order(K_MAX, n)[2][n]

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.25, 0.5, 0.9])
    def test_u_equals_the_combined_integrand(self, gamma):
        """U_n from the cached parts of c_n and d_n equals one K15 sum and
        one fitted tail of the combined integrand
        (gamma/sqrt(pi) + (1-gamma) T_1) phi_{n-1}/T_2 on the table."""
        series = build_series(gamma, MAX_ORDER)
        table = _order(K_MAX, 0)[0]
        for n in range(1, MAX_ORDER + 1):
            v = _order(K_MAX, n - 1)[3]
            values = (gamma / SQPI + (1.0 - gamma) * table.t1) * v
            head = table.w_k @ values
            tail = _log_tail(values[-2:], K_MAX, head, "combined")[0]
            expected = -(head + tail) / (SQPI * (1.0 - gamma))
            assert series.u_coeffs[n] == pytest.approx(expected, rel=1e-15, abs=0)

    def test_one_module_level_cache(self):
        cached = [name for name, obj in vars(neumann).items()
                  if hasattr(obj, "cache_info")]
        assert sorted(cached) == ["_order", "_pole_parts"]
        assert _order.cache_info().maxsize == 4 * (MAX_ORDER + 1)
        assert neumann._pole_parts.cache_info().maxsize == 32


class TestRecordedSeries:
    """Order-4 series recorded from the kernel table.

    U_1..U_4 to 1e-12 relative; the iterate and density of order 4 at every
    16th node to 1e-12 of their largest value (the last nodes hold values
    near 1e-13), recorded at gamma 0.25 as (1-gamma)^4 phi_4 and
    E_4/(1-gamma) of the gamma-free phi_4 and E_4 a series holds.  These
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
        for recorded, values in (
            (self.PHI_4, (1.0 - gamma) ** 4 * series.phi_funcs[4].values),
            (self.E_4, series.e_funcs[4].values / (1.0 - gamma)),
        ):
            expected = np.array(recorded[gamma])
            np.testing.assert_allclose(
                values[::16], expected, rtol=0, atol=1e-12 * np.abs(values).max(),
            )


class TestPoleResidual:
    def test_zero_order_closed_form(self, series_cache):
        series = series_cache(0.0, 1)
        for k in (1e-3, 0.1, 1.0):
            expected = -k * k * phi0(k)
            assert pole_residual(series, k)[0] == pytest.approx(
                expected, abs=1e-12
            )

    def test_first_order_quadratic_scaling(self, series_cache):
        series = series_cache(0.0, 2)
        ks = np.array([1e-3, 2e-3, 4e-3])
        vals = np.abs(pole_residual(series, ks)[1])
        slope = np.polyfit(np.log(ks), np.log(vals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_integrates_to_the_series_k_max(self):
        """B_n integrates to the k_max of the series it checks: at k_max 400
        it is its gamma-free parts I_n(k) and C_n written out to 400 and
        combined at the series' gamma, bit for bit."""
        gamma, k = 0.25, 0.3
        series = build_series(gamma, 2, 400.0)
        for n in (1, 2):
            pole = _pole_integrand((series.phi_funcs[n - 1],), np.array([k]))
            i_n, c_n = integrate_spectral(
                pole, 400.0, params=(np.zeros(2, dtype=int), np.array([0, 1]))
            )
            expected = (series.u_coeffs[n] * t_n(1, k)
                        + (gamma * t_n(1, k) * c_n + (1.0 - gamma) * i_n)
                        / ((1.0 - gamma) * np.pi))
            assert pole_residual(series, k)[n] == expected

    #: B_0..B_2 at the pole group's wavenumbers (1e-3, 2e-3, 4e-3), as the
    #: per-order call of pole_residual gave them
    ROWS = {
        (0.0, K_MAX): [
            [2.499991248461342e-07, 9.999860002829486e-07, 3.999776014562695e-06],
            [-1.7841296287568476e-08, -7.13305456229163e-08, -2.852780490308904e-07],
            [1.6527770835966793e-09, 6.6101084189584824e-09, 2.6438570740680567e-08],
        ],
        (0.25, K_MAX): [
            [2.499991248461342e-07, 9.999860002829486e-07, 3.999776014562695e-06],
            [-1.7848213212934283e-08, -7.133746252052653e-08, -2.852849658452339e-07],
            [1.6533715473110444e-09, 6.610702879203401e-09, 2.6439165195721315e-08],
        ],
        (0.25, 400.0): [
            [2.499991248461342e-07, 9.999860002829486e-07, 3.999776014562695e-06],
            [-1.7843605509826332e-08, -7.133233478895384e-08, -2.8527775813858014e-07],
            [1.6535586615240572e-09, 6.610688510488849e-09, 2.6438344928256252e-08],
        ],
    }

    @pytest.mark.parametrize("gamma, k_max", [(0.0, K_MAX), (0.25, K_MAX), (0.25, 400.0)])
    def test_family_equals_its_scalar_calls(self, gamma, k_max):
        """One call gives B_0..B_2 as rows, the n >= 1 members integrated
        as one family on shared points; each value is its recorded one and
        its scalar-k call's, bit for bit."""
        series = build_series(gamma, 2, k_max)
        ks = np.array([1e-3, 2e-3, 4e-3])
        family = pole_residual(series, ks)
        assert family.tolist() == self.ROWS[gamma, k_max]
        for j, k in enumerate(ks):
            scalar = pole_residual(series, float(k))
            assert scalar.shape == (3,)
            assert (family[:, j] == scalar).all()

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_no_wavenumber_integrates_nothing(self, monkeypatch, series_cache, shape):
        """An empty k gives empty rows and makes no quadrature call; it
        integrated the C_n family of the series for no wavenumber."""
        series = series_cache(0.0, 2)

        def no_integral(*args, **kwargs):
            raise AssertionError("pole_residual integrated for no wavenumber")

        monkeypatch.setattr(neumann, "_integrate_spectral_detail", no_integral)
        neumann._pole_parts.cache_clear()
        assert pole_residual(series, np.empty(shape)).shape == (3,) + shape

    def test_bad_entries_named(self, series_cache):
        series = series_cache(0.0, 2)
        with pytest.raises(ValueError, match="k=nan"):
            pole_residual(series, [[1e-3], [math.nan]])

    def test_warm_pole_group_is_one_family_per_series(self, monkeypatch):
        """A cold pole group integrates one family for both series, which
        share the gamma-free parts of their B_n, on one MomentBatch per
        sweep; a warm one makes no integral.  Two families, one per series
        with gamma in the integrand, made 2,074 batch rows; one integral per
        (n, k) made 12 calls and 7,674 rows."""
        run_checks(only=("pole",))  # fill the T_n cache and the series
        calls, rows = [], []
        original, init = neumann._integrate_spectral_detail, MomentBatch.__init__

        def counted_call(*args, **kwargs):
            calls.append(kwargs["params"])
            return original(*args, **kwargs)

        def counted_batch(batch, k):
            init(batch, k)
            rows.append(len(batch.k))

        monkeypatch.setattr(neumann, "_integrate_spectral_detail", counted_call)
        monkeypatch.setattr(MomentBatch, "__init__", counted_batch)
        neumann._pole_parts.cache_clear()
        assert all(r.passed for r in run_checks(only=("pole",)))
        # I_n at 3 wavenumbers and C_n for orders 1 and 2: 8 members
        assert len(calls) == 1 and len(calls[0][0]) == 8
        assert sum(rows) <= 1800
        calls.clear(), rows.clear()
        assert all(r.passed for r in run_checks(only=("pole",)))
        assert calls == [] and rows == []

    def test_warm_pole_group_builds_each_row_once(self, monkeypatch):
        """A cold pole group builds the J_1 row of each of its 3 wavenumbers
        once, for both series, in 13 integrand evaluations, and a warm one
        builds none; one family per series built 6 in 18 evaluations, and
        built again on every sweep, 54."""
        run_checks(only=("pole",))  # fill the T_n cache and the series
        rows, sweeps = [], []
        original, evaluate = neumann.fixed_row, quadrature._eval_batch

        def counted_row(n, k):
            rows.append((n, k))
            return original(n, k)

        def counted_sweep(f, x, label):
            sweeps.append(x.size)
            return evaluate(f, x, label)

        monkeypatch.setattr(neumann, "fixed_row", counted_row)
        monkeypatch.setattr(quadrature, "_eval_batch", counted_sweep)
        neumann._pole_parts.cache_clear()
        assert all(r.passed for r in run_checks(only=("pole",)))
        assert len(rows) == 3
        assert len(sweeps) <= 13
        rows.clear(), sweeps.clear()
        assert all(r.passed for r in run_checks(only=("pole",)))
        assert rows == [] and sweeps == []

    def test_cached_parts_do_not_hide_a_wrong_u(self):
        """A series whose U_1 is 1e-6 off shares the cached gamma-free
        parts of the series it was copied from, yet its B_1 keeps the
        constant the wrong U_1 leaves, and fails the k^2 check that the
        unperturbed series passes."""
        ks = np.array([1e-3, 2e-3, 4e-3])
        series = build_series(0.25, 2)
        u = list(series.u_coeffs)
        u[1] += 1e-6
        wrong = dataclasses.replace(series, u_coeffs=tuple(u))
        neumann._pole_parts.cache_clear()
        slopes = []
        for s in (series, wrong):
            b_1 = np.abs(pole_residual(s, ks)[1])
            slopes.append(np.polyfit(np.log(ks), np.log(b_1), 1)[0])
        info = neumann._pole_parts.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert abs(slopes[0] - 2.0) < 0.1
        assert abs(slopes[1] - 2.0) > 0.1

    def test_threads_share_the_pole_parts(self, series_cache):
        """Two threads that miss on one key at once get the same values as
        one thread alone."""
        ks = np.array([1e-3, 2e-3, 4e-3])
        both = [series_cache(0.0, 2), series_cache(0.25, 2)]
        neumann._pole_parts.cache_clear()
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda s: pole_residual(s, ks), both))
        neumann._pole_parts.cache_clear()
        for s, got in zip(both, threaded):
            np.testing.assert_array_equal(got, pole_residual(s, ks))

    def test_pole_parts_are_read_only(self, series_cache):
        series = series_cache(0.0, 2)
        pole_residual(series, 1e-3)
        phis = (series.phi_funcs[0], series.phi_funcs[1])
        for arr in neumann._pole_parts(phis, (1e-3,)):
            assert arr.shape == (2, 2)
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0

    def test_short_range_names_u_before_b(self):
        """At k_max 20 U_2's tail guard fires while the pole group builds
        its series; at k_max 50 the group passes, though the constant part
        C_n alone has a dominant tail there: only the gamma combination is
        guarded."""
        with pytest.raises(TailEstimateDominatesError) as info:
            run_checks(20.0, only=("pole",))
        assert info.value.label == "U_2 pole-elimination integral"
        assert all(r.passed for r in run_checks(50.0, only=("pole",)))
        phis = build_series(0.0, 2, 50.0).phi_funcs[:2]
        value, tail = neumann._pole_parts(phis, (1e-3, 2e-3, 4e-3))
        c_2, c_2_tail = value[1, -1], tail[1, -1]
        assert abs(c_2_tail) > 0.1 * abs(c_2 - c_2_tail)

    def test_nan_wavenumber_named(self, series_cache):
        for order in (0, 1):
            with pytest.raises(ValueError, match="k=nan"):
                pole_residual(series_cache(0.0, order), math.nan)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("k, shown", [(2e4, "20000.0"), (1e8, "100000000.0"),
                                          (math.inf, "inf")])
    def test_wavenumber_above_the_limit_named(self, series_cache, order, k, shown):
        """Past k = 16384 the moments lose their knee; these were accepted."""
        message = re.escape(f"wavenumber must be in [0, 16384], got k={shown}")
        with pytest.raises(ValueError, match=message):
            pole_residual(series_cache(0.0, order), [1e-3, k])
