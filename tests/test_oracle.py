import ast
import inspect
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from kramers import oracle
from kramers.oracle import u1_direct, u2_direct
from kramers.quadrature import T_MAX

# The oracle's values pinned to 1e-10.  The J constants are those of
# perfbench/reference.json (the benchmark's verify gate).
PINNED_U1 = {0.15: 0.200780257920851, 0.5: 0.481978455744126}
PINNED_J = (0.011555371521207811, 0.01246592438827681, -0.02402129591449216)
PIN_TOL = 1e-10


class TestHalfLineIntegral:
    """Head in k, far range in ln k, log-power closure: checked on closed
    forms whose leading tails have the closure's (alpha + beta ln k)/k^p
    form."""

    def test_outer_configuration(self):
        def f(k):
            return math.log1p(k * k) / (1.0 + k * k)

        value = oracle._split_integral(f, epsabs=1e-12, epsrel=1e-10)
        assert value == pytest.approx(math.pi * math.log(2.0), abs=1e-9)

    def test_inner_configuration(self):
        def f(k):
            return math.log1p(k * k) / (1.0 + k * k) ** 2

        value = oracle._half_line_integral(
            f, oracle._INNER_SPLIT, oracle._INNER_KMAX, 4, oracle._EPS_ABS, 1e-9
        )
        expected = math.pi / 2.0 * (math.log(2.0) - 0.5)
        assert value == pytest.approx(expected, abs=1e-9)


def _rel(a, b):
    return abs(a - b) / abs(b)


class TestIndependence:
    def test_imports_only_two_constants_from_the_package(self):
        """The oracle shares no numerical machinery with the main path: of
        the package it reads only T_MAX and SQRT_PI."""
        tree = ast.parse(inspect.getsource(oracle))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("kramers") for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("kramers")
            ):
                names.update(a.name for a in node.names)
        assert names == {"T_MAX", "SQRT_PI"}


def _j_misses(pairs):
    """The (n, k1, k2) at which the routed J_n is off the inline one by more
    than 1e-11 relative."""
    return [
        (n, k1, k2) for k1, k2 in pairs for n in (3, 5)
        if _rel(oracle._j_pair(n, k1, k2), oracle._j_inline(n, k1, k2, T_MAX)) > 1e-11
    ]


class TestClosedFormMoments:
    """The closed-form T_n and the partial-fraction J_n checked against the
    oracle's own inline quadrature, so each route keeps an independent
    check."""

    def test_closed_forms_match_inline(self):
        misses = [
            (n, k)
            for k in np.geomspace(oracle._K_CLOSED, oracle._K_HIGH, 40).tolist()
            for n, value in zip((1, 2, 3), oracle._t_closed(k))
            if _rel(value, oracle._j_inline(n, k, 0.0, T_MAX)) > 1e-13
        ]
        assert misses == []

    @pytest.mark.parametrize("factor", [0.9, 1.0 - 1e-12, 1.0, 1.1])
    def test_routes_agree_across_the_crossover(self, factor):
        """Both routes agree on either side of the crossover, and _moments
        takes the closed form from the crossover up."""
        k = oracle._K_CLOSED * factor
        closed = oracle._t_closed(k)
        inline = tuple(oracle._j_inline(n, k, 0.0, T_MAX) for n in (1, 2, 3))
        for a, b in zip(closed, inline):
            assert _rel(a, b) <= 1e-13
        assert oracle._moments(k)[:3] == (closed if factor >= 1.0 else inline)

    def test_partial_fractions_off_diagonal(self):
        """The inline reference has isolated misses of its own: against
        30-digit values it puts J_5(0.2, 100) 1.1e-11 and J_5(55.7, 0.41)
        1.5e-10 off, where the divided difference is within 1e-15."""
        pairs = [(k1, k2) for k1 in (0.2, 0.5, 1.0, 3.0, 10.0, 40.0, 120.0, 1e3)
                 for k2 in (1e-3, 0.05, 0.3, 2.0, 15.0, 120.0)]
        assert _j_misses(pairs) == []

    def test_partial_fractions_just_outside_the_band(self):
        """k2^2 = (1 - band) k1^2, nudged out of the band, either way round:
        where the divided difference cancels most."""
        shrink = math.sqrt(1.0 - oracle._J_BAND * (1.0 + 1e-6))
        pairs = [pair for k in np.geomspace(0.16, 120.0, 12).tolist()
                 for pair in ((k, k * shrink), (k * shrink, k))]
        assert _j_misses(pairs) == []

    def test_diagonal_band(self):
        """Inside the band, down to k1 = k2, J_n is an inline quadrature."""
        pairs = [(k, k * f) for k in (0.2, 1.0, 30.0) for f in (1.0, 1.0 + 1e-8, 1.01)]
        assert _j_misses(pairs) == []

    def test_small_pairs(self):
        """Below the crossover on both sides the divided difference would
        lose ~1/k^2 digits; those pairs stay inline quadratures."""
        assert _j_misses([(1e-4, 3e-4), (1e-3, 0.1), (0.01, 0.14)]) == []


class TestPinnedValues:
    @pytest.mark.parametrize("gamma", sorted(PINNED_U1))
    def test_u1(self, gamma):
        assert abs(u1_direct(gamma) - PINNED_U1[gamma]) <= PIN_TOL

    def test_j_constants(self, oracle_j):
        for value, pinned in zip(oracle_j, PINNED_J):
            assert abs(value - pinned) <= PIN_TOL


class TestMomentCache:
    """u1_direct and j_constants share one bounded cache of the moments at
    each wavenumber; what it holds must not change any value."""

    def test_call_order_does_not_change_bits(self):
        values = {}
        for order in ((0.5, 0.15), (0.15, 0.5)):
            oracle._moments.cache_clear()
            values[order] = {gamma: u1_direct(gamma) for gamma in order}
        assert values[(0.5, 0.15)] == values[(0.15, 0.5)]
        for gamma, value in values[(0.5, 0.15)].items():
            assert abs(value - PINNED_U1[gamma]) <= PIN_TOL

    def test_cache_is_bounded(self):
        assert oracle._moments.cache_info().maxsize is not None

    def test_values_are_python_floats(self, oracle_j):
        """No scipy scalar leaks into the cache or the results."""
        for k in (0.01, oracle._K_CLOSED, 3.0):
            assert [type(v) for v in oracle._moments(k)] == [float] * 4
        assert type(u1_direct(0.25)) is float
        assert [type(v) for v in oracle_j] == [float] * 3

    def test_threads_agree(self):
        """Threads that fill the cold cache at once get the same floats as a
        later warm call, and no QUADPACK message escapes as a warning."""
        oracle._moments.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with ThreadPoolExecutor(max_workers=3) as pool:
                    values = list(pool.map(u1_direct, [0.25] * 3, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert values == [u1_direct(0.25)] * 3
        assert [str(w.message) for w in caught] == []


class TestU1Direct:
    def test_rarefied_value(self):
        assert u1_direct(0.0) == pytest.approx(0.1405, abs=5e-4)
        assert u1_direct(0.0) == pytest.approx(0.14052350, abs=2e-7)

    def test_half_density_value(self):
        expected = (0.1405 + 0.2009 * 0.5) / 0.5
        assert u1_direct(0.5) == pytest.approx(expected, abs=2e-3)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6, 0.9])
    def test_positive_across_density(self, gamma):
        assert u1_direct(gamma) > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            u1_direct(1.0)


class TestJConstants:
    def test_first_two_reference_values(self, oracle_j):
        j0, j1, _ = oracle_j
        assert j0 == pytest.approx(0.0116, abs=5e-4)
        assert j1 == pytest.approx(0.0125, abs=5e-4)

    def test_kernel_structure_identity(self, oracle_j):
        """The moment recurrences force S_2 = -S_1/k^2, hence J_2 = -(J_0+J_1).

        Off the diagonal band the partial-fraction J_3 and J_5 obey that
        recurrence by construction, so this checks how J_0..J_2 are
        assembled from the shared inner integrals A and B.
        """
        j0, j1, j2 = oracle_j
        assert j2 == pytest.approx(-(j0 + j1), abs=1e-5)

    def test_computed_once_per_process(self, oracle_j, monkeypatch):
        """A second call returns the first call's tuple and integrates
        nothing: no QUADPACK call runs again."""
        calls = []
        quad = oracle.quad

        def counted(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(oracle, "quad", counted)
        assert oracle.j_constants() is oracle_j
        assert calls == []
        assert oracle.j_constants.cache_info().maxsize == 1


class TestU2Direct:
    def test_rarefied_value(self, oracle_j):
        assert u2_direct(0.0, j_values=oracle_j) == pytest.approx(
            -0.0116, abs=5e-4
        )

    def test_assembly_arithmetic(self, oracle_j):
        j0, j1, j2 = oracle_j
        gamma = 0.2
        expected = -(j0 + gamma * j1 + gamma * gamma * j2) / (1.0 - gamma) ** 2
        assert u2_direct(gamma, j_values=oracle_j) == pytest.approx(
            expected, rel=1e-14
        )


class TestCrossPathEquivalence:
    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5])
    def test_u1(self, gamma, series_cache):
        series = series_cache(gamma, 1)
        assert abs(series.u_coeffs[1] - u1_direct(gamma)) <= 1e-5

    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    def test_u2(self, gamma, series_cache, oracle_j):
        series = series_cache(gamma, 2)
        direct = u2_direct(gamma, j_values=oracle_j)
        assert abs(series.u_coeffs[2] - direct) <= 1e-5

    def test_sign_convention_unique(self, series_cache, oracle_j):
        """Flipping the iteration sign flips U_2 and misses by >100x tolerance."""
        series = series_cache(0.0, 2)
        flipped = -u2_direct(0.0, j_values=oracle_j)
        assert abs(series.u_coeffs[2] - flipped) > 100 * 1e-5
