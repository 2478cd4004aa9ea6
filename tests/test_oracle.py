import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from kramers import oracle
from kramers.oracle import u1_direct, u2_direct

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

        An exact consequence of the kernel's definitions, reproduced here by
        three independent double integrals that share no algebra.
        """
        j0, j1, j2 = oracle_j
        assert j2 == pytest.approx(-(j0 + j1), abs=1e-5)

    def test_computed_once_per_process(self, oracle_j, monkeypatch):
        """A second call returns the first call's tuple and integrates
        nothing: no inner J_n double integral runs again."""
        calls = []
        inline = oracle._j_inline

        def counted(*args):
            calls.append(args)
            return inline(*args)

        monkeypatch.setattr(oracle, "_j_inline", counted)
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
