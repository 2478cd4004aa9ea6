import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kramers.quadrature import (
    ABS_TOL,
    MAX_SUBDIVISIONS,
    T_MAX,
    BudgetExhaustedError,
    NonFiniteIntegrandError,
    QuadratureSpec,
    TailEstimateDominatesError,
    _log_tail,
    _tail_points,
    integrate_gaussian_weighted,
    integrate_spectral,
)

SQPI = math.sqrt(math.pi)
SPEC = QuadratureSpec()


class TestSpecValidation:
    def test_defaults_valid(self):
        assert (SPEC.rel_tol, SPEC.k_max) == (1e-10, 800.0)
        assert MAX_SUBDIVISIONS == 200
        assert QuadratureSpec(k_max=16384.0).k_max == 16384.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": -1e-3},
            {"k_max": 0.0},
            {"k_max": -1.0},
            {"k_max": 1.0},  # standard_grid's [2, k_max] section runs backwards
            {"k_max": 2.0},
            {"rel_tol": math.inf},
            {"rel_tol": math.nan},
            {"k_max": 16385.0},  # beyond the graded rule's measured range
            {"k_max": math.inf},
            {"k_max": math.nan},
            {"k_max": 1e300},
        ],
    )
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            QuadratureSpec(**kwargs)

    def test_weight_truncation_invariant(self):
        assert math.exp(-T_MAX**2) < ABS_TOL


class TestGaussianWeighted:
    def test_constant_moment(self):
        assert integrate_gaussian_weighted(lambda t: 1.0, SPEC) == pytest.approx(
            SQPI / 2.0, abs=1e-12
        )

    def test_first_moment(self):
        assert integrate_gaussian_weighted(lambda t: t, SPEC) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_second_moment(self):
        assert integrate_gaussian_weighted(lambda t: t * t, SPEC) == pytest.approx(
            SQPI / 4.0, abs=1e-12
        )

    def test_scalar_only_callable(self):
        # integrands are evaluated on whole node batches: no per-point retry
        def f(t):
            return math.cos(float(t))

        with pytest.raises(TypeError):
            integrate_gaussian_weighted(f, SPEC)

    def test_deterministic(self):
        def f(t):
            return t**2 / (1.0 + 4.0 * t**2)

        assert integrate_gaussian_weighted(f, SPEC) == integrate_gaussian_weighted(
            f, SPEC
        )

    def test_non_finite_integrand(self):
        def f(t):
            return np.where(np.asarray(t) > 0.5, np.nan, 1.0)

        with pytest.raises(NonFiniteIntegrandError):
            integrate_gaussian_weighted(f, SPEC, label="bad integrand")

    def test_budget_exhausted_names_label(self):
        # ~1.3e5 periods on [0, T_MAX]: more than MAX_SUBDIVISIONS G7/K15
        # intervals can resolve
        def spiky(t):
            return np.cos(1e5 * np.asarray(t))

        with pytest.raises(BudgetExhaustedError) as err:
            integrate_gaussian_weighted(spiky, SPEC, label="spiky one")
        assert "spiky one" in str(err.value)

    def test_halving_rel_tol_stable(self):
        loose = QuadratureSpec(rel_tol=1e-6)
        tight = QuadratureSpec(rel_tol=5e-7)

        def f(t):
            return t**2 / (1.0 + 2500.0 * t**2)

        a = integrate_gaussian_weighted(f, loose)
        b = integrate_gaussian_weighted(f, tight)
        assert abs(a - b) <= loose.rel_tol * abs(a) + ABS_TOL

    @settings(max_examples=20, deadline=None)
    @given(
        coeffs_f=st.tuples(*[st.floats(-2, 2) for _ in range(3)]),
        coeffs_g=st.tuples(*[st.floats(-2, 2) for _ in range(3)]),
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
    )
    def test_linearity(self, coeffs_f, coeffs_g, a, b):
        def f(t):
            return coeffs_f[0] + coeffs_f[1] * t + coeffs_f[2] * t**2

        def g(t):
            return coeffs_g[0] + coeffs_g[1] * np.sin(t) + coeffs_g[2] * t**2

        combined = integrate_gaussian_weighted(
            lambda t: a * f(t) + b * g(t), SPEC
        )
        split = a * integrate_gaussian_weighted(f, SPEC) + b * integrate_gaussian_weighted(
            g, SPEC
        )
        tol = 2.0 * (SPEC.rel_tol * max(abs(combined), 1.0) + ABS_TOL)
        assert abs(combined - split) <= tol + 1e-13


class TestSpectral:
    def test_lorentzian(self):
        value = integrate_spectral(
            lambda k: 1.0 / (1.0 + np.asarray(k) ** 2), SPEC, tail_exponent=2
        )
        assert value == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_exponential(self):
        value = integrate_spectral(
            lambda k: np.exp(-np.asarray(k)), SPEC, tail_exponent=2
        )
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_t2_against_nested_brute_force(self):
        """Spectral integral of T_2 vs a from-scratch 2-D quadrature."""
        from kramers.special_integrals import t_n_vec

        def t2_scipy(k):
            val, _ = quad(
                lambda t: math.exp(-t * t) * t * t / (1.0 + k * k * t * t),
                0.0, 8.0, epsabs=1e-14, epsrel=1e-12, limit=200,
            )
            return 2.0 / SQPI * val

        head, _ = quad(t2_scipy, 0.0, 3000.0, epsabs=1e-10, epsrel=1e-9,
                       limit=500)
        brute = head + t2_scipy(3000.0) * 3000.0  # pure 1/k^2 tail closure
        value = integrate_spectral(
            lambda k: t_n_vec(2, k), SPEC, tail_exponent=2
        )
        assert value == pytest.approx(brute, abs=5e-6)
        # the analytic value of this particular integral is sqrt(pi)/2
        assert value == pytest.approx(SQPI / 2.0, abs=1e-5)

    def test_doubling_k_max_invariant(self):
        wide = QuadratureSpec(k_max=1600.0)

        def f(k):
            return 1.0 / (1.0 + np.asarray(k) ** 2) ** 1.5

        a = integrate_spectral(f, SPEC, tail_exponent=3)
        b = integrate_spectral(f, wide, tail_exponent=3)
        assert a == pytest.approx(b, abs=1e-9)

    def test_tail_exponent_validated(self):
        with pytest.raises(ValueError):
            integrate_spectral(lambda k: 1.0 / (1.0 + k * k), SPEC, tail_exponent=1)

    def test_tail_dominates(self):
        small = QuadratureSpec(k_max=5.0)
        with pytest.raises(TailEstimateDominatesError) as err:
            integrate_spectral(
                lambda k: 1.0 / (1.0 + np.asarray(k) ** 2),
                small, tail_exponent=2, label="wide lorentzian",
            )
        assert "wide lorentzian" in str(err.value)

    def test_budget_exhausted_member(self):
        def spiky(k):
            return np.cos(1e5 * np.asarray(k))

        seen = []

        def counted(k):
            seen.append(np.size(k))
            return spiky(k)

        with pytest.raises(BudgetExhaustedError) as err:
            integrate_spectral(counted, SPEC, 2, "spiky member")
        assert err.value.label == "spiky member"
        # the capped split lands the integral on exactly MAX_SUBDIVISIONS
        # intervals: 7 initial ones, each split adding one and rating two
        assert sum(seen) == 15 * (2 * MAX_SUBDIVISIONS - 7)

    def test_log_tail_integrates_its_model_per_column(self):
        """Samples of (alpha + beta ln k)/k^p, one column per member, give
        the exact integral of each member past k_max."""
        k_max, p = SPEC.k_max, 3
        k_tail = _tail_points(k_max)[:, None]
        alpha, beta = np.array([1.0, 0.5]), np.array([-2.0, 3.0])
        samples = (alpha + beta * np.log(k_tail)) / k_tail**p
        tail = _log_tail(samples, k_max, p, np.ones(2), ["first", "second"])
        want = [
            quad(lambda k, a=a, b=b: (a + b * math.log(k)) / k**p, k_max, math.inf,
                 epsabs=0.0, epsrel=1e-13)[0]
            for a, b in zip(alpha, beta)
        ]
        np.testing.assert_allclose(tail, want, rtol=1e-12, atol=0)


class TestFamilyFailures:
    """A member of a tail fit with one column per member fails under its
    own label, as the kernel table's tails of all grid nodes do."""

    def test_tail_dominating_member(self):
        k_max = 5.0
        members = [lambda k: np.exp(-k), lambda k: 1.0 / (1.0 + k**2),
                   lambda k: np.exp(-2.0 * k)]
        k_tail = _tail_points(k_max)
        samples = np.stack([f(k_tail) for f in members], axis=1)
        heads = np.array([1.0 - math.exp(-k_max), math.atan(k_max),
                          (1.0 - math.exp(-2.0 * k_max)) / 2.0])
        with pytest.raises(TailEstimateDominatesError) as err:
            _log_tail(
                samples, k_max, 2, heads,
                ["decaying one", "wide lorentzian", "decaying two"],
            )
        assert err.value.label == "wide lorentzian"
        assert "wide lorentzian" in str(err.value)
