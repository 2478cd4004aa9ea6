import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kramers import quadrature
from kramers.kernels import standard_grid
from kramers.neumann import build_series
from kramers.quadrature import (
    ABS_TOL,
    K_MAX,
    MAX_SUBDIVISIONS,
    REL_TOL,
    T_MAX,
    BudgetExhaustedError,
    NonFiniteIntegrandError,
    TailEstimateDominatesError,
    _log_tail,
    _tail_points,
    check_k_max,
    integrate_gaussian_weighted,
    integrate_spectral,
)
from kramers.special_integrals import j_n
from kramers.verification import run_checks

SQPI = math.sqrt(math.pi)


class TestSpecValidation:
    """The one accuracy setting, k_max, is a plain float checked by every
    function that reads it; the tolerances are module constants."""

    def test_defaults_valid(self):
        assert (REL_TOL, K_MAX) == (1e-10, 800.0)
        assert MAX_SUBDIVISIONS == 200
        check_k_max(16384.0)
        assert standard_grid(16384.0)[-1] == 16384.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_max": 0.0},
            {"k_max": -1.0},
            {"k_max": 1.0},  # standard_grid's [2, k_max] section runs backwards
            {"k_max": 2.0},
            {"k_max": 16385.0},  # beyond the graded rule's measured range
            {"k_max": math.inf},
            {"k_max": -math.inf},
            {"k_max": math.nextafter(16384.0, math.inf)},
            {"k_max": -0.0},
            {"k_max": -1e300},
            {"k_max": math.nan},
            {"k_max": 1e300},
            {"k_max": 50.0005},  # the grid's 32 outer nodes crowd into a sliver
        ],
    )
    def test_invariants_rejected(self, kwargs):
        (name, value), = kwargs.items()
        calls = [
            lambda: check_k_max(value),
            lambda: standard_grid(value),
            lambda: integrate_spectral(lambda k: np.exp(-k), k_max=value),
            lambda: build_series(0.0, 1, value),
            lambda: run_checks(k_max=value, only=("identities",)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=name):
                call()

    def test_weight_truncation_invariant(self):
        assert math.exp(-T_MAX**2) < ABS_TOL


class TestGaussianWeighted:
    def test_constant_moment(self):
        assert integrate_gaussian_weighted(lambda t: 1.0) == pytest.approx(
            SQPI / 2.0, abs=1e-12
        )

    def test_first_moment(self):
        assert integrate_gaussian_weighted(lambda t: t) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_second_moment(self):
        assert integrate_gaussian_weighted(lambda t: t * t) == pytest.approx(
            SQPI / 4.0, abs=1e-12
        )

    def test_scalar_only_callable(self):
        # integrands are evaluated on whole node batches: no per-point retry
        def f(t):
            return math.cos(float(t))

        with pytest.raises(TypeError):
            integrate_gaussian_weighted(f)

    def test_deterministic(self):
        def f(t):
            return t**2 / (1.0 + 4.0 * t**2)

        assert integrate_gaussian_weighted(f) == integrate_gaussian_weighted(f)

    def test_non_finite_integrand(self):
        def f(t):
            return np.where(np.asarray(t) > 0.5, np.nan, 1.0)

        with pytest.raises(NonFiniteIntegrandError):
            integrate_gaussian_weighted(f, label="bad integrand")

    def test_budget_exhausted_names_label(self):
        # ~1.3e5 periods on [0, T_MAX]: more than MAX_SUBDIVISIONS G7/K15
        # intervals can resolve
        def spiky(t):
            return np.cos(1e5 * np.asarray(t))

        with pytest.raises(BudgetExhaustedError) as err:
            integrate_gaussian_weighted(spiky, label="spiky one")
        assert "spiky one" in str(err.value)

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

        combined = integrate_gaussian_weighted(lambda t: a * f(t) + b * g(t))
        split = a * integrate_gaussian_weighted(f) + b * integrate_gaussian_weighted(g)
        tol = 2.0 * (REL_TOL * max(abs(combined), 1.0) + ABS_TOL)
        assert abs(combined - split) <= tol + 1e-13


class TestSpectral:
    def test_lorentzian(self):
        value = integrate_spectral(lambda k: 1.0 / (1.0 + np.asarray(k) ** 2))
        assert value == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_exponential(self):
        value = integrate_spectral(lambda k: np.exp(-np.asarray(k)))
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
        value = integrate_spectral(lambda k: t_n_vec(2, k))
        assert value == pytest.approx(brute, abs=5e-6)
        # the analytic value of this particular integral is sqrt(pi)/2
        assert value == pytest.approx(SQPI / 2.0, abs=1e-5)

    def test_doubling_k_max_shrinks_the_tail_error(self):
        """int 1/(1+k^2) = pi/2: the 1/k^2 tail model leaves a residual of
        order k_max^-3, measured 4.4e-9 at K_MAX and 5.5e-10 at 1600."""
        def f(k):
            return 1.0 / (1.0 + np.asarray(k) ** 2)

        a = integrate_spectral(f) - math.pi / 2.0
        b = integrate_spectral(f, k_max=1600.0) - math.pi / 2.0
        assert abs(a) < 1e-8
        assert abs(b) < abs(a) / 4.0

    def test_tail_dominates(self):
        with pytest.raises(TailEstimateDominatesError) as err:
            integrate_spectral(
                lambda k: 1.0 / (1.0 + np.asarray(k) ** 2),
                k_max=5.0, label="wide lorentzian",
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
            integrate_spectral(counted, label="spiky member")
        assert err.value.label == "spiky member"
        # the capped split lands the integral on exactly MAX_SUBDIVISIONS
        # intervals: 7 initial ones, each split adding one and rating two
        assert sum(seen) == 15 * (2 * MAX_SUBDIVISIONS - 7)

    def test_log_tail_integrates_its_model_per_column(self):
        """Samples of (alpha + beta ln k)/k^2, one column per member, give
        the exact integral of each member past k_max."""
        k_max = K_MAX
        k_tail = _tail_points(k_max)[:, None]
        alpha, beta = np.array([1.0, 0.5]), np.array([-2.0, 3.0])
        samples = (alpha + beta * np.log(k_tail)) / k_tail**2
        labels = ("first", "second")
        tail = _log_tail(samples, k_max, np.ones(2), labels.__getitem__)
        want = [
            quad(lambda k, a=a, b=b: (a + b * math.log(k)) / k**2, k_max, math.inf,
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
                samples, k_max, heads,
                ("decaying one", "wide lorentzian", "decaying two").__getitem__,
            )
        assert err.value.label == "wide lorentzian"
        assert "wide lorentzian" in str(err.value)


class TestSpectralFamily:
    """integrate_spectral integrates a family in one adaptive loop: each
    member keeps its own adaptive run, tail samples and tail guard."""

    @staticmethod
    def lorentz(k, a):
        return 1.0 / (1.0 + (a * k) ** 2)

    def test_members_equal_their_own_calls(self):
        a = np.array([1.0, 0.3, 5.0, 40.0])
        family = quadrature._integrate_spectral_detail(
            self.lorentz, K_MAX, "lorentz", params=(a,)
        )
        for j, aj in enumerate(a):
            alone = quadrature._integrate_spectral_detail(
                lambda k, a=float(aj): self.lorentz(k, a), K_MAX, "lorentz",
            )
            assert tuple(part[j] for part in family) == alone
        assert (integrate_spectral(self.lorentz, params=(a,)) == family[0]).all()

    def test_tail_guard_names_its_member(self):
        labels = ("narrow", "wide", "narrower").__getitem__
        with pytest.raises(TailEstimateDominatesError) as err:
            integrate_spectral(
                self.lorentz, k_max=5.0, label=labels,
                params=(np.array([50.0, 1.0, 80.0]),),
            )
        assert err.value.label == "wide"
        assert "wide" in str(err.value)


class TestFamilyEngine:
    """One adaptive loop integrates a family of integrands: each member
    keeps the scalar algorithm (its own intervals, sums, stop test, split
    rule and budget), so its value is that of its own call, bit for bit."""

    @staticmethod
    def lorentz(t, k):
        return t**2 / (1.0 + k * k * t**2)

    def test_mixed_members_equal_their_scalar_calls(self):
        # k = 0 (a polynomial), large k (a sharp knee at t = 1/k), easy and
        # hard members
        k = np.array([0.0, 5e3, 0.3, 2.0, 80.0, 1e-3, 700.0])
        family = integrate_gaussian_weighted(self.lorentz, params=(k,))
        scalar = [
            integrate_gaussian_weighted(lambda t, k=float(kj): self.lorentz(t, k))
            for kj in k
        ]
        assert (family == np.array(scalar)).all()
        assert (family[1:] == integrate_gaussian_weighted(
            self.lorentz, params=(k[1:],))).all()

    def test_values_recorded_one_integral_at_a_time(self):
        """Values recorded, as exact hex floats, from one integral per call,
        with the member's own knees 1/k and 1/k1 as breakpoints: a family
        gives the same bits.  Each lies within 1e-17 of an mpmath integral
        at 40 digits (the engine's absolute floor is 1e-14)."""
        for value, recorded, reference in (
            (j_n(1, [1e3, 0.3], [700.0, 2.0])[0], "0x1.a7a9665be1c21p-21",
             7.891314441768224168e-07),
            (j_n(0, [0.5, 4e3], 0.0)[1], "0x1.d081d142edd7cp-12",
             4.429884904157629592e-04),
        ):
            assert value.hex() == recorded
            assert abs(value - reference) < 1e-17

    def test_hard_members_keep_their_own_budget(self):
        """Two members that need about 140 intervals each finish, though
        together they hold more than MAX_SUBDIVISIONS."""
        w = np.array([100.0, 110.0, 5.0])
        family = integrate_gaussian_weighted(lambda t, w: np.cos(w * t), params=(w,))
        scalar = [integrate_gaussian_weighted(lambda t, w=wj: np.cos(w * t)) for wj in w]
        assert (family == np.array(scalar)).all()

    def test_one_evaluation_per_sweep(self, monkeypatch):
        calls = []
        original = quadrature._eval_batch

        def counted(f, x, label):
            calls.append(x.size)
            return original(f, x, label)

        monkeypatch.setattr(quadrature, "_eval_batch", counted)
        k = np.array([0.0, 0.3, 2.0, 80.0, 5e3])
        integrate_gaussian_weighted(self.lorentz, params=(k,))
        family, points = len(calls), sum(calls)
        sweeps = []
        for kj in k:
            calls.clear()
            integrate_gaussian_weighted(lambda t, k=kj: self.lorentz(t, k))
            sweeps.append(len(calls))
            points -= sum(calls)
        # the slowest member sets the sweeps; every member is rated on the
        # same points as in its own call
        assert family == max(sweeps) and points == 0

    def test_budget_failure_names_its_member(self):
        seen = []

        def f(t, w):
            seen.append(np.count_nonzero(w == 1e5))
            return np.cos(w * t)

        labels = ("smooth", "spiky", "slow").__getitem__
        with pytest.raises(BudgetExhaustedError) as err:
            integrate_gaussian_weighted(
                f, label=labels, params=(np.array([1.0, 1e5, 3.0]),)
            )
        assert err.value.label == "spiky"
        # the spiky member alone spends its budget, capped split included:
        # 4 initial intervals, each split adding one and rating two
        assert sum(seen) == 15 * (2 * MAX_SUBDIVISIONS - 4)

    def test_non_finite_value_names_its_member(self):
        def f(t, cut):
            return np.where(t > cut, np.nan, 1.0)

        labels = ("first", "second", "third").__getitem__
        with pytest.raises(NonFiniteIntegrandError) as err:
            integrate_gaussian_weighted(
                f, label=labels, params=(np.array([np.inf, 0.5, np.inf]),)
            )
        assert err.value.label == "second"

    def test_empty_family_gives_empty_values(self):
        """A family without members used to loop forever."""
        empty = (np.empty(0),)
        assert integrate_gaussian_weighted(self.lorentz, params=empty).shape == (0,)
        assert integrate_spectral(lambda k, a: a * k, params=empty).shape == (0,)
        assert j_n(1, [], []).shape == (0,)

    def test_params_must_match(self):
        with pytest.raises(ValueError, match="params"):
            integrate_gaussian_weighted(
                self.lorentz, params=(np.ones(3), np.ones(2))
            )

    def test_warm_identities_integrate_nothing(self, monkeypatch):
        """Warm, the identities group makes no adaptive integral: its 28
        T_n values and the 4 J_3 members of its s_kernel call are cached.
        It integrated one family of those 4 members in 5 sweeps on 615
        points when J_n was not cached, and 3 families in 16 sweeps on
        18,180 points when it checked the adaptive moments against
        themselves."""
        run_checks(only=("identities",))  # fill the T_n and J_n caches
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)

        monkeypatch.setattr(quadrature, "_eval_batch", counted)
        monkeypatch.setattr(quadrature, "_adaptive_gk", counted)
        assert all(r.passed for r in run_checks(only=("identities",)))
        assert calls == []
