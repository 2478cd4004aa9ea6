import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from kramers import special_integrals, verification
from kramers.quadrature import K_LIMIT, integrate_gaussian_weighted
from kramers.special_integrals import (
    GasParameters,
    MOMENTS,
    MomentBatch,
    dispersion_l,
    fixed_row,
    j_n,
    phi0,
    phi0_vec,
    t_n,
    t_n_vec,
)

SQPI = math.sqrt(math.pi)
K_GRID = np.concatenate([np.linspace(0.0, 2.0, 9), [3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0]])


class TestGasParameters:
    def test_valid(self):
        p = GasParameters(gamma=0.3, q=0.8, g_v=2.0)
        assert p.gamma == 0.3

    @pytest.mark.parametrize("gamma", [-0.1, 1.0, 1.5])
    def test_gamma_domain(self, gamma):
        with pytest.raises(ValueError):
            GasParameters(gamma=gamma, q=1.0)

    @pytest.mark.parametrize("q", [0.0, -0.2, 1.2])
    def test_q_domain(self, q):
        with pytest.raises(ValueError):
            GasParameters(gamma=0.0, q=q)

    def test_q_zero_message_names_expansion(self):
        with pytest.raises(ValueError, match="specular"):
            GasParameters(gamma=0.0, q=0.0)

    def test_gradient_finite(self):
        with pytest.raises(ValueError):
            GasParameters(gamma=0.0, q=1.0, g_v=math.inf)

    @pytest.mark.parametrize("q", [1e-310, 5e-324, 1.1e-308])
    def test_q_with_overflowing_slip_factor_named(self, q):
        """A subnormal q made (2-q)/q, and every slip built from it, inf."""
        with pytest.raises(ValueError, match=re.escape(f"q={q} is too small")):
            GasParameters(gamma=0.0, q=q)


class TestMoments:
    def test_table(self):
        assert MOMENTS[0] == pytest.approx(1.0, abs=0)
        assert MOMENTS[1] == pytest.approx(1.0 / SQPI, rel=1e-15)
        assert MOMENTS[2] == pytest.approx(0.5, rel=1e-15)
        assert MOMENTS[3] == pytest.approx(1.0 / SQPI, rel=1e-15)
        assert MOMENTS[4] == pytest.approx(0.75, rel=1e-15)
        assert MOMENTS[5] == pytest.approx(2.0 / SQPI, rel=1e-15)

    def test_t_moment_matches_quadrature(self):
        """Every T_n(0) of MOMENTS, the one table of them, against quadrature;
        the even orders are the exact dyadic rationals (n-1)!!/2^(n/2)."""
        assert len(MOMENTS) == 9
        for n, moment in enumerate(MOMENTS):
            direct = integrate_gaussian_weighted(
                lambda t, n=n: 2.0 / SQPI * np.asarray(t) ** n
            )
            assert moment == pytest.approx(direct, abs=1e-12)
        assert MOMENTS[6::2] == (15 / 8, 105 / 16)


class TestTn:
    def test_zero_wavenumber_exact(self):
        assert t_n(0, 0.0) == 1.0
        assert t_n(1, 0.0) == MOMENTS[1]
        assert t_n(2, 0.0) == 0.5
        assert t_n(4, 0.0) == 0.75

    def test_identity_at_unit_wavenumber(self):
        # both sides by independent quadratures of different integrands
        assert 1.0 - t_n(0, 1.0) == pytest.approx(t_n(2, 1.0), abs=1e-10)

    def test_recurrence_grid(self):
        for n in range(7):
            for k in K_GRID:
                assert t_n(n, k) + k * k * t_n(n + 2, k) == pytest.approx(
                    MOMENTS[n], abs=1e-10
                )

    def test_strictly_decreasing_in_k(self):
        for n in range(6):
            vals = [t_n(n, k) for k in K_GRID]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_order_domain(self):
        with pytest.raises(ValueError):
            t_n(9, 1.0)
        with pytest.raises(ValueError):
            t_n(0, -1.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: t_n(1.5, 0.0),  # was a TypeError from the moment table
            lambda: t_n_vec(1.5, [0.3]),  # was a KeyError
            lambda: t_n(1.5, 0.3),  # silently integrated t^1.5
            lambda: t_n(True, 0.3),
            lambda: j_n(2.0, 0.3, 0.5),
            lambda: fixed_row(-1, 0.5),
            lambda: MomentBatch([0.5]).t(20),
            lambda: j_n([1, 1.5], 0.5, 0.5),
        ],
    )
    def test_order_must_be_an_integer_in_range(self, call):
        with pytest.raises(ValueError, match="moment order must be an integer"):
            call()

    def test_nan_wavenumber_named(self):
        """NaN passes a `k < 0` test; it is a bad request, not a numerical failure."""
        calls = [
            lambda: t_n(1, math.nan), lambda: j_n(1, math.nan, 0.3),
            lambda: j_n(1, 0.3, math.nan), lambda: dispersion_l(math.nan, 0.0),
            lambda: phi0(math.nan),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"k=nan|k1=nan"):
                call()

    @pytest.mark.parametrize("k", [np.array([0.5, 2.0]), np.array([0.5]), [0.5]])
    def test_array_wavenumber_named(self, k):
        """An array got numpy's "truth value ... is ambiguous" ValueError, and
        a 1-element one a TypeError; both now name the scalar rule."""
        for call in (lambda: t_n(1, k), lambda: dispersion_l(k, 0.2), lambda: phi0(k)):
            with pytest.raises(ValueError, match=r"^k must be one wavenumber, got an "
                               r"array of shape \(\d?,?\); t_n_vec takes arrays$"):
                call()

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 6), k=st.floats(0.0, 120.0))
    def test_recurrence_property(self, n, k):
        assert t_n(n, k) + k * k * t_n(n + 2, k) == pytest.approx(
            MOMENTS[n], abs=1e-10
        )

    @pytest.mark.parametrize("n, k", [(2, 85.625), (2, 42.8), (4, 10.9)])
    def test_recurrence_where_the_knee_was_missed(self, n, k):
        """Before t = 1/k became a breakpoint, the recurrence was off by
        -1.05e-8, -8.4e-8 and 1.2e-10 here: the adaptive run stopped with
        the knee inside one wide interval."""
        assert abs(t_n(n, k) + k * k * t_n(n + 2, k) - MOMENTS[n]) <= 1e-12

    def test_t4_at_large_k_against_mpmath(self):
        """T_4(85.625) by mpmath at 40 digits, with breakpoints at 1/k; it
        was 2.1e-8 relative off before the knee became a breakpoint."""
        assert t_n(4, 85.625) == pytest.approx(6.817933625325422e-05, rel=1e-13)


class TestWavenumberLimit:
    """Every moment takes k in [0, K_LIMIT]: past it the adaptive runs
    lose their knee, and T_1(1e8) was 65% low, T_0(1e12) 50% low and
    T_0(1.4e154) 0.0."""

    @staticmethod
    def closed_forms(k):
        """T_0 = sqrt(pi x) e^x erfc(sqrt x) and T_1 = x e^x E_1(x)/sqrt(pi),
        with x = 1/k^2."""
        x = 1.0 / (k * k)
        return (math.sqrt(math.pi * x) * special.erfcx(math.sqrt(x)),
                x * math.exp(x) * special.exp1(x) / SQPI)

    @pytest.mark.parametrize("k", [1000.0, K_LIMIT])
    def test_closed_forms_up_to_the_limit(self, k):
        t0, t1 = self.closed_forms(k)
        assert t_n(0, k) == pytest.approx(t0, rel=5e-15)
        assert t_n(1, k) == pytest.approx(t1, rel=5e-15)

    @pytest.mark.parametrize("call, k", [
        (lambda: t_n(1, 1e8), "k=100000000.0"),
        (lambda: t_n(0, 1e12), "k=1000000000000.0"),
        (lambda: t_n(0, 1.4e154), "k=1.4e+154"),
        (lambda: t_n(2, math.inf), "k=inf"),
        (lambda: t_n(0, np.nextafter(K_LIMIT, math.inf)), "k=16384.000000000004"),
        (lambda: dispersion_l(1e200, 0.0), "k=1e+200"),
        (lambda: phi0(2e4), "k=20000.0"),
        (lambda: j_n(1, 1e8, 0.5), "k=100000000.0"),
        # the ids keep naming the input arrays; the message names the bad entry
        pytest.param(lambda: j_n(1, 0.5, [1.0, 2e4]), "k1=20000.0",
                     id="<lambda>-k1=[1.0, 20000.0]"),
        (lambda: j_n(3, 0.5, 1e8), "k1=100000000.0"),
        pytest.param(lambda: j_n(1, [0.5, math.inf], 0.5), "k=inf",
                     id="<lambda>-k=[0.5, inf]"),
        pytest.param(lambda: t_n_vec(1, [1e5]), "k=100000.0", id="t_n_vec-1e5"),
        pytest.param(lambda: t_n_vec(0, [1.0, np.nextafter(K_LIMIT, math.inf)]),
                     "k=16384.000000000004", id="t_n_vec-above"),
        pytest.param(lambda: t_n_vec(0, [2.0, -1.0]), "k=-1.0", id="t_n_vec-negative"),
        pytest.param(lambda: t_n_vec(0, [2.0, math.nan]), "k=nan", id="t_n_vec-nan"),
        pytest.param(lambda: MomentBatch([0.5, 1e8]), "k=100000000.0",
                     id="MomentBatch-1e8"),
        pytest.param(lambda: fixed_row(1, 2e4), "k=20000.0", id="fixed_row-2e4"),
        pytest.param(lambda: fixed_row(1, math.nan), "k=nan", id="fixed_row-nan"),
    ])
    def test_larger_wavenumbers_rejected(self, call, k):
        message = rf"must be in \[0, 16384\], got .*{re.escape(k)}"
        with pytest.raises(ValueError, match=message):
            call()

    def test_batches_up_to_the_limit(self):
        """The batch moments take the whole range, the limit included; past
        it, against the closed form, t_n_vec(1, [1e5]) was 2.4e-6 and
        t_n_vec(1, [1e8]) 16% low, without an error."""
        k = np.array([0.0, 1000.0, K_LIMIT])
        t1 = t_n_vec(1, k)
        assert t1[0] == MOMENTS[1]
        for value, wavenumber in zip(t1[1:], k[1:]):
            assert value == pytest.approx(self.closed_forms(wavenumber)[1], rel=1e-13)
        assert np.all(np.isfinite(fixed_row(1, K_LIMIT)))
        assert t_n_vec(0, np.array([])).size == 0

    def test_dispersion_at_a_huge_wavenumber_warns_nothing(self):
        """k * k overflowed with a RuntimeWarning before the moment was checked."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="16384"):
                dispersion_l(np.float64(1e200), 0.0)


class TestJn:
    def test_collapse_to_t(self):
        for k in (0.3, 1.0, 4.0):
            assert j_n(1, 0.0, k) == pytest.approx(t_n(1, k), abs=1e-12)
            assert j_n(1, k, 0.0) == pytest.approx(t_n(1, k), abs=1e-12)

    def test_symmetry_example(self):
        assert j_n(3, 0.7, 1.3) == pytest.approx(j_n(3, 1.3, 0.7), abs=1e-12)

    def test_collapse_at_a_large_wavenumber(self):
        """J_4(k, 0) = T_4(k), whose knee t = 1/k is a breakpoint; with one
        breakpoint array for the family, j_n was 2.1e-8 relative off."""
        assert j_n(4, 85.625, 0.0) == pytest.approx(t_n(4, 85.625), rel=1e-14)

    @pytest.mark.parametrize("n, k", [(2, 85.625), (2, 42.8), (4, 10.9)])
    def test_recurrence_where_the_knee_was_missed(self, n, k):
        """J_n(k, 0) + k^2 J_{n+2}(k, 0) = T_n(0), each member with its own
        knee; with one breakpoint array for the family, it was off by
        -1.05e-8, -8.4e-8 and 1.2e-10 here."""
        recurrence = j_n(n, k, 0.0) + k * k * j_n(n + 2, k, 0.0) - MOMENTS[n]
        assert abs(recurrence) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 3, 5]),
        k=st.floats(0.0, 60.0),
        k1=st.floats(0.0, 60.0),
    )
    def test_symmetry_property(self, n, k, k1):
        assert j_n(n, k, k1) == pytest.approx(j_n(n, k1, k), abs=1e-10)


class TestJm:
    """The graded density-weighted moment J^(m) = J_m + gamma k1^2 J_{m+2}
    of the dual-route check, from the rows the kernel table reads, against
    the adaptive J_n and T_n."""

    @staticmethod
    def graded(m, k, k1, gamma):
        batch = MomentBatch([k1])
        j, j_2 = (verification.j_n(n, [k], batch)[0, 0] for n in (m, m + 2))
        return verification.j_m(j, j_2, k1, gamma)

    def test_gamma_zero_collapse(self):
        assert self.graded(1, 0.7, 1.9, 0.0) == pytest.approx(j_n(1, 0.7, 1.9), abs=1e-13)

    def test_boundary_value(self):
        gamma, k1 = 0.35, 1.4
        expected = t_n(1, k1) + gamma * k1 * k1 * t_n(3, k1)
        assert self.graded(1, 0.0, k1, gamma) == pytest.approx(expected, abs=1e-11)

    def test_decomposition_identity(self):
        """J^(m) = gamma T_m(k) + (1 - gamma) J_m(k, k1), the solver's blend."""
        blend = 0.1 * t_n(1, 0.5) + 0.9 * j_n(1, 0.5, 0.5)
        assert self.graded(1, 0.5, 0.5, 0.1) == pytest.approx(blend, abs=1e-10)


class TestArrayArguments:
    """Arrays of wavenumbers broadcast and are integrated as one family, of
    one order; each value is its scalar call's, bit for bit."""

    def test_j_n_equals_its_scalar_calls(self):
        k = np.array([[0.0, 1e-3, 0.3], [2.0, 60.0, 5e3]])
        k1 = np.array([0.7, 0.0, 9.0])
        for n in (0, 3, 8):
            values = j_n(n, k, k1)
            assert values.shape == (2, 3)
            expected = [[j_n(n, float(a), float(b)) for a, b in zip(row, k1)]
                        for row in k]
            assert (values == np.array(expected)).all()

    @staticmethod
    def one_order(n, k, k1):
        """J_n(k, k1) integrated as a call for the one order n did, with the
        scalar power t**n."""
        with np.errstate(divide="ignore"):
            knees = (1.0 / np.float64(k), 1.0 / np.float64(k1))
        return integrate_gaussian_weighted(
            lambda t: 2.0 / SQPI * t**n
            / ((1.0 + k * k * t**2) * (1.0 + k1 * k1 * t**2)),
            knees=knees,
        )

    def test_j_n_orders_equal_their_one_order_and_scalar_calls(self):
        """Each order's values are its one-order integrals with the scalar
        power t**n: order 2 at (0, 1e-3), (1e-3, 1e-3), (0.05, 0.7) and
        (2, 9) is 1 ulp off with an array exponent."""
        k = np.array([0.0, 1e-3, 0.05, 2.0, 5e3, 0.0])
        k1 = np.array([1e-3, 1e-3, 0.7, 9.0, 0.0, 5e3])
        for n in range(9):
            values = j_n(n, k, k1)
            assert values.shape == (6,)
            for j in range(6):
                assert values[j] == j_n(n, float(k[j]), float(k1[j]))
                assert values[j] == self.one_order(n, k[j], k1[j])

    def test_scalars_give_floats(self):
        assert type(j_n(1, 0.3, 0.5)) is float
        assert type(j_n(np.int64(2), 0.3, 0.5)) is float

    def test_bad_member_rejected(self):
        with pytest.raises(ValueError, match=r"wavenumber must be .*, got k=-1\.0$"):
            j_n(1, [0.3, -1.0], 0.5)

    @pytest.mark.parametrize(
        "order", [1.5, True, 9, -1, np.float64(1.0), [1, 3]],
        ids=lambda order: f"order={order!r}",
    )
    def test_bad_order_entry_named_before_any_integral(self, monkeypatch, order):
        """One integer order: a float, a bool, one out of [0, 8] and a list
        of orders are each named before any integral."""
        def no_integral(*args, **kwargs):
            raise AssertionError("integrated before checking the order")

        monkeypatch.setattr(special_integrals, "integrate_gaussian_weighted", no_integral)
        message = re.escape(f"moment order must be an integer in [0, 8], got {order!r}")
        with pytest.raises(ValueError, match=f"{message}$"):
            j_n(order, 0.3, 0.5)

    def test_label_names_the_member_order(self, monkeypatch):
        labels = []

        def record(f, label, params, knees):
            labels.extend(label(j) for j in range(len(params[0])))
            return np.zeros(len(params[0]))

        monkeypatch.setattr(special_integrals, "integrate_gaussian_weighted", record)
        j_n(3, [0.5, 1.0], 2.0)
        assert labels == ["J_3(k=0.5, k1=2)", "J_3(k=1, k1=2)"]


class TestDispersion:
    def test_zero(self):
        assert dispersion_l(0.0, 0.3) == 0.0

    def test_limit_at_large_k(self):
        # approach to the limit goes like sqrt(pi)/k: 1e-3 needs k ~ 2000
        for gamma in (0.0, 0.4):
            assert dispersion_l(2000.0, gamma) == pytest.approx(
                1.0 - gamma, abs=1e-3
            )

    def test_limit_approach_rate(self):
        # k (1 - L/(1-gamma)) -> sqrt(pi)
        for k in (200.0, 500.0):
            rate = k * (1.0 - dispersion_l(k, 0.0))
            assert rate == pytest.approx(SQPI, rel=2e-2)

    def test_identity_three_forms(self):
        for gamma in (0.0, 0.25, 0.5):
            for k in K_GRID:
                alt = 1.0 - t_n(0, k) - gamma * k * k * t_n(2, k)
                assert dispersion_l(k, gamma) == pytest.approx(alt, abs=1e-10)

    def test_monotone_rising_curve(self):
        ks = np.arange(0.0, 10.01, 0.1)
        vals = [dispersion_l(k, 0.0) for k in ks]
        assert vals[0] == 0.0
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0


class TestPhi0:
    def test_value_at_zero(self):
        assert phi0(0.0) == pytest.approx(-0.25, abs=1e-12)

    def test_negative_and_shrinking(self):
        vals = [phi0(k) for k in K_GRID]
        assert all(v < 0.0 for v in vals)
        mags = [abs(v) for v in vals]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_vanishing_quadratic_tail(self):
        # k^2 phi0 -> 0: the 1/k^2 tail coefficient is zero, so the scaled
        # samples keep falling like ln(k)/k^2 over the fit window
        ks = np.array([20.0, 30.0, 50.0])
        scaled = np.array([abs(k * k * phi0(k)) for k in ks])
        assert scaled[0] > scaled[1] > scaled[2]
        exponent = np.polyfit(np.log(ks), np.log(scaled), 1)[0]
        assert exponent < -1.5
        assert scaled[-1] < 1.5e-3


class TestVectorisedAgainstScalar:
    """The graded-rule fast path must agree with the adaptive contract path."""

    def test_t_n(self):
        for n in range(9):
            vec = t_n_vec(n, K_GRID)
            ref = np.array([t_n(n, k) for k in K_GRID])
            np.testing.assert_allclose(vec, ref, atol=5e-12, rtol=5e-12)

    def test_j_n(self):
        k1 = np.array([0.0, 0.4, 1.7, 6.0, 30.0])
        batch = MomentBatch(k1)
        for n in (1, 3, 5):
            for k in (0.0, 0.9, 12.0):
                vec = batch.against(fixed_row(n, k))
                ref = np.array([j_n(n, k, v) for v in k1])
                np.testing.assert_allclose(vec, ref, atol=5e-12)

    def test_j_m(self):
        """J^(m) = gamma T_m(k) + (1-gamma) J_m, the form the solver runs."""
        k1 = np.array([0.0, 0.8, 3.0])
        batch = MomentBatch(k1)
        for m, k, gamma in ((1, 0.6, 0.3), (1, 0.0, 0.5), (3, 2.5, 0.2)):
            vec = gamma * t_n(m, k) + (1.0 - gamma) * batch.against(
                fixed_row(m, k)
            )
            ref = np.array([j_n(m, k, v) + gamma * v * v * j_n(m + 2, k, v)
                            for v in k1])
            np.testing.assert_allclose(vec, ref, atol=5e-12)

    def test_phi0(self):
        np.testing.assert_allclose(
            phi0_vec(K_GRID),
            [phi0(k) for k in K_GRID],
            atol=5e-12,
        )

    def test_phi0_reads_one_batch(self):
        """phi0_vec takes T_3 and T_4 from one MomentBatch, in the bits of
        the two t_n_vec calls it made."""
        expected = SQPI / 2.0 * t_n_vec(3, K_GRID) - t_n_vec(4, K_GRID)
        assert phi0_vec(K_GRID).tobytes() == expected.tobytes()

    def test_moment_batch_weights_are_the_plain_expression(self):
        """The weights are built in place, in the bits of the expression
        1/(1 + k^2 t^2) written out."""
        from kramers.special_integrals import _RULE

        k = np.concatenate([[0.0], np.geomspace(1e-6, 16384.0, 300), K_GRID])
        expected = 1.0 / (1.0 + np.multiply.outer(k**2, _RULE.t_sq))
        assert np.array_equal(MomentBatch(k)._weights, expected)

    def test_moment_batch_consistency(self):
        batch = MomentBatch(K_GRID)
        np.testing.assert_allclose(batch.t(2), t_n_vec(2, K_GRID), rtol=0)
