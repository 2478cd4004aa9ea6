"""Independent validation path: direct nested quadrature, no shared machinery.

Every wavenumber integral is computed with scipy's QUADPACK integrator, and
the moments inside it from their own formulas: no spectral grid, no
interpolation, no code shared with the kernel/series modules beyond the
problem's formulas.  The gamma-free moments at each wavenumber are computed
once per process (:func:`_moments`) for ``u1_direct`` at every gamma and for
``j_constants``, itself computed once per process.  ``T_1``, ``T_2`` and
``T_3`` are exact closed forms in ``E_1`` and ``erfcx`` (Abramowitz & Stegun
5.1 and 7.1) from ``_K_CLOSED`` up; below it, where those forms cancel, and
for ``phi_0`` at every k, they are inline QUADPACK moments.  The kernel
moments ``J_3`` and ``J_5`` are divided differences of the cached ``T_1`` and
``T_3`` (partial fractions), again with an inline quadrature where the
difference cancels.  Every integral
over a wavenumber runs to infinity in three parts: a head in k, a far range
in s = ln k, where the slow ln(k)/k^p tails become smooth integrands that
decay exponentially in s, and the exact remainder of a fitted log-power
model past the top of the far range.  So these values are accurate
references rather than truncation-limited estimates.  The only setting read
from the main path is the Gaussian truncation point ``T_MAX``; its own
tolerances are fixed here, so no function takes a tolerance or ``k_max``.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache

from scipy.integrate import quad
from scipy.special import erfcx, exp1

from .quadrature import T_MAX
from .special_integrals import SQRT_PI

__all__ = ["u1_direct", "j_constants", "u2_direct"]


def _quiet_quad(*args, **kwargs):
    """quad with QUADPACK roundoff chatter silenced.

    Relative-mode tolerances near machine precision trigger advisory
    roundoff messages; the achieved accuracy is asserted independently by
    the cross-path tests, so they carry no signal here.  With ``full_output``
    quad returns the message instead of warning, which, unlike changing the
    process-wide warning filters, is safe when threads share the oracle.
    """
    value, error, *_ = quad(*args, full_output=1, **kwargs)
    return value, error

_OUTER_SPLIT = 10.0  # outer integrals: in k below, in ln k above
_K_HIGH = 1e4        # top of the outer far range: above this the inline
                     # moments sink below quadrature resolution; the fitted
                     # log model closes the remainder (residual ~ 1/k^3 ~ 1e-12)
_INNER_SPLIT = 2.0   # inner (k2) integrals: in k below, in ln k above; their
                     # far range needs no breakpoints (within 3e-10 relative
                     # of a 1e-13 reference for k1 in [1e-3, 3e3])
_INNER_KMAX = 120.0  # inner integrals decay like ln^2(k)/k^4


# Inline quadratures run in relative mode (vanishing absolute floor): the
# far-range moments scale like 1/k^2 down to 1e-8 and below, where any fixed
# absolute tolerance would drown them in noise.
_EPS_ABS = 1e-30


def _j_inline(n: int, k: float, k1: float, t_max: float) -> float:
    """J_n(k, k1) by direct quadrature; J_n(k, 0) = T_n(k).  No caching, no
    interpolation."""
    pts = sorted({1.0 / v for v in (k, k1) if v > 1.0 / t_max})

    def f(t):
        return (
            math.exp(-t * t) * t**n
            / ((1.0 + k * k * t * t) * (1.0 + k1 * k1 * t * t))
        )

    val, _ = _quiet_quad(f, 0.0, t_max, epsabs=_EPS_ABS, epsrel=1e-11, limit=200,
                  points=pts or None)
    return 2.0 / SQRT_PI * val


def _phi0_inline(k: float, t_max: float) -> float:
    """Seed function from its single integrand.

    Evaluating (sqrt(pi)/2) T_3 - T_4 as a difference cancels ~k^2 digits at
    large k; the combined integrand (1 - 2t/sqrt(pi)) t^3 keeps the value
    accurate in relative terms everywhere.
    """
    pts = (1.0 / k,) if k > 1.0 / t_max else None

    def f(t):
        return (
            (1.0 - 2.0 * t / SQRT_PI) * math.exp(-t * t) * t**3
            / (1.0 + k * k * t * t)
        )

    val, _ = _quiet_quad(f, 0.0, t_max, epsabs=_EPS_ABS, epsrel=1e-11, limit=200,
                  points=pts)
    return val


# Crossover of the closed-form moments.  Against 40-digit values,
# T_2 = (1 - T_0)/k^2 and T_3 = (1/sqrt(pi) - T_1)/k^2 lose about eps/k^2
# to cancellation (3e-13 relative at k = 0.04, 6e-14 at 0.1, at most 4e-14
# from 0.15 up), while the inline moments are within 4e-16 below k = 100.
# Below about 0.0377, exp(1/k^2) overflows.
_K_CLOSED = 0.15
_J_BAND = 0.05    # J_n diagonal band, relative to max(k1^2, k2^2)


@lru_cache(maxsize=4096)
def _moments(k: float) -> tuple[float, float, float, float]:
    """(T_1, T_2, T_3, phi_0) at k; an immutable entry every gamma and thread
    shares (a race at most computes one k twice).

    From ``_K_CLOSED`` up, T_1..T_3 are the closed forms of :func:`_t_closed`,
    which also mend the inline T_3's isolated QUADPACK misses (9e-10
    relative near k = 1100); below it, where those forms cancel, they are
    inline quadratures.  phi_0 is an inline quadrature at every k: its form
    (sqrt(pi)/2) T_3 - T_4 cancels ~k^2 digits, and the pinned U_1 values
    are those of the inline route.  Every entry holds Python floats, so no
    scipy scalar leaks into the integrands.
    """
    if k >= _K_CLOSED:
        ts = _t_closed(k)
    else:
        ts = tuple(_j_inline(n, k, 0.0, T_MAX) for n in (1, 2, 3))
    return (*ts, _phi0_inline(k, T_MAX))


def _t_closed(k: float) -> tuple[float, float, float]:
    """(T_1, T_2, T_3) at k in closed form, as Python floats.

    With x = 1/k^2: T_1 = x e^x E_1(x)/sqrt(pi) (A&S 5.1),
    T_0 = (sqrt(pi)/k) erfcx(1/k) (A&S 7.1), and the moment recurrence
    T_n + k^2 T_{n+2} = T_n(0) gives T_2 = (1 - T_0) x and
    T_3 = (1/sqrt(pi) - T_1) x.
    """
    x = 1.0 / (k * k)
    t1 = float(x * math.exp(x) * exp1(x)) / SQRT_PI
    t0 = float(SQRT_PI / k * erfcx(1.0 / k))
    return t1, (1.0 - t0) * x, (1.0 / SQRT_PI - t1) * x


def _j_pair(n: int, k1: float, k2: float) -> float:
    """J_n(k1, k2) for n = 3 or 5: the divided difference
    (T_{n-2}(k2) - T_{n-2}(k1))/(k1^2 - k2^2) of the cached moments, or
    :func:`_j_inline` where that difference cancels."""
    a, b = k1 * k1, k2 * k2
    if abs(a - b) < _J_BAND * max(a, b) or max(k1, k2) < _K_CLOSED:
        return _j_inline(n, k1, k2, T_MAX)
    return (_moments(k2)[n - 3] - _moments(k1)[n - 3]) / (a - b)


def _log_closure(f, k_top: float, p: int) -> float:
    """Exact remainder of (alpha + beta ln k)/k^p fitted at 0.7 k_top, k_top."""
    fa, fb = f(0.7 * k_top), f(k_top)
    la, lb = math.log(0.7 * k_top), math.log(k_top)
    beta = (fb * k_top**p - fa * (0.7 * k_top) ** p) / (lb - la)
    alpha = fb * k_top**p - beta * lb
    return (alpha + beta * (lb + 1.0 / (p - 1))) * k_top ** (1 - p) / (p - 1)


def _half_line_integral(
    f, split: float, top: float, p: int, epsabs: float, epsrel: float,
    breaks: tuple[float, ...] = (),
) -> float:
    """int_0^inf f(k) dk for integrands with (alpha + beta ln k)/k^p tails.

    The head [0, split] is integrated in k.  The far range [split, top] is
    integrated in s = ln k, where f(e^s) e^s is smooth and decays like
    s e^{-(p-1)s}; ``breaks`` are wavenumbers inside it, passed to QUADPACK
    as breakpoints in s.  Beyond ``top`` the remainder is the exact integral
    of the log-power model fitted there (:func:`_log_closure`).
    """
    head, _ = _quiet_quad(f, 0.0, split, epsabs=epsabs, epsrel=epsrel,
                          limit=300)
    far, _ = _quiet_quad(lambda s: f(math.exp(s)) * math.exp(s),
                         math.log(split), math.log(top), epsabs=epsabs,
                         epsrel=epsrel, limit=300,
                         points=[math.log(k) for k in breaks] or None)
    return head + far + _log_closure(f, top, p)


def _split_integral(f, epsabs: float, epsrel: float) -> float:
    """Outer int_0^inf f(k) dk: in k to 10, in ln k to K_HIGH, then closed.

    The outer integrands fall like ln(k)/k^2.  The far range keeps
    breakpoints at k = 100 and 1000: over the three decades as one interval
    QUADPACK's first error estimate can undershoot the true error by more
    than ten times and stop there.
    """
    return _half_line_integral(f, _OUTER_SPLIT, _K_HIGH, 2, epsabs, epsrel,
                               breaks=(100.0, 1000.0))


@lru_cache(maxsize=1)
def _u1_parts() -> tuple[float, float]:
    """(I_0, I_1) = (int T_1 phi_0/T_2 dk, int k^2 T_3 phi_0/T_2 dk), the
    gamma-free parts of U_1, computed once per process."""
    def f0(k: float) -> float:
        t1, t2, _, phi0 = _moments(k)
        return t1 * phi0 / t2

    def f1(k: float) -> float:
        _, t2, t3, phi0 = _moments(k)
        return k * k * t3 * phi0 / t2

    return tuple(_split_integral(f, epsabs=1e-12, epsrel=1e-10) for f in (f0, f1))


def u1_direct(gamma: float) -> float:
    """First slip coefficient by single direct quadrature.

    U_1 = -(1-gamma)^{-1} (1/sqrt(pi))
          int [T_1(k) + gamma k^2 T_3(k)] phi_0(k)/T_2(k) dk
        = -(I_0 + gamma I_1)/((1-gamma) sqrt(pi)),
    with the moments at each point from :func:`_moments` and the two
    integrals I_0 and I_1 from :func:`_u1_parts`.
    """
    if not (0.0 <= gamma < 1.0):
        raise ValueError("gamma must be in [0, 1)")
    i_0, i_1 = _u1_parts()
    return -(i_0 + gamma * i_1) / ((1.0 - gamma) * SQRT_PI)


@lru_cache(maxsize=1)
def j_constants() -> tuple[float, float, float]:
    """(J_0, J_1, J_2): the double integrals behind the second-order slip.

    J_0 pairs T_1 with the kernel part S_1, J_2 pairs the density-weighted
    moments with S_2, and J_1 holds the cross terms:

        J_0 = (1/pi^{3/2}) int int T_1(k1) S_1(k1,k2) phi_0(k2)
              / (T_2(k1) T_2(k2)) dk1 dk2,

    and so on.  Tensorized adaptive 1-D passes, inner (k2) tolerance ten
    times tighter than the outer; the three outer integrals share the inner
    results through a ``functools.cache`` for the call (values only, no
    grids), the moments come from :func:`_moments` and the kernel moments
    J_3 and J_5 from :func:`_j_pair`.  The result is
    computed once per process: every later call returns the same tuple.
    """
    @cache
    def inner_ab(k1: float) -> tuple[float, float]:
        """A = int S_1(k1,k2) phi_0/T_2 dk2, B = int k2^2 S_2(k1,k2) phi_0/T_2 dk2."""
        t3k1 = _moments(k1)[2]

        def fa(k2: float) -> float:
            t1, t2, _, phi0 = _moments(k2)
            s1 = _j_pair(3, k1, k2) - SQRT_PI * t3k1 * t1
            return s1 * phi0 / t2

        def fb(k2: float) -> float:
            _, t2, t3, phi0 = _moments(k2)
            s2 = _j_pair(5, k1, k2) - SQRT_PI * t3k1 * t3
            return k2 * k2 * s2 * phi0 / t2

        return tuple(
            _half_line_integral(f, _INNER_SPLIT, _INNER_KMAX, 4, _EPS_ABS, 1e-9)
            for f in (fa, fb)
        )

    def f_j0(k1: float) -> float:
        t1, t2, _, _ = _moments(k1)
        return t1 * inner_ab(k1)[0] / t2

    def f_j1(k1: float) -> float:
        t1, t2, t3, _ = _moments(k1)
        a_val, b_val = inner_ab(k1)
        return (k1 * k1 * t3 * a_val + t1 * b_val) / t2

    def f_j2(k1: float) -> float:
        _, t2, t3, _ = _moments(k1)
        return k1 * k1 * t3 * inner_ab(k1)[1] / t2

    norm = math.pi**1.5
    return tuple(_split_integral(f, epsabs=1e-13, epsrel=1e-8) / norm
                 for f in (f_j0, f_j1, f_j2))


def u2_direct(
    gamma: float, j_values: tuple[float, float, float] | None = None
) -> float:
    """Second slip coefficient -(J_0 + gamma J_1 + gamma^2 J_2)/(1-gamma)^2.

    Pass precomputed ``j_values`` to amortise the double integrals across
    several gamma evaluations.
    """
    if not (0.0 <= gamma < 1.0):
        raise ValueError("gamma must be in [0, 1)")
    j0, j1, j2 = j_values if j_values is not None else j_constants()
    return -(j0 + gamma * j1 + gamma * gamma * j2) / (1.0 - gamma) ** 2
