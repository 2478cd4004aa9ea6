"""Independent validation path: direct nested quadrature, no shared machinery.

Everything here is computed with scipy's QUADPACK integrator and inline
moment quadratures, whose gamma-free values at each wavenumber are computed
once per process (:func:`_moments`) for ``u1_direct`` at every gamma and for
``j_constants``, itself computed once per process: no spectral grid, no
interpolation, no code shared with the kernel/series modules beyond the
problem's formulas.  Every integral
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


@lru_cache(maxsize=4096)
def _moments(k: float) -> tuple[float, float, float, float]:
    """(T_1, T_2, T_3, phi_0) at k; an immutable entry every gamma and thread
    shares (a race at most computes one k twice)."""
    return (*(_j_inline(n, k, 0.0, T_MAX) for n in (1, 2, 3)), _phi0_inline(k, T_MAX))


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


def u1_direct(gamma: float) -> float:
    """First slip coefficient by single direct quadrature.

    U_1 = -(1-gamma)^{-1} (1/sqrt(pi))
          int [T_1(k) + gamma k^2 T_3(k)] phi_0(k)/T_2(k) dk,
    with the moments at each point from the inline quadratures (cached).
    """
    if not (0.0 <= gamma < 1.0):
        raise ValueError("gamma must be in [0, 1)")

    def integrand(k: float) -> float:
        t1, t2, t3, phi0 = _moments(k)
        return (t1 + gamma * k * k * t3) * phi0 / t2

    integral = _split_integral(integrand, epsabs=1e-12, epsrel=1e-10)
    return -integral / ((1.0 - gamma) * SQRT_PI)


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
    grids), and the moments come from :func:`_moments`.  The result is
    computed once per process: every later call returns the same tuple.
    """
    @cache
    def inner_ab(k1: float) -> tuple[float, float]:
        """A = int S_1(k1,k2) phi_0/T_2 dk2, B = int k2^2 S_2(k1,k2) phi_0/T_2 dk2."""
        t3k1 = _moments(k1)[2]

        def fa(k2: float) -> float:
            t1, t2, _, phi0 = _moments(k2)
            s1 = _j_inline(3, k1, k2, T_MAX) - SQRT_PI * t3k1 * t1
            return s1 * phi0 / t2

        def fb(k2: float) -> float:
            _, t2, t3, phi0 = _moments(k2)
            s2 = _j_inline(5, k1, k2, T_MAX) - SQRT_PI * t3k1 * t3
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
