"""Special functions of the slip problem: T_n, J_n, J^(m), L(k), phi_0.

All are Gaussian-weighted velocity moments with one or two Lorentzian
factors:

    T_n(k)      = (2/sqrt(pi)) int_0^inf exp(-t^2) t^n / (1 + k^2 t^2) dt
    J_n(k, k1)  = same with both (1 + k^2 t^2)(1 + k1^2 t^2) factors
    J^(m)       = J_m + gamma k1^2 J_{m+2}   (density-weighted kernel moment)
    L(k)        = (1 - gamma) k^2 T_2(k)     (dispersion function)
    phi_0(k)    = (sqrt(pi)/2) T_3(k) - T_4(k)   (seed spectral numerator)

Splitting k^2 t^2 / (1 + k^2 t^2) = 1 - 1/(1 + k^2 t^2) under the integral
gives the recurrences T_n(k) + k^2 T_{n+2}(k) = T_n(0) and
J_n(k, k1) + k1^2 J_{n+2}(k, k1) = T_n(k).  The second makes the density
weight an exact blend,

    J^(m)(k, k1) = gamma T_m(k) + (1 - gamma) J_m(k, k1),

which is how the solver evaluates it; the ``identities`` group of
:mod:`kramers.verification` checks it on the graded rule against the
adaptive S kernel.

Two evaluation paths are provided.  The adaptive functions (`t_n`, `j_n`,
...) go through the engine in :mod:`kramers.quadrature`, whose one stop
rule is an error of at most max(ABS_TOL, REL_TOL |value|): 1e-14 absolute
below 1e-4 and 1e-10 relative above.  `t_n` is scalar and cached, and
breaks its range at the Lorentzian knee t = 1/k when that lies below
T_MAX, while `j_n` takes one order and broadcastable arrays of wavenumbers
and caches each member the same way, with its own knees 1/k and 1/k1.
:class:`MomentBatch` (with `fixed_row`, `t_n_vec` and `phi0_vec`)
evaluates on arrays of k via one fixed graded Gauss-Legendre rule on
[0, T_MAX], built at import, whose panels are geometrically refined toward
t=0 to resolve the Lorentzian knee at t ~ 1/k for every supported k_max
(up to 2^14); it takes no tolerance.  It is the path the solver reads:
the kernel tables, `slip` and `profile` take their moments from it, and
``verify``'s identities group checks it against the exact moment table
and the adaptive path.  Wavenumbers are supported in [0, K_LIMIT] (2^14).
Every function takes one integer order in [0, 8], checked by one rule.
:func:`check_wavenumbers` and :func:`check_gamma`, each naming the first
bad entry, are the one copy of each array rule (the pole residuals use
them too); only the cached `t_n` keeps its scalar comparison.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import K_LIMIT, T_MAX, integrate_gaussian_weighted

__all__ = [
    "GasParameters",
    "MOMENTS",
    "t_n",
    "j_n",
    "dispersion_l",
    "phi0",
    "MomentBatch",
    "fixed_row",
    "t_n_vec",
    "phi0_vec",
    "check_wavenumbers",
    "check_gamma",
]

SQRT_PI = math.sqrt(math.pi)

_MAX_ORDER = 8


@dataclass(frozen=True)
class GasParameters:
    """Physical inputs: density parameter, diffusion coefficient, gradient.

    ``gamma`` is the dimensionless density correction (4/15) pi n sigma^3,
    ``q`` the fraction of molecules re-emitted diffusely at the wall and
    ``g_v`` the far-field dimensionless velocity gradient.
    """

    gamma: float
    q: float
    g_v: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.q == 0.0:
            raise ValueError(
                "q must be in (0, 1], got 0.0: q=0 is the pure-specular "
                "limit where the slip expansion in (2-q)/q diverges"
            )
        if not (0.0 < self.q <= 1.0):
            raise ValueError(f"q must be in (0, 1], got {self.q}")
        if not math.isfinite((2.0 - self.q) / self.q):  # q subnormal
            raise ValueError(f"q={self.q} is too small: (2-q)/q is not finite")
        if not math.isfinite(self.g_v):
            raise ValueError("g_v must be finite")


#: exact T_n(0) = Gamma((n+1)/2)/sqrt(pi) for the orders the method uses:
#: {1, 1/sqrt(pi), 1/2, ...}.  Even orders are the dyadic rationals
#: (n-1)!!/2^(n/2), exact, so the recurrence identities are exact at k=0.
MOMENTS = tuple(
    math.prod(range(n - 1, 0, -2)) / 2 ** (n // 2) if n % 2 == 0
    else math.factorial((n - 1) // 2) / SQRT_PI
    for n in range(_MAX_ORDER + 1)
)


# ---------------------------------------------------------------------------
# fixed graded rule for vectorised evaluation
# ---------------------------------------------------------------------------

class _GradedRule:
    """Composite 20-point Gauss-Legendre rule on [0, t_max].

    Panels are [0, 2^-12, 2^-11, ..., 1, 2, 4, t_max]: each octave sees a
    smooth factor-of-four variation of 1/(1 + k^2 t^2), so 20-point Gauss is
    exact to machine precision for every moment used here while the knee 1/k
    is resolved.  Measured against QUADPACK with a breakpoint at 1/k, T_0..T_6
    agree to 2e-11 relative up to k = 2^14 (``K_LIMIT``, the largest
    supported wavenumber); at k = 2^16, T_0 is off by 1.7e-6.
    """

    def __init__(self, t_max: float):
        xg, wg = np.polynomial.legendre.leggauss(20)
        edges = [0.0] + [2.0**e for e in range(-12, 2)]
        while edges[-1] < t_max:
            edges.append(min(edges[-1] * 2.0, t_max))
        nodes, weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (b - a) * xg + 0.5 * (a + b))
            weights.append(0.5 * (b - a) * wg)
        self.t = np.concatenate(nodes)
        self.w_exp = np.concatenate(weights) * np.exp(-self.t**2)
        self.t_sq = self.t**2
        self.t_pow = {n: self.t**n for n in range(_MAX_ORDER + 1)}
        self.moment_weights = {
            n: 2.0 / SQRT_PI * self.t_pow[n] * self.w_exp
            for n in range(_MAX_ORDER + 1)
        }


_RULE = _GradedRule(T_MAX)


def check_wavenumbers(k: np.ndarray, name: str = "k") -> None:
    """Reject wavenumbers outside [0, K_LIMIT] (NaN included) by one min and
    max of the float array ``k``, naming the first bad entry ``name=...``: past
    the limit the graded rule misses the knee (t_n_vec(1, [1e8]) was 16% low)."""
    lo, hi = k.min(initial=0.0), k.max(initial=0.0)
    if not (lo >= 0.0 and hi <= K_LIMIT):  # min and max propagate NaN
        bad = k.flat[np.argmin((k >= 0.0) & (k <= K_LIMIT))]
        raise ValueError(f"wavenumber must be in [0, {K_LIMIT:g}], got {name}={bad}")


class MomentBatch:
    """Shared-denominator evaluator for several moments at one k batch.

    Builds the Lorentzian weight matrix 1/(1 + k^2 t^2) over the graded rule
    once; every requested moment is then a single matrix-vector contraction.
    ``fixed_row(n, k_fixed)`` prepares the extra row for double-Lorentzian
    J_n(k_fixed, k) moments, contracted with :meth:`against`.
    """

    def __init__(self, k):
        self.k = np.atleast_1d(np.asarray(k, dtype=float))
        check_wavenumbers(self.k)
        # 1/(1 + k^2 t^2) in place, in the bits of the plain expression
        w = np.multiply.outer(self.k * self.k, _RULE.t_sq)
        w += 1.0
        self._weights = np.divide(1.0, w, out=w)
        self._zero = self.k == 0.0

    def t(self, n: int) -> np.ndarray:
        _check_order(n)
        out = self._weights @ _RULE.moment_weights[n]
        out[self._zero] = MOMENTS[n]
        return out

    def against(self, row: np.ndarray) -> np.ndarray:
        return self._weights @ row


def fixed_row(n: int, k_fixed: float) -> np.ndarray:
    """Rule row for J_n(k_fixed, .): contract with MomentBatch.against."""
    _check_order(n)
    check_wavenumbers(np.array([k_fixed], dtype=float))
    return _RULE.moment_weights[n] / (1.0 + k_fixed**2 * _RULE.t_sq)


def t_n_vec(n: int, k) -> np.ndarray:
    """T_n at an array of wavenumbers; exact moment table at k=0."""
    return MomentBatch(k).t(n)


def phi0_vec(k) -> np.ndarray:
    """Seed spectral numerator (sqrt(pi)/2) T_3 - T_4, vectorised."""
    batch = MomentBatch(k)
    return SQRT_PI / 2.0 * batch.t(3) - batch.t(4)


# ---------------------------------------------------------------------------
# scalar contract functions (adaptive engine, cached)
# ---------------------------------------------------------------------------

def _check_order(n: int) -> None:
    if type(n) is int and 0 <= n <= _MAX_ORDER:  # the common case, no ABC check
        return
    # bool is an int, but not an order
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not 0 <= n <= _MAX_ORDER:
        raise ValueError(f"moment order must be an integer in [0, {_MAX_ORDER}], got {n!r}")


@lru_cache(maxsize=65536)
def _t_n_cached(n: int, k: float) -> float:
    # the Lorentzian's knee t = 1/k is a breakpoint: without it the error
    # estimate can miss the knee and stop early (T_4(85.625) was 2e-8 off)
    return integrate_gaussian_weighted(
        lambda t: 2.0 / SQRT_PI * np.asarray(t) ** n / (1.0 + k * k * np.asarray(t) ** 2),
        label=f"T_{n}(k={k:.6g})",
        knees=(1.0 / k,),
    )


@lru_cache(maxsize=65536)
def _j_n_cached(n: int, k: float, k1: float) -> float:
    # both knees are breakpoints, as for T_n; at k = 0 there is none
    return integrate_gaussian_weighted(
        lambda t: 2.0 / SQRT_PI * t**n / ((1.0 + k * k * t**2) * (1.0 + k1 * k1 * t**2)),
        label=f"J_{n}(k={k:.6g}, k1={k1:.6g})",
        knees=tuple(1.0 / v for v in (k, k1) if v),
    )


def t_n(n: int, k: float) -> float:
    """Moment T_n(k) at one wavenumber k in [0, K_LIMIT] (`t_n_vec` takes
    arrays); the k=0 values come from the exact moment table."""
    _check_order(n)
    if np.ndim(k):
        raise ValueError(
            f"k must be one wavenumber, got an array of shape {np.shape(k)}; "
            "t_n_vec takes arrays"
        )
    if not 0 <= k <= K_LIMIT:  # also catches NaN
        raise ValueError(f"wavenumber must be in [0, {K_LIMIT:g}], got k={k}")
    if k == 0.0:
        return MOMENTS[n]
    return _t_n_cached(n, float(k))


def check_gamma(gamma) -> None:
    """Reject a density parameter (or any entry) outside [0, 1), NaN included."""
    if type(gamma) is float and 0.0 <= gamma < 1.0:  # the common case, no numpy
        return
    if not all(0.0 <= v < 1.0 for v in np.ravel(gamma).tolist()):
        raise ValueError("gamma must be in [0, 1)")


def j_n(n: int, k, k1) -> float | np.ndarray:
    """Double-Lorentzian moment J_n(k, k1) of one order; symmetric in (k, k1).

    The wavenumbers ``k`` and ``k1`` broadcast together: arrays give an
    array and scalars a float.  Each member is one cached adaptive integral
    with its own knees 1/k and 1/k1 as breakpoints, bit for bit the member
    of a family call (``integrate_gaussian_weighted`` with ``params``).
    """
    _check_order(n)
    k, k1 = np.asarray(k, dtype=float), np.asarray(k1, dtype=float)
    check_wavenumbers(k)
    check_wavenumbers(k1, "k1")
    shape = np.broadcast_shapes(k.shape, k1.shape)
    k, k1 = (np.broadcast_to(a, shape).ravel().tolist() for a in (k, k1))
    values = [_j_n_cached(int(n), a, b) for a, b in zip(k, k1)]
    return values[0] if shape == () else np.array(values).reshape(shape)


def dispersion_l(k: float, gamma: float) -> float:
    """Dispersion function L(k) = (1 - gamma) k^2 T_2(k) at one wavenumber.

    The pole-free product form is used rather than 1 - T_0 - gamma k^2 T_2;
    the two agree identically (tested) but this one is exact at k=0.
    """
    check_gamma(gamma)
    t2 = t_n(2, k)  # checks k before k * k can overflow
    return (1.0 - gamma) * k * k * t2


def phi0(k: float) -> float:
    """Seed function phi_0(k) = (sqrt(pi)/2) T_3(k) - T_4(k).

    Equal to int_0^inf (1 - 2t/sqrt(pi)) exp(-t^2) t^3/(1+k^2 t^2) dt; it is
    negative for all k and its 1/k^2 tail coefficient vanishes, leaving a
    ~ln(k)/k^4 tail.
    """
    return SQRT_PI / 2.0 * t_n(3, k) - t_n(4, k)
