"""Physical outputs: slip velocity, slip coefficient, profiles, distribution.

Everything here is assembled from a built :class:`SeriesExpansion`.  The
wall-layer velocity is the inverse Fourier transform of the spectral
density; evenness reduces it to a cosine integral,

    U_c(x) = G_v (2-q) (1/pi) int_0^inf cos(k x) E_q(k) dk,

with E_q = sum_n q^n E_n of the gamma-free E_n (the density at gamma,
E_n/(1-gamma), cancels the 1-gamma of G_v (1-gamma) (2-q)), summed from the
per-order polynomial pieces (the interpolant is linear in its node values,
so nothing is refitted).  Up to k_max, the last node of the series grid,
the density is a quintic on each knot interval, and the integral of a
polynomial times e^{ikx} has a closed form (Filon's method), so the head of
each transform costs the same at every x1 >= 0.  Beyond k_max the fitted
density model is integrated exactly at x1 = 0 and, at x1 > 0, along the
ray turned up into the complex half-plane, by one 16-point Gauss-Laguerre
sum (numerical steepest descent), from k_max where x1 k_max >= 40 and past
a short Gauss-Legendre stretch nearer the wall.  One transform call covers
any number of coordinates, and its rows are fixed by mu: the cosine
transform alone for U_c, or, given mu, the cosine, damped cosine and damped
k-sine transforms of h(x1, mu).  Everything that does not depend on the
coordinates (the summed pieces, their moment tables, the tail fit and the
transforms at x1 = 0) is planned once per densities, weights and mu and
kept in a bounded cache (_plan), so a call pays only for its coordinates,
which go through one vectorised pass, in bounded chunks.  So
velocity_profile makes one call for all its nodes, and distribution_function
takes one coordinate or an array of them.  The k-integrals of the source
bracket of h are the plain and damped cosine transforms at 0 of
sum_{n<N} q^n E_n, a second row of weights in the same plan.  Nothing here
integrates adaptively.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as C
from scipy.interpolate import PPoly

from .kernels import SpectralFunction
from .neumann import SeriesExpansion, u0
from .quadrature import _fit_log_tail, _log_integral, _tail_guard, _tail_points
# perfbench/tracing.py rebinds integrate_spectral here, though nothing here
# calls it; the import goes once the tracer tolerates absent names (ROADMAP)
from .quadrature import integrate_spectral  # noqa: F401
from .special_integrals import SQRT_PI, GasParameters

__all__ = [
    "VelocityProfile",
    "DimensionalContext",
    "slip_velocity",
    "slip_coefficient_kv",
    "velocity_profile",
    "distribution_function",
    "gamma_from_physical",
    "dimensional_slip",
]

@dataclass(frozen=True, eq=False)
class VelocityProfile:
    """Sampled velocity with its asymptote split off.

    ``u_total = u_sl + g_v x + u_continuum`` at every node by construction,
    and must be finite; the continuum part decays to zero away from the wall.
    The arrays are read-only, and a writable input array is copied, not
    frozen.  Instances compare and hash by identity.
    """

    x_nodes: np.ndarray
    u_continuum: np.ndarray
    u_sl: float
    g_v: float
    u_total: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        x = _coordinates(self.x_nodes)
        u_c = np.asarray(self.u_continuum, dtype=float)
        if u_c.shape != x.shape:
            raise ValueError(f"u_continuum has shape {u_c.shape}, x_nodes {x.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            u_total = self.u_sl + self.g_v * x + u_c
        _check_finite(f"g_v={self.g_v}: u_total", u_total, x)
        # copy a writable input, so as not to freeze its owner's array
        x, u_c = (a.copy() if a.flags.writeable else a for a in (x, u_c))
        for name, arr in (("x_nodes", x), ("u_continuum", u_c), ("u_total", u_total)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _coordinates(x_nodes) -> np.ndarray:
    """``x_nodes`` as a 1-d float array of finite coordinates >= 0."""
    x = np.atleast_1d(np.asarray(x_nodes, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"x_nodes must be 1-d, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x_nodes must be finite")
    if np.any(x < 0.0):
        raise ValueError("x_nodes must be >= 0")
    return x


def _check_finite(name: str, values: np.ndarray, x: np.ndarray) -> None:
    """Reject non-finite ``values`` at coordinates ``x`` of the same shape,
    naming the first."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"{name} is not finite at x1={x[bad][0]:g}")


def _check_positive(name: str, value: float) -> None:
    if not (0.0 < value < math.inf):  # also false for NaN
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class DimensionalContext:
    """Collision frequency nu, beta = m/(2kT), and the mean free path.

    With viscosity eta = rho/(2 nu beta) and l = eta sqrt(pi beta)/rho, the
    mean free path is l = sqrt(pi)/(2 nu sqrt(beta)), derived on
    construction.
    """

    nu: float
    beta: float
    mean_free_path: float = field(init=False)

    def __post_init__(self) -> None:
        _check_positive("nu", self.nu)
        _check_positive("beta", self.beta)
        # divided in steps, so a subnormal nu overflows to inf (rejected by
        # name) instead of underflowing the denominator to 0
        path = SQRT_PI / 2.0 / self.nu / math.sqrt(self.beta)
        _check_positive("mean_free_path", path)
        object.__setattr__(self, "mean_free_path", path)


def _check_pair(params: GasParameters, series: SeriesExpansion) -> None:
    if params.gamma != series.gamma:
        raise ValueError(
            f"series was built for gamma={series.gamma}, "
            f"parameters carry gamma={params.gamma}"
        )


def _series_sum(params: GasParameters, series: SeriesExpansion) -> float:
    """sum_n U_n q^n over the available orders."""
    return sum(
        u * params.q**n for n, u in enumerate(series.u_coeffs)
    )


def _finite_slip(name: str, value: float, params: GasParameters) -> float:
    """``value``, the slip quantity ``name`` at ``params``, once it is
    finite: (2-q)/q can be finite where the product overflows (K_v at
    q = 1.2e-308)."""
    if not math.isfinite(value):
        raise ValueError(
            f"q={params.q}, g_v={params.g_v}: {name} is not finite ({value})"
        )
    return value


def slip_velocity(params: GasParameters, series: SeriesExpansion) -> float:
    """Dimensionless slip velocity G_v (1-gamma) ((2-q)/q) sum U_n q^n."""
    _check_pair(params, series)
    return _finite_slip("the slip velocity", (
        params.g_v
        * (1.0 - params.gamma)
        * (2.0 - params.q)
        / params.q
        * _series_sum(params, series)
    ), params)


def slip_coefficient_kv(params: GasParameters, series: SeriesExpansion) -> float:
    """Slip coefficient K_v(q) = ((2-q)/q) (sum U_n q^n) (2/sqrt(pi)).

    Dimensionless multiplier of l * du_y/dx in the extrapolated wall
    velocity; independent of the gradient.
    """
    _check_pair(params, series)
    return _finite_slip(
        "K_v", (2.0 - params.q) / params.q * _series_sum(params, series) * 2.0 / SQRT_PI,
        params,
    )


# ---------------------------------------------------------------------------
# oscillatory spectral transforms
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

# Chebyshev tables of the head.  A knot interval [a, b] of the density is
# mapped to t in [-1, 1] by k = m + r t (midpoint m, half-width r), and the
# integrand on it is interpolated as sum_n e_n T_n(t) at 14 Chebyshev points.
_DEGREE = 5  # of the density's pieces
_N_CHEB = 14  # coefficients of the interpolant (degree 13)
_PRODUCT_T = C.chebpts1(_N_CHEB)
#: [point, j]: (1 + t)^j at _PRODUCT_T, which evaluates a piece from the
#: local coefficients of p(a + s), s = r (1 + t)
_LOCAL_VALUES = np.vander(1.0 + _PRODUCT_T, _DEGREE + 1, increasing=True)
#: values at _PRODUCT_T -> Chebyshev coefficients of their interpolant
_FROM_VALUES = np.linalg.inv(C.chebvander(_PRODUCT_T, _N_CHEB - 1))
#: [j, n]: T_n^(j)(1) = prod_{l<j} (n^2 - l^2)/(2l + 1), and
#: T_n^(j)(-1) = (-1)^(n+j) T_n^(j)(1)
_ENDPOINT_DERIVS = np.ones((_N_CHEB, _N_CHEB))
for _j in range(1, _N_CHEB):
    _ENDPOINT_DERIVS[_j] = (_ENDPOINT_DERIVS[_j - 1]
                            * (np.arange(_N_CHEB) ** 2 - (_j - 1) ** 2) / (2 * _j - 1))
#: [m, part, n]: coefficients, in 1/w^2, of the parts R_-, R_+, I_+ and I_-
#: of the closed-form moment sum (see _head_pieces): 2 (-1)^m T_n^(j)(1),
#: negated for the I parts, with j = 2m + 1 for R and 2m for I, even n for
#: R_- and I_+ and odd n for R_+ and I_-
_ODD = np.arange(_N_CHEB) % 2
_SIGNS = 2.0 * (-1.0) ** np.arange(_N_CHEB // 2)[:, None]
_HORNER = np.stack([
    _SIGNS * _ENDPOINT_DERIVS[1::2] * (1 - _ODD),
    _SIGNS * _ENDPOINT_DERIVS[1::2] * _ODD,
    -_SIGNS * _ENDPOINT_DERIVS[0::2] * (1 - _ODD),
    -_SIGNS * _ENDPOINT_DERIVS[0::2] * _ODD,
], axis=1)
#: [n, p]: int_{-1}^{1} T_n(t) t^p dt, exact by 16-point Gauss-Legendre
_POWER_MOMENTS = (C.chebvander(_GL_X, _N_CHEB - 1) * _GL_W[:, None]).T @ np.vander(
    _GL_X, 16, increasing=True)
#: [p, n]: the Taylor coefficients (-1)^(p//2)/p! int T_n(t) t^p dt of
#: int T_n(t) e^{iwt} dt, real for even p and imaginary for odd p
_SERIES = (_POWER_MOMENTS * (-1.0) ** (np.arange(16) // 2)
           / [math.factorial(p) for p in range(16)]).T
#: [q, part, n]: the series of the real part (even n) and of the imaginary
#: part over w (odd n) of the moment sum (see _head_pieces), in w^2.  Below
#: w = 0.5 the first term left out is under 1e-19.
_TAYLOR = np.stack([_SERIES[0::2] * (1 - _ODD), _SERIES[1::2] * _ODD], axis=1)
#: below x h = 2 w = 1 the closed-form moment sum cancels; the Taylor series
#: takes those pieces
_CLOSED_FORM_MIN_OMEGA = 0.5
#: largest |mu| of h(x1, mu): the 14-point interpolant of a damped piece
#: must resolve the width 1/|mu| on the first knot interval (0.032).  Against
#: QUADPACK on the first 12 knot intervals at x1 from 0 to 1000, the damped
#: cosine head is off by at most 3e-16 at 10, 8e-13 at 20 and 9e-8 at 100.
MU_MAX = 10.0
#: coordinates per pass of the x-dependent work, which bounds its
#: (rows, coordinates, knot intervals) and tail arrays on long ranges
_X_CHUNK = 128
#: below x k_max = eps, cos(k x) is 1 to rounding on the whole head and the
#: transforms are at their x = 0 limit (the k-sine one at 0), while the
#: half periods pi/x past k_max overflow for subnormal x: such coordinates
#: are transformed as x = 0
_WALL_OMEGA = float(np.finfo(float).eps)

# Tails past k_max (see _tail_pieces): the ray from the start turned up into
# the complex half-plane, where the decaying e^{ikx} leaves a smooth integrand.
#: nodes and weights of the 16-point Gauss-Laguerre rule of those tails
_LAGUERRE_T, _LAGUERRE_W = np.polynomial.laguerre.laggauss(16)
#: smallest x start the tails are summed from (see _tail_pieces).  Against
#: mpmath at k_max 50 and 800, the rule is at rounding from 24 on, 9e-15
#: relative off at 16 and 6e-10 at 8 (the damped row), so 40 has a margin.
_CONTOUR_MIN_PHASE = 40.0


def check_mu(mu: float) -> float:
    """``mu`` as a float, once it is one velocity in the domain of
    h(x1, mu); anything else is rejected by name."""
    if np.ndim(mu):
        raise ValueError(f"mu must be one velocity, got an array of shape {np.shape(mu)}")
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if abs(mu) > MU_MAX:
        raise ValueError(f"mu must lie in [-{MU_MAX:g}, {MU_MAX:g}], got {mu:g}")
    return mu


def _horner(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] u^m, with the interval axis of ``coeffs`` last."""
    total = np.zeros(coeffs.shape[1:-1] + u.shape)
    for c in coeffs[::-1, ..., None, :]:
        total *= u
        total += c
    return total


def _head_pieces(
    nodes: np.ndarray, c: np.ndarray, mu: float | None = None
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Heads on every knot interval below k_max: of the cosine transform
    alone when ``mu`` is None, else of the cosine, damped cosine and damped
    k-sine transforms (the rows of :func:`_osc_transform`).

    Returns ``(tables, integrals)`` of the densities whose quintic pieces on
    ``nodes`` are ``c`` [power, density, knot interval], each as in
    ``SpectralFunction.c``.  ``tables`` are the first density's moment
    tables, from which :func:`_heads` makes its heads [row, coordinate,
    knot interval] at any coordinates; ``integrals`` [row, density] holds
    the heads at x = 0, summed over the intervals, of every density (0 for
    the k-sine row).  On each knot interval the pieces of the densities are
    evaluated at 14 Chebyshev points straight from their local coefficients
    and multiplied there by the row's factor: 1, the damping, or k times
    the damping.  The
    interpolant of these values gives the Chebyshev coefficients e_n of the
    integrand P(k), to degree 13, but only e_0..e_5 in the cosine row, where
    P is the quintic piece itself (so that row has the same bits with and
    without ``mu``).  Then int_a^b P(k) e^{ikx} dk =
    r e^{ixm} sum_n e_n K_n(x r) with the moments K_n(w) = int_{-1}^{1}
    T_n(t) e^{iwt} dt.  Repeated integration by parts gives K_n =
    sum_j (-1)^j [T_n^(j)(t) e^{iwt}]_{-1}^{1} / (iw)^(j+1), which ends after
    j = n.  Summed over n, the even n give the real part
    cos(w) R_- - sin(w) I_+ and the odd n the imaginary part
    sin(w) R_+ + cos(w) I_-, where R_-, R_+ are w^-2 and I_+, I_- are w^-1
    times polynomials in 1/w^2 (``_HORNER``).  Below w = 0.5, where that
    form cancels, the Taylor series of e^{iwt} gives polynomials in w^2
    instead (``_TAYLOR``; exact at x = 0, where only its constant term is
    left).  Both contractions with the Chebyshev coefficients are made
    here, once, so each coordinate and interval costs one real Horner pass.
    The cosine rows take the real part, the k-sine one the imaginary part.
    This is Filon's method with the density's own knots (Iserles & Norsett,
    Proc. R. Soc. A 461, 2005).
    """
    lo, hi = nodes[:-1], nodes[1:]
    r = 0.5 * (hi - lo)
    mid = lo + r
    densities = c.shape[1]
    # c holds the coefficients of (k - lo)^(5-m); k - lo = r (1 + t)
    values = (_LOCAL_VALUES @ (c[::-1] * r ** np.arange(_DEGREE + 1)[:, None, None])
              .reshape(_DEGREE + 1, -1)).reshape(_N_CHEB, densities, -1)
    if mu is None:
        # an undamped piece has degree 5: its coefficients past T_5 are zero
        products, size = values[:, None], _DEGREE + 1
    else:
        # [point, 1, interval], broadcast over the densities
        k = (mid + r * _PRODUCT_T[:, None])[:, None]
        damped = values * (1.0 / (1.0 + (k * mu) ** 2))
        products, size = np.stack([values, damped, damped * k], axis=1), _N_CHEB
    rows = products.shape[1]
    coeffs = _FROM_VALUES[:size] @ products.reshape(_N_CHEB, -1)
    # the cosine row is the quintic piece: its e_6..e_13 are rounding
    coeffs.reshape(size, rows, -1)[_DEGREE + 1:, 0] = 0.0
    integrals = (r * (_TAYLOR[0, 0, :size] @ coeffs).reshape(
        rows, densities, -1)).sum(axis=-1)
    integrals[2:] = 0.0  # the k-sine row
    coeffs = coeffs.reshape(size, rows, densities, -1)[:, :, 0].reshape(size, -1)
    closed = (_HORNER[:size // 2, :, :size] @ coeffs).reshape(size // 2, 4, rows, -1)
    taylor = (_TAYLOR[:, :, :size] @ coeffs).reshape(_TAYLOR.shape[0], 2, rows, -1)
    return (r, mid, closed, taylor), integrals


def _heads(tables: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """Heads [row, coordinate, knot interval] at coordinates ``x`` from the
    moment ``tables`` of :func:`_head_pieces`."""
    r, mid, closed, taylor = tables
    omega = x[:, None] * r
    small = omega < _CLOSED_FORM_MIN_OMEGA
    real = imag = 0.0
    if not small.all():
        inverse = 1.0 / np.where(small, 1.0, omega)
        r_minus, r_plus, i_plus, i_minus = _horner(closed, inverse * inverse)
        cos_w, sin_w = np.cos(omega), np.sin(omega)
        real = inverse * (cos_w * r_minus * inverse - sin_w * i_plus)
        imag = inverse * (sin_w * r_plus * inverse + cos_w * i_minus)
    if small.any():
        # only the small pairs are kept; the rest would overflow w^2
        w = np.where(small, omega, 0.0)
        even, odd = _horner(taylor, w * w)
        real = np.where(small, even, real)
        imag = np.where(small, w * odd, imag)
    theta = x[:, None] * mid
    cos_m, sin_m = np.cos(theta), np.sin(theta)
    pieces = cos_m * real - sin_m * imag
    # the k-sine row takes the imaginary part
    pieces[2:] = sin_m * real[2:] + cos_m * imag[2:]
    return r * pieces


def _amplitudes(
    alpha: float, beta: float, k: np.ndarray, mu: float | None
) -> np.ndarray:
    """[row, ...]: the tail amplitudes at wavenumbers ``k``, real or complex,
    against e^{ikx}: the fitted model (alpha + beta ln k)/k^2 alone without
    ``mu``, else also the model damped by 1/(1 + k^2 mu^2) and, for the
    k-sine row, k * k times that.  That row's k sin(kx) is taken times k: the
    known k-sine tail defect (ROADMAP), kept until the profile references
    are re-pinned.
    """
    model = (alpha + beta * np.log(k)) / k**2
    if mu is None:
        return model[None]
    damped = model * (1.0 / (1.0 + (k * mu) ** 2))
    return np.stack([model, damped, k * (k * damped)])


def _gauss_stretch(
    alpha: float, beta: float, x: np.ndarray, mu: float | None, k_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Near-wall tails [row, coordinate] from k_max to the contour start.

    For 0 < x k_max < _CONTOUR_MIN_PHASE the contour of :func:`_tail_pieces`
    starts at the first half-period zero past _CONTOUR_MIN_PHASE / x, which
    is also returned, one per coordinate.  The stretch up to it is a stub
    from k_max to the first multiple of pi/(2x) past it, geometrically split
    in case x is tiny, and then at most 13 half periods; every interval
    takes 16-point Gauss-Legendre, on one (coordinate, interval, point)
    array of wavenumbers that all rows share.
    """
    quarter = math.pi / (2.0 * x)
    half = 2.0 * quarter
    zero = quarter * np.ceil(k_max / quarter + 1e-12)
    zero = np.where(zero <= k_max, zero + half, zero)
    periods = np.maximum(np.ceil((_CONTOUR_MIN_PHASE / x - zero) / half), 0.0)
    start = zero + periods * half
    # stub intervals [k_max 2^i, k_max 2^(i+1)] below zero, then [., zero],
    # then the half periods; those past zero or start have zero width
    stubs = 1
    while k_max * 2.0**stubs < zero.max():
        stubs += 1
    edges = np.concatenate([
        np.minimum(k_max * 2.0 ** np.arange(stubs), zero[:, None]),
        np.minimum(zero[:, None] + half[:, None] * np.arange(periods.max() + 1),
                   start[:, None]),
    ], axis=1)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])[..., None]
    width = 0.5 * (edges[:, 1:] - edges[:, :-1])[..., None]
    k = mid + width * _GL_X
    amplitudes = _amplitudes(alpha, beta, k, mu)
    xk = k * x[:, None, None]
    waves = amplitudes * np.cos(xk)
    if mu is not None:
        waves[2:] = amplitudes[2:] * np.sin(xk)  # the k-sine row
    return (waves * (width * _GL_W)).sum(axis=(-2, -1)), start


def _tail_pieces(
    alpha: float, beta: float, x: np.ndarray, mu: float | None, k_max: float
) -> np.ndarray:
    """Tails [row, coordinate] past k_max of the fitted density model at x > 0.

    Each is int_start^inf F(k) e^{ikx} dk, its real part for the cosine
    rows and its imaginary part for the k-sine one, with F an amplitude of
    :func:`_amplitudes`.  F is analytic in the right half-plane, so the ray
    turns up to start + it, where e^{ikx} decays like e^{-tx}:
    (i e^{i start x}/x) int_0^inf F(start + i tau/x) e^{-tau} dtau, summed
    by the 16-point Gauss-Laguerre rule (numerical steepest descent:
    Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44, 2006).  F changes on
    the scale tau ~ x start, so the rule is used where x start >=
    _CONTOUR_MIN_PHASE: from k_max where x k_max reaches that, and past the
    stretch of :func:`_gauss_stretch` nearer the wall.
    """
    start = np.full(x.shape, k_max)
    near = x * k_max < _CONTOUR_MIN_PHASE
    if near.any():
        stretch, start[near] = _gauss_stretch(alpha, beta, x[near], mu, k_max)
    k = start[:, None] + 1j * _LAGUERRE_T / x[:, None]
    waves = (1j * np.exp(1j * (start * x)) / x
             * (_amplitudes(alpha, beta, k, mu) @ _LAGUERRE_W))
    tails = np.concatenate([waves[:2].real, waves[2:].imag])
    if near.any():
        tails[:, near] += stretch
    return tails


class _Plan(NamedTuple):
    """What a transform keeps of its densities, weights and mu (see
    :func:`_plan`); every array is read-only."""

    tables: tuple[np.ndarray, ...]  # the first D's moment tables (_head_pieces)
    fit: tuple[float, float]  # (alpha, beta) of the first D's tail model
    heads: np.ndarray  # [row, D]: the heads at x = 0 (0 in the k-sine row)
    tails: np.ndarray  # [cosine row, D]: the fitted tails at x = 0, unguarded


@lru_cache(maxsize=32)
def _plan(densities: tuple, weights: tuple, mu: float | None) -> _Plan:
    """The coordinate-free part of :func:`_osc_transform`, made once per
    key: the series' own densities (compared by identity, so the series at
    every gamma that hold them share an entry), the weight rows as tuples
    of floats and mu as a float or None.

    Checks that the densities share one grid, sums each row's density D
    from their pieces, and keeps the first D's moment tables and tail fit
    and every D's heads and fitted tails at x = 0.  The tails are
    unguarded: each call guards the ones it reads.
    """
    nodes = densities[0].nodes
    for d in densities[1:]:
        if d.nodes is not nodes and not np.array_equal(d.nodes, nodes):
            raise ValueError(f"{d.label} and {densities[0].label} differ in grid")
    # [power, D, knot interval]
    c = np.stack([sum(w * d.c for w, d in zip(row, densities)) for row in weights], 1)
    k_max = densities[0].k_max
    tables, heads = _head_pieces(nodes, c, mu)
    # [point, D]: each D at any k in [0, k_max]
    sums = PPoly.construct_fast(c.transpose(0, 2, 1), nodes)
    fit = _fit_log_tail(lambda k: sums(k)[:, 0], k_max,
                        f"transform tail fit at k_max={k_max:g}")
    # The model is fitted to the integrand, damping included, although a
    # damped integrand decays like /k^4: the known x1 = 0 defect (ROADMAP),
    # kept until the profile references are re-pinned.
    k_tail = _tail_points(k_max)
    samples = sums(k_tail)
    if mu is not None:
        damp = (1.0 / (1.0 + (k_tail * mu) ** 2))[:, None]
        samples = np.concatenate([samples, samples * damp], axis=1)
    tails = _log_integral(samples, k_max).reshape(-1, len(weights))
    for arr in (*tables, heads, tails):
        arr.setflags(write=False)
    return _Plan(tables, fit, heads, tails)


def _osc_transform(
    densities: Sequence[SpectralFunction],
    weights: Sequence[Sequence[float]],
    x: np.ndarray,
    mu: float | None = None,
    label: str = "oscillatory transform at x={x:.4g}",
) -> tuple[np.ndarray, np.ndarray]:
    """Transforms int_0^inf w(k x) D(k) dk: ``(values, wall)``.

    Each row of ``weights`` gives one density D = sum_n w[n] densities[n]
    (a short row sums the leading ones; all lie on one grid), summed piece by
    piece in order: the interpolant is linear in its node values, so nothing is
    refitted.  The rows of the result are fixed by ``mu``: without it the cosine
    transform alone (w = cos), with it also the damped cosine and damped k-sine
    transforms (w = cos and k*sin times the damping 1/(1 + k^2 mu^2) of the
    distribution-function integrands).  ``values`` [row, coordinate] holds the
    transforms of the first D at every x (>= 0: the public callers reject
    negative coordinates first), and ``wall`` [row, D] those at x = 0 of every
    further D (the source bracket of h).  At every x the head on [0, k_max] is
    integrated exactly, knot interval by knot interval, from the pieces, at a
    cost that does not grow with x.  Past k_max each transform continues the
    (a + b ln k)/k^2 model fitted to D at the tail points: at x > 0 as a
    Gauss-Laguerre sum on the contour turned up from k_max (nearer the wall,
    past a Gauss-Legendre stretch), and at x = 0 as its exact integral; the
    k-sine transform vanishes at x = 0.  Everything that does not depend on
    x (the summed pieces, their moment tables, the tail fit and the
    transforms at x = 0) comes from :func:`_plan`, made once per (densities,
    weights, mu); a call then takes the coordinates x > 0 in chunks of
    _X_CHUNK, each in one vectorised pass (:func:`_heads` and
    :func:`_tail_pieces`), and puts the x = 0 tails it reads, the first D's
    when a coordinate is at the wall and every further D's, under the 10%
    tail guard of :mod:`kramers.quadrature`.  Coordinates with x k_max below
    ``_WALL_OMEGA`` (machine epsilon; x < 2.8e-19 at k_max = 800) take the
    x = 0 value.  ``label`` is formatted with ``x=`` the coordinate an error
    is raised at.
    """
    plan = _plan(tuple(densities), tuple(tuple(map(float, row)) for row in weights), mu)
    x = np.asarray(x, dtype=float)
    k_max = densities[0].k_max
    if not math.isfinite(float(x.max(initial=0.0)) * k_max):
        at = next(v for v in map(float, x) if not math.isfinite(v * k_max))
        raise ValueError(f"{label.format(x=at)}: x * k_max overflows at x={at:g}")
    x = np.where(x * k_max < _WALL_OMEGA, 0.0, x)
    positive = x > 0.0
    values = np.empty((len(plan.heads), x.size))
    if positive.any():
        # continue the fitted density model beyond k_max
        far = x[positive]
        values[:, positive] = np.concatenate([
            _heads(plan.tables, chunk).sum(axis=-1)
            + _tail_pieces(*plan.fit, chunk, mu, k_max)
            for chunk in np.split(far, range(_X_CHUNK, far.size, _X_CHUNK))
        ], axis=1)
    # the transforms at x = 0 that are read: the first D's at wall
    # coordinates, and every further one's
    cosines = len(plan.tails)
    members = list(range(1 if positive.all() else 0, len(weights)))
    if members:
        _tail_guard(
            plan.tails[:, members].ravel(), plan.heads[:cosines, members].ravel(), k_max,
            lambda i: (label.format(x=0.0) if members[i % len(members)] == 0
                       else f"source bracket at mu={mu:.4g}"),
        )
    wall = plan.heads.copy()
    wall[:cosines] += plan.tails
    values[:, ~positive] = wall[:, :1]
    return values, wall[:, 1:]


def velocity_profile(
    params: GasParameters, series: SeriesExpansion, x_nodes
) -> VelocityProfile:
    """Sample U(x1) = U_sl + G_v x1 + U_c(x1) on the given coordinates.

    U_c at all of them comes from one transform call.
    """
    _check_pair(params, series)
    x_nodes = _coordinates(x_nodes)
    u_sl = slip_velocity(params, series)
    pref = params.g_v * (2.0 - params.q)
    transform = _osc_transform(
        series.e_funcs, [[params.q**n for n in range(series.order + 1)]], x_nodes,
        label="U_c cosine transform at x1={x:.4g}")[0][0]
    with np.errstate(over="ignore"):  # rejected by VelocityProfile
        u_c = pref * transform / math.pi
    return VelocityProfile(x_nodes=x_nodes, u_continuum=u_c, u_sl=u_sl, g_v=params.g_v)


def distribution_function(
    params: GasParameters,
    series: SeriesExpansion,
    x1: float | np.ndarray,
    mu: float,
) -> float | np.ndarray:
    """Velocity distribution h(x1, mu) = h_as + h_c in the half-space x1 >= 0.

    The asymptotic part is U_sl + G_v [x1 - (1-gamma) mu].  The wall part is
    assembled from the spectral density and the source bracket

        R_q(mu) = (|mu| - U_0)
                  - sum_{n>=1} q^n [ U_n
                  + (1/pi) int (gamma + (1-gamma)/(1+k^2 mu^2)) E_{n-1} dk ],

    whose Lorentzian k-integrals against cos and k sin have the closed form
    R_q(mu) e^{-x1/mu} for mu > 0 (zero for mu < 0); the density part is
    carried by the cosine and k-sine transforms of E_q at x1.  The integral
    in R_q is the plain and damped cosine transform at x = 0 of
    sum_{n<N} q^n E_n, so it does not depend on x1: it comes from the same
    transform plan as the rest (the ``wall`` of :func:`_osc_transform`).
    Both parts carry G_v (1-gamma) (2-q), which the density at gamma,
    E_n/(1-gamma), cancels in the transforms; only R_q's integral divides
    by 1-gamma.  ``x1`` is a coordinate (giving a float) or an array of them
    (giving an array of that shape, from one transform pass).  Non-finite
    x1, an array mu and |mu| > 10 are rejected.
    """
    _check_pair(params, series)
    x = np.asarray(x1, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"x1 must be finite, got {x1}")
    mu = check_mu(mu)
    if (x < 0.0).any():
        raise ValueError("x1 must be >= 0 (profiles live in the half-space)")
    gamma, q, g_v = params.gamma, params.q, params.g_v
    pref = g_v * (2.0 - q)
    u_sl = slip_velocity(params, series)
    # E_q and, at mu > 0, the source bracket's density sum_{n<N} q^n E_n
    weights = [[q**n for n in range(series.order + 1)]]
    if mu > 0.0 and series.order >= 1:
        weights.append(weights[0][:-1])
    transforms, wall = _osc_transform(
        series.e_funcs, weights, x.reshape(-1), None if mu == 0.0 else mu,
        f"h_c transforms at x1={{x:.4g}}, mu={mu:.4g}")
    transforms = transforms.reshape(transforms.shape[:1] + x.shape) / math.pi
    # a large g_v overflows to inf, rejected by name below
    with np.errstate(over="ignore", invalid="ignore"):
        h_as = u_sl + g_v * (x - (1.0 - gamma) * mu)
        if mu == 0.0:
            h = h_as + pref * transforms[0]
        else:
            c0, c1, s1 = transforms
            h_c = pref * (gamma * c0 + (1.0 - gamma) * c1 + (1.0 - gamma) * mu * s1)
            if mu > 0.0:
                r = abs(mu) - u0()
                if series.order >= 1:
                    r -= sum(
                        series.u_coeffs[n] * q**n for n in range(1, series.order + 1)
                    )
                    plain, damped = wall[:2, 0]
                    r -= q * (gamma / (1.0 - gamma) * plain + damped) / math.pi
                # x / mu overflows to inf for a subnormal mu, and e^{-inf} = 0
                # is the right decay
                h_c = h_c + (1.0 - gamma) * pref * r * np.exp(-x / mu)
            h = h_as + h_c
    _check_finite(f"q={q}, g_v={g_v}: h(x1, mu={mu:g})", h, x)
    return float(h) if h.ndim == 0 else h


def gamma_from_physical(number_density: float, diameter: float) -> float:
    """Density parameter (4/15) pi n sigma^3 from physical inputs."""
    for name, value in (
        ("number_density", number_density), ("diameter", diameter),
    ):
        if not (0.0 <= value < math.inf):  # also false for NaN
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    gamma = 4.0 / 15.0 * math.pi * number_density * diameter**3
    if gamma >= 1.0:
        raise ValueError(
            f"gamma={gamma:.4g} >= 1: outside the moderately dense regime"
        )
    return gamma


def dimensional_slip(u_sl_dimensionless: float, ctx: DimensionalContext) -> float:
    """Convert a finite dimensionless slip velocity to m/s via u = U / sqrt(beta)."""
    if not math.isfinite(u_sl_dimensionless):
        raise ValueError(f"u_sl_dimensionless must be finite, got {u_sl_dimensionless}")
    return u_sl_dimensionless / math.sqrt(ctx.beta)
