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
each transform costs the same at every x1 >= 0.  Beyond k_max the fitted density model is integrated
exactly at x1 = 0 and summed as an alternating series over half periods
with iterated averaging at x1 > 0.  One transform call covers any number
of coordinates and any of the plain and damped cosine and the damped
k-sine of h(x1, mu): the polynomial pieces, their moment tables and the
tail fit are made once per call, and the coordinates then go through one
vectorised pass, in bounded chunks.  So velocity_profile makes one call
for all its nodes, and distribution_function takes one coordinate or an
array of them.  The k-integrals of the source bracket of h are the plain
and damped cosine transforms at 0, computed once per call.  Nothing here
integrates adaptively.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

from .kernels import SpectralFunction, weighted_sum
from .neumann import SeriesExpansion, u0
from .quadrature import _fit_log_tail, _log_tail, _tail_points
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

#: half periods summed, with iterated averaging, past k_max
_TAIL_TERMS = 48
_AVERAGING_WEIGHTS = np.array(
    [math.comb(_TAIL_TERMS - 1, i) for i in range(_TAIL_TERMS)], dtype=float
) / 2.0 ** (_TAIL_TERMS - 1)


@dataclass(frozen=True)
class VelocityProfile:
    """Sampled velocity with its asymptote split off.

    ``u_total - (u_sl + g_v x)`` equals ``u_continuum`` at every node by
    construction; the continuum part decays to zero away from the wall.
    """

    x_nodes: np.ndarray
    u_total: np.ndarray
    u_continuum: np.ndarray
    u_sl: float
    g_v: float

    def __post_init__(self) -> None:
        for name in ("x_nodes", "u_total", "u_continuum"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.x_nodes < 0.0):
            raise ValueError("profile coordinates must be >= 0")


def _check_positive(name: str, value: float) -> None:
    if not (0.0 < value < math.inf):  # also false for NaN
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _mean_free_path(nu: float, beta: float) -> float:
    # divided in steps, so a subnormal nu overflows to inf (rejected by
    # name) instead of underflowing the denominator to 0
    return SQRT_PI / 2.0 / nu / math.sqrt(beta)


@dataclass(frozen=True)
class DimensionalContext:
    """Collision frequency, beta = m/(2kT), and the mean free path.

    The three are linked: with viscosity eta = rho/(2 nu beta) and
    l = eta sqrt(pi beta)/rho, the product l sqrt(beta) nu equals
    sqrt(pi)/2.  Construction rejects inconsistent triples.
    """

    nu: float
    beta: float
    mean_free_path: float

    def __post_init__(self) -> None:
        for name in ("nu", "beta", "mean_free_path"):
            _check_positive(name, getattr(self, name))
        expected = _mean_free_path(self.nu, self.beta)
        if not math.isclose(self.mean_free_path, expected, rel_tol=1e-9):
            raise ValueError(
                f"inconsistent mean free path: got {self.mean_free_path:.6g}, "
                f"l = sqrt(pi)/(2 nu sqrt(beta)) requires {expected:.6g}"
            )

    @classmethod
    def from_frequency(cls, nu: float, beta: float) -> "DimensionalContext":
        """Build a consistent context from frequency and beta alone."""
        _check_positive("nu", nu)
        _check_positive("beta", beta)
        return cls(nu=nu, beta=beta, mean_free_path=_mean_free_path(nu, beta))


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


def slip_velocity(params: GasParameters, series: SeriesExpansion) -> float:
    """Dimensionless slip velocity G_v (1-gamma) ((2-q)/q) sum U_n q^n."""
    _check_pair(params, series)
    return (
        params.g_v
        * (1.0 - params.gamma)
        * (2.0 - params.q)
        / params.q
        * _series_sum(params, series)
    )


def slip_coefficient_kv(params: GasParameters, series: SeriesExpansion) -> float:
    """Slip coefficient K_v(q) = ((2-q)/q) (sum U_n q^n) (2/sqrt(pi)).

    Dimensionless multiplier of l * du_y/dx in the extrapolated wall
    velocity; independent of the gradient.
    """
    _check_pair(params, series)
    return (2.0 - params.q) / params.q * _series_sum(params, series) * 2.0 / SQRT_PI


# ---------------------------------------------------------------------------
# oscillatory spectral transforms
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

#: the transforms _osc_transform can return: oscillator and whether the
#: damping factor 1/(1 + k^2 mu^2) applies
_KINDS = {
    "cos": ("cos", False),
    "damped_cos": ("cos", True),
    "damped_ksin": ("ksin", True),
}

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
#: (kinds, coordinates, knot intervals) and tail arrays on long ranges
_X_CHUNK = 128
#: below x k_max = eps, cos(k x) is 1 to rounding on the whole head and the
#: transforms are at their x = 0 limit (the k-sine one at 0), while the
#: half periods pi/x past k_max overflow for subnormal x: such coordinates
#: are transformed as x = 0
_WALL_OMEGA = float(np.finfo(float).eps)


def check_mu(mu: float) -> None:
    """Reject, by name, a velocity outside the domain of h(x1, mu)."""
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if abs(mu) > MU_MAX:
        raise ValueError(f"mu must lie in [-{MU_MAX:g}, {MU_MAX:g}], got {mu:g}")


def _horner(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] u^m, with the interval axis of ``coeffs`` last."""
    total = np.zeros(coeffs.shape[1:-1] + u.shape)
    for c in coeffs[::-1, ..., None, :]:
        total *= u
        total += c
    return total


def _head_pieces(
    density: SpectralFunction, kinds: tuple[str, ...], mu: float = 0.0
) -> Callable[[np.ndarray], np.ndarray]:
    """Heads of ``kinds`` on every knot interval below k_max, as a function of x.

    The function returned maps an array of coordinates to the heads
    [kind, coordinate, knot interval].  On each knot interval the piece of
    the density is evaluated at 14 Chebyshev points straight from its
    local coefficients and multiplied there by the kind's factor: 1, the
    damping, or k times the damping.  The interpolant of these values gives
    the Chebyshev coefficients e_n of the integrand P(k), to degree 13; when
    no kind is damped, P is the quintic piece itself and only e_0..e_5 are
    kept.  Then int_a^b P(k) e^{ikx} dk =
    r e^{ixm} sum_n e_n K_n(x r) with the moments K_n(w) = int_{-1}^{1}
    T_n(t) e^{iwt} dt.  Repeated integration by parts gives K_n =
    sum_j (-1)^j [T_n^(j)(t) e^{iwt}]_{-1}^{1} / (iw)^(j+1), which ends after
    j = n.  Summed over n, the even n give the real part
    cos(w) R_- - sin(w) I_+ and the odd n the imaginary part
    sin(w) R_+ + cos(w) I_-, where R_-, R_+ are w^-2 and I_+, I_- are w^-1
    times polynomials in 1/w^2 (``_HORNER``).  Below w = 0.5, where that
    form cancels, the Taylor series of e^{iwt} gives polynomials in w^2
    instead (``_TAYLOR``; exact at x = 0).  Both contractions with the
    Chebyshev coefficients are made here, once, so each coordinate and
    interval costs one real Horner pass.  The cosine transforms take the
    real part, the k-sine one the imaginary part.  This is Filon's method
    with the density's own knots (Iserles & Norsett, Proc. R. Soc. A 461,
    2005).
    """
    forms = [_KINDS[kind] for kind in kinds]
    lo, hi = density.x[:-1], density.x[1:]
    r = 0.5 * (hi - lo)
    mid = lo + r
    # density.c holds the coefficients of (k - lo)^(5-m); k - lo = r (1 + t)
    values = _LOCAL_VALUES @ (density.c[::-1] * r ** np.arange(_DEGREE + 1)[:, None])
    k = mid + r * _PRODUCT_T[:, None]
    damp = 1.0 / (1.0 + (k * mu) ** 2)
    products = np.stack([
        values * (k if wave == "ksin" else 1.0) * (damp if damped else 1.0)
        for wave, damped in forms
    ], axis=1)
    # an undamped piece has degree 5: its coefficients past T_5 are zero
    size = _N_CHEB if any(damped for _, damped in forms) else _DEGREE + 1
    coeffs = _FROM_VALUES[:size] @ products.reshape(_N_CHEB, -1)
    closed = (_HORNER[:size // 2, :, :size] @ coeffs).reshape(
        size // 2, 4, len(kinds), -1)
    taylor = (_TAYLOR[:, :, :size] @ coeffs).reshape(
        _TAYLOR.shape[0], 2, len(kinds), -1)
    sine = np.array([wave == "ksin" for wave, _ in forms])[:, None, None]

    def heads(x: np.ndarray) -> np.ndarray:
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
        return r * np.where(sine, sin_m * real + cos_m * imag,
                            cos_m * real - sin_m * imag)

    return heads


def _alternating_tails(
    alpha: float, beta: float, x: np.ndarray, forms: list, mu: float, k_max: float
) -> np.ndarray:
    """Tails [kind, coordinate] past k_max of the fitted density model, x > 0.

    Each is a stub from k_max to the first multiple of pi/(2x) past it,
    geometrically split in case x is tiny, and then _TAIL_TERMS half periods
    summed with iterated averaging of their partial sums (alternating-series
    acceleration): averaging neighbours until one value is left weights
    partial sum i by C(n-1, i) / 2^(n-1).  Every interval takes 16-point
    Gauss-Legendre, on one (coordinate, interval, point) array of
    wavenumbers that all kinds share.
    """
    quarter = math.pi / (2.0 * x)
    half = 2.0 * quarter
    zero = quarter * np.ceil(k_max / quarter + 1e-12)
    zero = np.where(zero <= k_max, zero + half, zero)
    # stub intervals [k_max 2^i, k_max 2^(i+1)] below zero, then [., zero];
    # the ones past zero have zero width and add nothing
    stubs = 1
    while k_max * 2.0**stubs < zero.max():
        stubs += 1
    edges = np.concatenate([
        np.minimum(k_max * 2.0 ** np.arange(stubs), zero[:, None]),
        zero[:, None] + half[:, None] * np.arange(_TAIL_TERMS + 1),
    ], axis=1)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])[..., None]
    width = 0.5 * (edges[:, 1:] - edges[:, :-1])[..., None]
    k = mid + width * _GL_X
    weights = width * _GL_W
    model = (alpha + beta * np.log(k)) / k**2
    xk = k * x[:, None, None]
    oscillators = {
        wave: np.cos(xk) if wave == "cos" else k * np.sin(xk)
        for wave in {wave for wave, _ in forms}
    }
    if any(damped for _, damped in forms):
        damped_model = model * (1.0 / (1.0 + (k * mu) ** 2))
    tails = np.empty((len(forms), x.size))
    for row, (wave, damped) in enumerate(forms):
        amp = damped_model if damped else model
        if wave == "ksin":
            # k sin(kx) already carries k: the known k-sine tail defect
            # (ROADMAP), kept until the profile references are re-pinned
            amp = k * amp
        sums = (oscillators[wave] * amp * weights).sum(axis=-1)
        tails[row] = (sums[:, :stubs].sum(axis=-1)
                      + np.cumsum(sums[:, stubs:], axis=-1) @ _AVERAGING_WEIGHTS)
    return tails


def _osc_transform(
    density: SpectralFunction,
    x: np.ndarray,
    kinds: tuple[str, ...],
    mu: float = 0.0,
    label: str = "oscillatory transform at x={x:.4g}",
) -> np.ndarray:
    """int_0^inf w(k x) density(k) dk, one row per kind, one column per x.

    ``"cos"`` has w = cos; ``"damped_cos"`` and ``"damped_ksin"`` have
    w = cos and k*sin times the damping factor 1/(1 + k^2 mu^2) carried by
    the distribution-function integrands.  At every x >= 0 the head on
    [0, density.k_max] is integrated exactly, knot interval by knot
    interval, from the density's polynomial pieces, at a cost that does not
    grow with x.  The pieces, their moment tables (:func:`_head_pieces`) and
    the tail fit are made once per call; the coordinates are then taken in
    chunks of _X_CHUNK, each in one vectorised pass (the heads and
    :func:`_alternating_tails`).  The k-sine head vanishes at x = 0.  Past
    k_max each transform continues the fitted (a + b ln k)/k^2 density
    model: at x = 0 as its exact integral, under the 10% tail guard of
    :mod:`kramers.quadrature`, and at x > 0 as an accelerated alternating
    series over half periods.  Coordinates with x k_max below
    ``_WALL_OMEGA`` (machine epsilon; x < 2.8e-19 at k_max = 800) take the
    x = 0 value.  ``label`` is formatted with ``x=`` the coordinate an
    error is raised at.
    """
    x = np.asarray(x, dtype=float)
    forms = [_KINDS[kind] for kind in kinds]
    k_max = density.k_max
    if (x < 0.0).any():
        raise ValueError("transform coordinate must be >= 0")
    if not math.isfinite(float(x.max(initial=0.0)) * k_max):
        at = next(v for v in map(float, x) if not math.isfinite(v * k_max))
        raise ValueError(f"{label.format(x=at)}: x * k_max overflows at x={at:g}")
    x = np.where(x * k_max < _WALL_OMEGA, 0.0, x)
    heads = _head_pieces(density, kinds, mu)
    positive = x > 0.0
    if positive.any():
        # continue the fitted density model beyond k_max
        alpha, beta = _fit_log_tail(density, k_max, 2, label.format(x=x[positive][0]))
    values = np.empty((len(kinds), x.size))
    for start in range(0, x.size, _X_CHUNK):
        chunk = x[start:start + _X_CHUNK]
        block = heads(chunk).sum(axis=-1)
        far = chunk > 0.0
        if far.any():
            block[:, far] += _alternating_tails(alpha, beta, chunk[far], forms, mu, k_max)
        values[:, start:start + _X_CHUNK] = block
    if not positive.all():
        # The model is fitted to the integrand, damping included, although
        # a damped integrand decays like /k^4: the known x1 = 0 defect
        # (ROADMAP), kept until the profile references are re-pinned.
        wall = ~positive
        k_tail = _tail_points(k_max)
        samples = density(k_tail)
        for row, (wave, damped) in enumerate(forms):
            if wave == "cos":
                damp = 1.0 / (1.0 + (k_tail * mu) ** 2) if damped else 1.0
                values[row, wall] += _log_tail(
                    samples * damp, k_max, 2, values[row, wall.argmax()],
                    label.format(x=0.0))[0]
    return values


def _combined_density(
    series: SeriesExpansion, q: float, upto: int | None = None
) -> SpectralFunction:
    """sum_n q^n E_n(k) truncated at order ``upto`` (inclusive)."""
    top = series.order if upto is None else upto
    return weighted_sum(
        [q**n for n in range(top + 1)], series.e_funcs[:top + 1],
        label=f"E_q[0..{top}]",
    )


def velocity_profile(
    params: GasParameters, series: SeriesExpansion, x_nodes
) -> VelocityProfile:
    """Sample U(x1) = U_sl + G_v x1 + U_c(x1) on the given coordinates.

    U_c at all of them comes from one transform call.
    """
    _check_pair(params, series)
    x_nodes = np.atleast_1d(np.asarray(x_nodes, dtype=float))
    if x_nodes.ndim != 1:
        raise ValueError(f"x_nodes must be 1-d, got shape {x_nodes.shape}")
    if not np.all(np.isfinite(x_nodes)):
        raise ValueError("x_nodes must be finite")
    if np.any(x_nodes < 0.0):
        raise ValueError("x_nodes must be >= 0")
    u_sl = slip_velocity(params, series)
    density = _combined_density(series, params.q)
    pref = params.g_v * (2.0 - params.q)
    u_c = pref * _osc_transform(
        density, x_nodes, ("cos",), label="U_c cosine transform at x1={x:.4g}",
    )[0] / math.pi
    u_total = u_sl + params.g_v * x_nodes + u_c
    return VelocityProfile(
        x_nodes=x_nodes, u_total=u_total, u_continuum=u_c,
        u_sl=u_sl, g_v=params.g_v,
    )


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
    sum_{n<N} q^n E_n, so it does not depend on x1: it is computed once per
    call.  Both parts carry G_v (1-gamma) (2-q), which the density at gamma,
    E_n/(1-gamma), cancels in the transforms; only R_q's integral divides by
    1-gamma.  ``x1`` is a coordinate (giving a float) or an array of them
    (giving an array of that shape, from one transform pass).  Non-finite
    x1 and |mu| > 10 are rejected.
    """
    _check_pair(params, series)
    x = np.asarray(x1, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"x1 must be finite, got {x1}")
    check_mu(mu)
    if (x < 0.0).any():
        raise ValueError("x1 must be >= 0 (profiles live in the half-space)")
    gamma, q, g_v = params.gamma, params.q, params.g_v
    pref = g_v * (2.0 - q)
    u_sl = slip_velocity(params, series)
    h_as = u_sl + g_v * (x - (1.0 - gamma) * mu)

    density = _combined_density(series, q)
    kinds = ("cos",) if mu == 0.0 else ("cos", "damped_cos", "damped_ksin")
    transforms = _osc_transform(
        density, x.reshape(-1), kinds, mu=mu,
        label=f"h_c transforms at x1={{x:.4g}}, mu={mu:.4g}",
    ).reshape((len(kinds),) + x.shape) / math.pi
    if mu == 0.0:
        h = h_as + pref * transforms[0]
    else:
        c0, c1, s1 = transforms
        h_c = pref * (gamma * c0 + (1.0 - gamma) * c1 + (1.0 - gamma) * mu * s1)
        if mu > 0.0:
            r = abs(mu) - u0()
            if series.order >= 1:
                plain, damped = _osc_transform(
                    _combined_density(series, q, upto=series.order - 1),
                    np.zeros(1), ("cos", "damped_cos"), mu,
                    label=f"source bracket at mu={mu:.4g}",
                )[:, 0]
                r -= sum(
                    series.u_coeffs[n] * q**n for n in range(1, series.order + 1)
                )
                r -= q * (gamma / (1.0 - gamma) * plain + damped) / math.pi
            # x / mu overflows to inf for a subnormal mu, and e^{-inf} = 0
            # is the right decay
            with np.errstate(over="ignore"):
                decay = np.exp(-x / mu)
            h_c = h_c + (1.0 - gamma) * pref * r * decay
        h = h_as + h_c
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
    """Convert a dimensionless slip velocity to m/s via u = U / sqrt(beta)."""
    return u_sl_dimensionless / math.sqrt(ctx.beta)
