"""Physical outputs: slip velocity, slip coefficient, profiles, distribution.

Everything here is assembled from a built :class:`SeriesExpansion`.  The
wall-layer velocity is the inverse Fourier transform of the spectral
density; evenness reduces it to a cosine integral,

    U_c(x) = G_v (1-gamma) (2-q) (1/pi) int_0^inf cos(k x) E_q(k) dk,

with E_q = sum_n q^n E_n, summed from the per-order polynomial pieces (the
interpolant is linear in its node values, so nothing is refitted).  Up to
k_max, the last node of the series grid, the density is a quintic on each
knot interval, and the integral of a polynomial times e^{ikx} has a closed
form (Filon's method), so the head of each transform costs the same at
every x1 >= 0.  Beyond k_max the fitted density model is integrated
exactly at x1 = 0 and summed as an alternating series over half periods
with iterated averaging at x1 > 0.  The transforms needed at one x1 (the
plain and damped cosine and the damped k-sine of h(x1, mu)) share the
polynomial pieces and the oscillatory moments; the k-integrals of the
source bracket of h are the plain and damped cosine transforms at 0.
Nothing here integrates adaptively.
"""

from __future__ import annotations

import math
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
        if not (self.nu > 0 and self.beta > 0 and self.mean_free_path > 0):
            raise ValueError("all dimensional parameters must be positive")
        expected = SQRT_PI / (2.0 * self.nu * math.sqrt(self.beta))
        if not math.isclose(self.mean_free_path, expected, rel_tol=1e-9):
            raise ValueError(
                f"inconsistent mean free path: got {self.mean_free_path:.6g}, "
                f"l = sqrt(pi)/(2 nu sqrt(beta)) requires {expected:.6g}"
            )

    @classmethod
    def from_frequency(cls, nu: float, beta: float) -> "DimensionalContext":
        """Build a consistent context from frequency and beta alone."""
        return cls(nu=nu, beta=beta,
                   mean_free_path=SQRT_PI / (2.0 * nu * math.sqrt(beta)))


def _check_pair(params: GasParameters, series: SeriesExpansion) -> None:
    if params.gamma != series.gamma:
        raise ValueError(
            f"series was built for gamma={series.gamma}, "
            f"parameters carry gamma={params.gamma}"
        )
    if params.q <= 0.0:
        raise ValueError("q must be positive: (2-q)/q diverges at q=0")


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
# integrand polynomial on it is expanded as sum_n e_n T_n(t).
_DEGREE = 5  # of the density's pieces
_DAMP_POINTS = 9  # Chebyshev points of the interpolated damping factor
_N_CHEB = _DEGREE + _DAMP_POINTS  # coefficients of a damped piece (degree 13)
_DAMP_T = C.chebpts1(_DAMP_POINTS)
#: damping samples at _DAMP_T -> Chebyshev coefficients of their interpolant
_DAMP_FIT = np.linalg.inv(C.chebvander(_DAMP_T, _DAMP_POINTS - 1))
#: column n: Chebyshev coefficients of (1 + t)^n = (T_0 + T_1)^n, which turn
#: the local coefficients of p(a + s), s = r (1 + t), into Chebyshev ones
_FROM_LOCAL = np.zeros((_DEGREE + 1, _DEGREE + 1))
#: T_i T_j = (T_{i+j} + T_|i-j|)/2: the product of a piece and a damping
#: interpolant from the flattened outer product of their coefficients
_PRODUCT = np.zeros((_N_CHEB, _DEGREE + 1, _DAMP_POINTS))
for _i in range(_DEGREE + 1):
    _FROM_LOCAL[:_i + 1, _i] = C.chebpow([1.0, 1.0], _i)
    for _j in range(_DAMP_POINTS):
        _PRODUCT[_i + _j, _i, _j] += 0.5
        _PRODUCT[abs(_i - _j), _i, _j] += 0.5
_PRODUCT = _PRODUCT.reshape(_N_CHEB, -1)
#: [j, n]: T_n^(j)(1) = prod_{l<j} (n^2 - l^2)/(2l + 1), and
#: T_n^(j)(-1) = (-1)^(n+j) T_n^(j)(1)
_ENDPOINT_DERIVS = np.ones((_N_CHEB, _N_CHEB))
for _j in range(1, _N_CHEB):
    _ENDPOINT_DERIVS[_j] = (_ENDPOINT_DERIVS[_j - 1]
                            * (np.arange(_N_CHEB) ** 2 - (_j - 1) ** 2) / (2 * _j - 1))
_ALTERNATING = (-1.0) ** np.arange(_N_CHEB)
#: [n, g]: T_n at the Gauss-Legendre points, times the weights
_GL_CHEB = (C.chebvander(_GL_X, _N_CHEB - 1) * _GL_W[:, None]).T
#: below x h = 2 omega = 1 the closed-form moments cancel; Gauss-Legendre
#: takes those pieces (exact there to rounding up to omega ~ 3)
_CLOSED_FORM_MIN_OMEGA = 0.5
#: largest |mu| of h(x1, mu): the 9-point damping fit must resolve the width
#: 1/|mu| on the first knot interval (0.032).  At 10 the damped cosine head
#: there is exact to rounding at x1 = 0 and off by up to 1.3e-12 elsewhere
#: (worst near x1 = 680); at 100 it is off by 6.5e-8, at 1e4 by 16%.
_MU_MAX = 10.0


def _chebyshev_moments(omega: np.ndarray) -> np.ndarray:
    """K[n, i] = int_{-1}^{1} T_n(t) e^{i omega_i t} dt for n < _N_CHEB.

    Repeated integration by parts gives the closed form
    K_n = sum_j (-1)^j [T_n^(j)(t) e^{i omega t}]_{-1}^{1} / (i omega)^(j+1),
    which ends after j = n.  Small omega uses 16-point Gauss-Legendre.
    """
    moments = np.empty((_N_CHEB, omega.size), dtype=complex)
    small = omega < _CLOSED_FORM_MIN_OMEGA
    moments[:, small] = _GL_CHEB @ np.exp(1j * np.outer(_GL_X, omega[small]))
    w = omega[~small]
    powers = np.cumprod(np.broadcast_to(1.0 / (1j * w), (_N_CHEB, w.size)), axis=0)
    at_plus = _ENDPOINT_DERIVS.T @ (_ALTERNATING[:, None] * powers)
    at_minus = _ENDPOINT_DERIVS.T @ powers
    moments[:, ~small] = (
        np.exp(1j * w) * at_plus - _ALTERNATING[:, None] * np.exp(-1j * w) * at_minus
    )
    return moments


def _head_pieces(
    density: SpectralFunction,
    x: float,
    kinds: tuple[str, ...],
    mu: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Head of each transform in ``kinds`` on every knot interval below k_max.

    Returns the interval bounds ``lo``, ``hi`` and the integrals, one row per
    kind.  Each piece of ``density.poly`` is expanded in Chebyshev
    polynomials; the damping factor, times k for the k-sine, is interpolated
    at 9 Chebyshev points of the interval and multiplied in exactly.  Then
    int_a^b P(k) e^{ikx} dk = r e^{ixm} sum_n e_n K_n(x r) with the moments
    of :func:`_chebyshev_moments` (Gauss-Legendre, exact for these pieces,
    at x = 0): the cosine transforms take the real part, the k-sine one the
    imaginary part.  This is Filon's method with the density's own knots
    (Iserles & Norsett, Proc. R. Soc. A 461, 2005).
    """
    poly = density.poly
    lo, hi = poly.x[:-1], poly.x[1:]
    r = 0.5 * (hi - lo)
    mid = lo + r
    # poly.c holds the coefficients of (k - lo)^(5-m); k - lo = r (1 + t)
    local = poly.c[::-1] * r ** np.arange(_DEGREE + 1)[:, None]
    piece = _FROM_LOCAL @ local
    moments = _chebyshev_moments(x * r)
    phase = r * np.exp(1j * x * mid)
    k_fit = mid + r * _DAMP_T[:, None]
    damp = 1.0 / (1.0 + (k_fit * mu) ** 2)
    values = []
    for wave, damped in (_KINDS[kind] for kind in kinds):
        if wave == "cos" and not damped:
            coeffs = piece
        else:
            factor = (k_fit if wave == "ksin" else 1.0) * (damp if damped else 1.0)
            fit = _DAMP_FIT @ factor
            coeffs = _PRODUCT @ (piece[:, None, :] * fit[None, :, :]).reshape(
                -1, piece.shape[1])
        integral = phase * (coeffs * moments[:len(coeffs)]).sum(axis=0)
        values.append(integral.real if wave == "cos" else integral.imag)
    return lo, hi, np.array(values)


def _gl_sums(f, edges: np.ndarray) -> np.ndarray:
    """16-point Gauss-Legendre integrals of ``f`` over consecutive edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (f(mid + half * _GL_X) * (half * _GL_W)).sum(axis=1)


def _averaged_alternating(terms: np.ndarray) -> float:
    """Iterated averaging of partial sums (alternating-series acceleration).

    Averaging neighbours until one value is left weights partial sum i by
    C(n-1, i) / 2^(n-1); the weights are exact in floating point.
    """
    return float(_AVERAGING_WEIGHTS @ np.cumsum(terms))


def _osc_transform(
    density: SpectralFunction,
    x: float,
    kinds: tuple[str, ...],
    mu: float = 0.0,
    label: str = "oscillatory transform",
) -> tuple[float, ...]:
    """int_0^inf w(k x) density(k) dk for each of ``kinds``, in that order.

    ``"cos"`` has w = cos; ``"damped_cos"`` and ``"damped_ksin"`` have
    w = cos and k*sin times the damping factor 1/(1 + k^2 mu^2) carried by
    the distribution-function integrands.  At every x >= 0 the head on
    [0, density.k_max] is integrated exactly, knot interval by knot
    interval, from the density's polynomial pieces (:func:`_head_pieces`),
    at a cost that does not grow with x; all kinds share the pieces and the
    oscillatory moments, and the k-sine head vanishes at x = 0.  Past k_max
    each transform continues the fitted (a + b ln k)/k^2 density model: at
    x = 0 as its exact integral, under the 10% tail guard of
    :mod:`kramers.quadrature`, and at x > 0 as an accelerated alternating
    series over half periods.
    """
    forms = [_KINDS[kind] for kind in kinds]
    k_max = density.k_max

    def damp(k):
        return 1.0 / (1.0 + (k * mu) ** 2)

    if x < 0.0:
        raise ValueError("transform coordinate must be >= 0")
    if not math.isfinite(float(x) * k_max):
        raise ValueError(f"{label}: x * k_max overflows at x={x:g}")
    heads = _head_pieces(density, x, kinds, mu)[2].sum(axis=1)
    if x == 0.0:
        # The model is fitted to the integrand, damping included, although
        # a damped integrand decays like /k^4: the known x1 = 0 defect
        # (ROADMAP), kept until the profile references are re-pinned.
        k_tail = _tail_points(k_max)
        samples = density(k_tail)
        return tuple(
            float(value) if wave == "ksin" else float(value + _log_tail(
                samples * damp(k_tail) if damped else samples,
                k_max, 2, value, label)[0])
            for (wave, damped), value in zip(forms, heads)
        )

    def oscillator(wave, k):
        return np.cos(k * x) if wave == "cos" else k * np.sin(k * x)

    # continue the fitted density model beyond k_max
    alpha, beta = _fit_log_tail(density, k_max, 2, label)
    quarter = math.pi / (2.0 * x)
    half = 2.0 * quarter
    results = []
    for (wave, damped), value in zip(forms, heads):
        def g(k, wave=wave, damped=damped):
            amp = (alpha + beta * np.log(k)) / k**2
            if damped:
                amp = amp * damp(k)
            if wave == "ksin":
                # k sin(kx) already carries k: the known k-sine tail defect
                # (ROADMAP), kept until the profile references are re-pinned
                amp = k * amp
            return oscillator(wave, k) * amp

        # cos(kx) vanishes at odd multiples of pi/(2x), sin(kx) at multiples of pi/x
        first_zero = quarter if wave == "cos" else half
        zero = first_zero * math.ceil(k_max / first_zero + 1e-12)
        if zero <= k_max:
            zero += half
        # stub [k_max, zero], geometrically split in case x is tiny
        stub_bounds = [k_max]
        while stub_bounds[-1] * 2.0 < zero:
            stub_bounds.append(stub_bounds[-1] * 2.0)
        stub_bounds.append(zero)
        tail = float(_gl_sums(g, np.asarray(stub_bounds)).sum())
        # alternating half-period terms, iterated-averaging acceleration
        edges = zero + half * np.arange(_TAIL_TERMS + 1)
        tail += _averaged_alternating(_gl_sums(g, edges))
        results.append(float(value) + tail)
    return tuple(results)


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
    """Sample U(x1) = U_sl + G_v x1 + U_c(x1) on the given coordinates."""
    _check_pair(params, series)
    x_nodes = np.atleast_1d(np.asarray(x_nodes, dtype=float))
    if not np.all(np.isfinite(x_nodes)):
        raise ValueError("x_nodes must be finite")
    if np.any(x_nodes < 0.0):
        raise ValueError("x_nodes must be >= 0")
    u_sl = slip_velocity(params, series)
    density = _combined_density(series, params.q)
    pref = params.g_v * (1.0 - params.gamma) * (2.0 - params.q)
    u_c = np.array([
        pref * _osc_transform(
            density, x, ("cos",),
            label=f"U_c cosine transform at x1={x:.4g}",
        )[0] / math.pi
        for x in x_nodes
    ])
    u_total = u_sl + params.g_v * x_nodes + u_c
    return VelocityProfile(
        x_nodes=x_nodes, u_total=u_total, u_continuum=u_c,
        u_sl=u_sl, g_v=params.g_v,
    )


def distribution_function(
    params: GasParameters,
    series: SeriesExpansion,
    x1: float,
    mu: float,
) -> float:
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
    sum_{n<N} q^n E_n, so it does not depend on x1.  Non-finite x1 and
    |mu| > 10 are rejected.
    """
    _check_pair(params, series)
    for name, value in (("x1", x1), ("mu", mu)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if abs(mu) > _MU_MAX:
        raise ValueError(f"mu must lie in [-{_MU_MAX:g}, {_MU_MAX:g}], got {mu:g}")
    if x1 < 0.0:
        raise ValueError("x1 must be >= 0 (profiles live in the half-space)")
    gamma, q, g_v = params.gamma, params.q, params.g_v
    pref = g_v * (1.0 - gamma) * (2.0 - q)
    u_sl = slip_velocity(params, series)
    h_as = u_sl + g_v * (x1 - (1.0 - gamma) * mu)

    density = _combined_density(series, q)
    kinds = ("cos",) if mu == 0.0 else ("cos", "damped_cos", "damped_ksin")
    transforms = [
        value / math.pi
        for value in _osc_transform(
            density, x1, kinds, mu=mu,
            label=f"h_c transforms at x1={x1:.4g}, mu={mu:.4g}",
        )
    ]
    if mu == 0.0:
        return h_as + pref * transforms[0]

    c0, c1, s1 = transforms
    h_c = pref * (gamma * c0 + (1.0 - gamma) * c1 + (1.0 - gamma) * mu * s1)

    if mu > 0.0:
        r = abs(mu) - u0()
        if series.order >= 1:
            plain, damped = _osc_transform(
                _combined_density(series, q, upto=series.order - 1), 0.0,
                ("cos", "damped_cos"), mu,
                label=f"source bracket at mu={mu:.4g}",
            )
            r -= sum(
                series.u_coeffs[n] * q**n for n in range(1, series.order + 1)
            )
            r -= q * (gamma * plain + (1.0 - gamma) * damped) / math.pi
        h_c += pref * r * math.exp(-x1 / mu)
    return h_as + h_c


def gamma_from_physical(number_density: float, diameter: float) -> float:
    """Density parameter (4/15) pi n sigma^3 from physical inputs."""
    if number_density < 0.0 or diameter < 0.0:
        raise ValueError("number density and diameter must be >= 0")
    gamma = 4.0 / 15.0 * math.pi * number_density * diameter**3
    if gamma >= 1.0:
        raise ValueError(
            f"gamma={gamma:.4g} >= 1: outside the moderately dense regime"
        )
    return gamma


def dimensional_slip(u_sl_dimensionless: float, ctx: DimensionalContext) -> float:
    """Convert a dimensionless slip velocity to m/s via u = U / sqrt(beta)."""
    return u_sl_dimensionless / math.sqrt(ctx.beta)
