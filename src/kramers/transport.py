"""Physical outputs: slip velocity, slip coefficient, profiles, distribution.

Everything here is assembled from a built :class:`SeriesExpansion`.  The
wall-layer velocity is the inverse Fourier transform of the spectral
density; evenness reduces it to a cosine integral,

    U_c(x) = G_v (1-gamma) (2-q) (1/pi) int_0^inf cos(k x) E_q(k) dk,

with E_q = sum_n q^n E_n.  Oscillatory integrals are split at the quarter
period boundaries of the oscillator (and at the interpolation knots), summed
segment by segment, and the truncated tail is summed as an alternating
series over half periods with iterated averaging.  The transforms needed at
one x1 (the plain and damped cosine and the damped k-sine of h(x1, mu))
share one set of samples of the density on those segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import SpectralFunction
from .neumann import SeriesExpansion, u0
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureError,
    QuadratureSpec,
    _fit_log_tail,
    integrate_spectral,
)
from .special_integrals import SQRT_PI, GasParameters

__all__ = [
    "OscillatoryConvergenceError",
    "VelocityProfile",
    "DimensionalContext",
    "slip_velocity",
    "slip_coefficient_kv",
    "velocity_profile",
    "distribution_function",
    "gamma_from_physical",
    "dimensional_slip",
]

_MAX_SEGMENTS = 250_000
#: half periods summed, with iterated averaging, past k_max
_TAIL_TERMS = 48


class OscillatoryConvergenceError(QuadratureError):
    """x1 * k_max demands more oscillation segments than the budget allows."""


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
#: pieces evaluated per batch; bounds the transient memory of the shared
#: head samples, which hold up to nine arrays of 16 points per piece
_GL_BATCH = 10_000

#: the transforms _osc_transform can return: oscillator and whether the
#: damping factor 1/(1 + k^2 mu^2) applies
_KINDS = {
    "cos": ("cos", False),
    "damped_cos": ("cos", True),
    "damped_ksin": ("ksin", True),
}


def _gl_pieces(f, bounds: np.ndarray) -> list[float]:
    """16-point Gauss-Legendre sums over consecutive bounds.

    ``f`` maps the points to a sequence of integrand arrays; the result has
    one sum per array.
    """
    totals = None
    n_pieces = len(bounds) - 1
    for start in range(0, n_pieces, _GL_BATCH):
        end = min(start + _GL_BATCH, n_pieces)
        lo = bounds[start:end]
        hi = bounds[start + 1:end + 1]
        mid = 0.5 * (lo + hi)[:, None]
        half = 0.5 * (hi - lo)[:, None]
        pts = mid + half * _GL_X[None, :]
        weights = half * _GL_W[None, :]
        sums = [
            float((vals.reshape(pts.shape) * weights).sum())
            for vals in f(pts.ravel())
        ]
        totals = sums if totals is None else [a + b for a, b in zip(totals, sums)]
    return totals


def _averaged_alternating(terms: np.ndarray) -> float:
    """Iterated averaging of partial sums (alternating-series acceleration)."""
    s = np.cumsum(terms)
    while len(s) > 1:
        s = 0.5 * (s[:-1] + s[1:])
    return float(s[0])


def _osc_transform(
    density: SpectralFunction,
    x: float,
    spec: QuadratureSpec,
    kinds: tuple[str, ...],
    mu: float = 0.0,
    label: str = "oscillatory transform",
) -> tuple[float, ...]:
    """int_0^inf w(k x) density(k) dk for each of ``kinds``, in that order.

    ``"cos"`` has w = cos; ``"damped_cos"`` and ``"damped_ksin"`` have
    w = cos and k*sin times the damping factor 1/(1 + k^2 mu^2) carried by
    the distribution-function integrands.  For x = 0 the cosine transforms
    reduce to plain spectral integrals and the k-sine one vanishes.  For
    x > 0 the range up to k_max is split at quarter-period boundaries and
    interpolation knots; the density, the oscillators and the damping are
    sampled once on those pieces and shared by every requested transform.
    The tail of each continues the fitted (a + b ln k)/k^2 density model as
    an accelerated alternating series over half periods.
    """
    forms = [_KINDS[kind] for kind in kinds]
    k_max = spec.k_max

    def damp(k):
        return 1.0 / (1.0 + (k * mu) ** 2)

    if x == 0.0:
        return tuple(
            0.0 if wave == "ksin" else integrate_spectral(
                (lambda k: density(k) * damp(np.asarray(k))) if damped
                else density,
                spec, tail_exponent=2, label=label,
            )
            for wave, damped in forms
        )
    if x < 0.0:
        raise ValueError("transform coordinate must be >= 0")

    quarter = math.pi / (2.0 * x)
    n_quarters = int(k_max / quarter)
    if n_quarters > _MAX_SEGMENTS:
        raise OscillatoryConvergenceError(
            label,
            f"x={x:.4g} with k_max={k_max:.4g} needs {n_quarters} oscillation"
            f" segments (budget {_MAX_SEGMENTS})",
        )

    def oscillator(wave, k):
        return np.cos(k * x) if wave == "cos" else k * np.sin(k * x)

    def head(k):
        e = density(k)
        weighted = {wave: oscillator(wave, k) * e for wave in {w for w, _ in forms}}
        d = damp(k) if any(damped for _, damped in forms) else None
        return [weighted[wave] * d if damped else weighted[wave]
                for wave, damped in forms]

    bounds = np.unique(np.concatenate([
        density.nodes[density.nodes <= k_max],
        quarter * np.arange(1, n_quarters + 1),
        [0.0, k_max],
    ]))
    heads = _gl_pieces(head, bounds)

    # continue the fitted density model beyond k_max
    alpha, beta = _fit_log_tail(density, k_max, 2, label)
    half = 2.0 * quarter
    hw = 0.5 * half
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
        tail = _gl_pieces(lambda k: (g(k),), np.asarray(stub_bounds))[0]
        # alternating half-period terms, iterated-averaging acceleration
        edges = zero + half * np.arange(_TAIL_TERMS + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        pts = mid + hw * _GL_X[None, :]
        terms = (g(pts.ravel()).reshape(pts.shape) * (_GL_W[None, :] * hw)).sum(axis=1)
        tail += _averaged_alternating(terms)
        results.append(value + tail)
    return tuple(results)


def _combined_density(
    series: SeriesExpansion, q: float, upto: int | None = None
) -> SpectralFunction:
    """sum_n q^n E_n(k) truncated at order ``upto`` (inclusive)."""
    top = series.order if upto is None else upto
    nodes = series.e_funcs[0].nodes
    values = np.zeros_like(nodes)
    for n in range(top + 1):
        values = values + q**n * series.e_funcs[n].values
    return SpectralFunction(
        nodes=nodes.copy(), values=values, tail_exponent=2,
        label=f"E_q[0..{top}]",
    )


def velocity_profile(
    params: GasParameters,
    series: SeriesExpansion,
    x_nodes,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> VelocityProfile:
    """Sample U(x1) = U_sl + G_v x1 + U_c(x1) on the given coordinates."""
    _check_pair(params, series)
    x_nodes = np.atleast_1d(np.asarray(x_nodes, dtype=float))
    if np.any(x_nodes < 0.0):
        raise ValueError("x nodes must be >= 0")
    u_sl = slip_velocity(params, series)
    density = _combined_density(series, params.q)
    pref = params.g_v * (1.0 - params.gamma) * (2.0 - params.q)
    u_c = np.array([
        pref * _osc_transform(
            density, x, spec, ("cos",),
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
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Velocity distribution h(x1, mu) = h_as + h_c in the half-space x1 >= 0.

    The asymptotic part is U_sl + G_v [x1 - (1-gamma) mu].  The wall part is
    assembled from the spectral density and the source bracket

        R_q(mu) = (|mu| - U_0)
                  - sum_{n>=1} q^n [ U_n
                  + (1/pi) int (gamma + (1-gamma)/(1+k^2 mu^2)) E_{n-1} dk ],

    whose Lorentzian k-integrals against cos and k sin have the closed form
    R_q(mu) e^{-x1/mu} for mu > 0 (zero for mu < 0); the density part is
    carried by the cosine and k-sine transforms of E_q.
    """
    _check_pair(params, series)
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
            density, x1, spec, kinds, mu=mu,
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
            prev = _combined_density(series, q, upto=series.order - 1)

            def integrand(k):
                k = np.asarray(k, dtype=float)
                return (gamma + (1.0 - gamma) / (1.0 + (k * mu) ** 2)) * prev(k)

            source = integrate_spectral(
                integrand, spec, tail_exponent=2,
                label=f"source bracket at mu={mu:.4g}",
            )
            r -= sum(
                series.u_coeffs[n] * q**n for n in range(1, series.order + 1)
            )
            r -= q * source / math.pi
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
