"""Neumann-series construction: coefficients U_n, densities E_n, assembly.

Each order couples one new slip coefficient to one new spectral density:
U_n is fixed by removing the second-order pole of E_n at k=0, after which

    E_n(k) = phi_n(k) / ((1 - gamma)^{n+1} T_2(k))

is finite everywhere.  The iterates phi_n come from repeated application of
the kernel operator to the seed phi_0.

Both U_n and the pole residual B_n integrate one weight, J^(1)(k, k1) =
J_1 + gamma k1^2 J_3.  The moment identity k1^2 J_3(k, k1) = T_1(k) -
J_1(k, k1) (see :mod:`kramers.special_integrals`) makes it

    J^(1)(k, k1) = gamma T_1(k) + (1 - gamma) J_1(k, k1),

with J_1(0, k1) = T_1(k1) and T_1(0) = 1/sqrt(pi) for U_n.  Because the
kernel is exactly (1 - gamma) S_1 (see :mod:`kramers.kernels`), phi_n is
(1 - gamma)^n times its gamma=0 value, so (1 - gamma) U_n is linear in gamma.

:func:`build_series` is the one way in: U_n and phi_n take their heads and
fitted tails from a kernel table, and E_n divides phi_n by T_2 sampled on
the grid.  The grid, phi_0, T_2 and the table depend on k_max alone, so
:func:`_grid_parts` builds them once per process for each k_max (a bounded
cache of read-only arrays) and every series on that grid shares them.  The
pole residuals B_n, which check U_n, integrate adaptively up to the
series' own k_max.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import SpectralFunction, _KernelTable, _apply_table, standard_grid
from .quadrature import DEFAULT_SPEC, QuadratureSpec, _log_tail, integrate_spectral
# perfbench/tracing.py rebinds these here, though nothing here calls them
from .kernels import apply_kernel  # noqa: F401
from .quadrature import _integrate_spectral_detail  # noqa: F401
from .special_integrals import MomentBatch, SQRT_PI, fixed_row, phi0_vec, t_n, t_n_vec

__all__ = ["SeriesExpansion", "u0", "build_series", "pole_residual"]

#: the density-series convergence claim is only evidenced at small gamma;
#: values above this trigger a warning, values above 0.95 are rejected.
GAMMA_WARN = 0.5
GAMMA_MAX = 0.95
MAX_ORDER = 4


@dataclass(frozen=True)
class SeriesExpansion:
    """Ordered expansion coefficients with their spectral companions.

    ``u_coeffs[n]`` multiplies q^n in the slip series; ``phi_funcs[n]`` and
    ``e_funcs[n]`` are the matching iterate and pole-free density.
    ``diagnostics[n]`` records the quadrature error estimates accumulated
    while building order n.
    """

    gamma: float
    order: int
    u_coeffs: tuple[float, ...]
    phi_funcs: tuple[SpectralFunction, ...]
    e_funcs: tuple[SpectralFunction, ...]
    diagnostics: tuple[dict, ...]

    def __post_init__(self) -> None:
        if len(self.u_coeffs) != self.order + 1:
            raise ValueError("u_coeffs must hold orders 0..order")
        if self.u_coeffs[0] != u0():
            raise ValueError("u_coeffs[0] must be sqrt(pi)/2 exactly")


def u0() -> float:
    """Zero-order slip coefficient T_2(0)/T_1(0) = sqrt(pi)/2, closed form."""
    return SQRT_PI / 2.0


def _pole_integrand(
    k: float, gamma: float, phi: SpectralFunction, spec: QuadratureSpec
):
    """Batched integrand k1 -> J^(1)(k, k1) phi(k1) / T_2(k1) of B_n.

    At k = 0 it is the integrand of U_n, which the kernel table integrates.
    """
    t1k = t_n(1, k, spec)
    row = fixed_row(1, k)

    def integrand(k1):
        batch = MomentBatch(k1)
        j1 = gamma * t1k + (1.0 - gamma) * batch.against(row)
        return j1 * phi(batch.k) / batch.t(2)

    return integrand


@lru_cache(maxsize=4)
def _grid_parts(
    k_max: float,
) -> tuple[np.ndarray, SpectralFunction, np.ndarray, _KernelTable]:
    """Standard grid, phi_0, T_2 on the grid and the kernel table for k_max.

    None of them depends on gamma, the order or rel_tol, so each k_max
    builds them once per process (about 3 MB, nearly all of it the table's
    S_1 rows) and up to four k_max stay cached.  Every array is read-only,
    so the series that share them cannot change them.
    """
    grid = standard_grid(QuadratureSpec(k_max=k_max))
    t2 = t_n_vec(2, grid)
    for arr in (grid, t2):
        arr.setflags(write=False)
    phi0 = SpectralFunction(nodes=grid, values=phi0_vec(grid), label="phi_0")
    return grid, phi0, t2, _KernelTable(grid)


def _u_detail(
    n: int, gamma: float, table: _KernelTable, v: np.ndarray
) -> tuple[float, float, float]:
    """U_n, error estimate and fitted-tail part; v = table.density(phi_{n-1}).

    Killing the constant term of the order-n density requires

        U_n = -(1-gamma)^{-n} (1/sqrt(pi))
              int J^(1)(0, k) phi_{n-1}(k) / T_2(k) dk,

    taken in this closed form rather than by probing the k->0 limit, which
    would amplify quadrature noise by 1/k^2.  The head is the table's K15
    sum, with the table's |K15 - G7| error, and the tail is fitted to the
    values at the table's two tail points.
    """
    values = (gamma / SQRT_PI + (1.0 - gamma) * table.t1) * v
    head = table.w_k @ values
    err = table.error(values)
    tail = _log_tail(
        values[-2:], table.k_max, 2, head, f"U_{n} pole-elimination integral"
    )[0]
    scale = SQRT_PI * (1.0 - gamma) ** n
    return float(-(head + tail) / scale), float(err / scale), float(tail / scale)


def build_series(
    gamma: float,
    order: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> SeriesExpansion:
    """Build U_0..U_order with their iterates and densities.

    This is the one producer of the slip coefficients U_n and the pole-free
    densities E_n.  One kernel table on the grid (2,385 rule and 2 tail
    points, see :func:`kramers.kernels.apply_kernel`) serves all orders,
    each then costing one evaluation of phi_{n-1}/T_2 at its points, one
    product with its S_1 rows and two fitted tails.  The table, the grid,
    phi_0 and T_2 come from :func:`_grid_parts`, built by the first series
    on each ``spec.k_max`` and shared by the later ones.  Orders beyond 4
    are refused as outside the method's intended range.  The default order
    used by the CLI is 2.
    """
    if not (0 <= order <= MAX_ORDER):
        raise ValueError(f"order must be in [0, {MAX_ORDER}]")
    if not (0.0 <= gamma <= GAMMA_MAX):  # also rejects NaN
        raise ValueError(
            f"gamma={gamma} outside the supported domain [0, {GAMMA_MAX}]"
        )
    if gamma > GAMMA_WARN:
        warnings.warn(
            f"gamma={gamma} > {GAMMA_WARN}: series convergence in q is only "
            "evidenced at small density parameters",
            stacklevel=2,
        )

    grid, phi0, t2, table = _grid_parts(spec.k_max)
    phi_funcs = [phi0]
    u_coeffs = [u0()]
    diagnostics: list[dict] = [{"order": 0, "u_error": 0.0}]
    for n in range(1, order + 1):
        phi, v = phi_funcs[-1], table.density(phi_funcs[-1])
        u_n, u_error, u_tail = _u_detail(n, gamma, table, v)
        u_coeffs.append(u_n)
        phi_funcs.append(_apply_table(table, phi, v, gamma))
        diagnostics.append({"order": n, "u_error": u_error, "u_tail": u_tail})
    # E_n = phi_n / ((1-gamma)^{n+1} T_2), never the raw numerator / L(k)
    # whose k=0 limit is 0/0: T_2(0) is the exact moment 1/2, so E_n(0) is
    # finite by construction.
    e_funcs = [
        SpectralFunction(
            nodes=grid, values=phi.values / ((1.0 - gamma) ** (n + 1) * t2),
            label=f"E_{n}",
        )
        for n, phi in enumerate(phi_funcs)
    ]
    return SeriesExpansion(
        gamma=gamma,
        order=order,
        u_coeffs=tuple(u_coeffs),
        phi_funcs=tuple(phi_funcs),
        e_funcs=tuple(e_funcs),
        diagnostics=tuple(diagnostics),
    )


def pole_residual(
    series: SeriesExpansion,
    n: int,
    k: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Numerator function B_n(k) whose k^2 vanishing certifies U_n.

    B_0(k) = U_0 T_1(k) - T_2(k); for n >= 1,

        B_n(k) = U_n T_1(k) + (1/pi) int J^(1)(k, k1) E_{n-1}(k1) dk1.

    With the correct U_n this scales as k^2 near zero (it equals
    -E_n(k) L(k)); a constant leftover means the pole survived.  The
    integral ends at the series' own k_max, like the profile layer's;
    ``spec`` supplies only ``rel_tol``.
    """
    spec = QuadratureSpec(rel_tol=spec.rel_tol, k_max=series.phi_funcs[0].k_max)
    if n == 0:
        return u0() * t_n(1, k, spec) - t_n(2, k, spec)
    if n > series.order:
        raise ValueError("series does not hold this order")
    # E_{n-1} enters through its pole-free quotient phi_{n-1}/T_2, the same
    # discretisation that fixed U_n; a resampled density interpolant would
    # leave a spurious k-independent floor under B_n.
    integral = integrate_spectral(
        _pole_integrand(k, series.gamma, series.phi_funcs[n - 1], spec),
        spec, tail_exponent=2,
        label=f"B_{n} pole residual at k={k:.3g}",
    )
    scale = (1.0 - series.gamma) ** n * math.pi
    return series.u_coeffs[n] * t_n(1, k, spec) + integral / scale
