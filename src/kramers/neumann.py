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

U_n and phi_n take their heads and fitted tails from one kernel table per
series; the pole residuals B_n, which check U_n, integrate adaptively up to
the series' own k_max.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import SpectralFunction, _KernelTable, _apply_table, standard_grid
from .quadrature import DEFAULT_SPEC, QuadratureSpec, _log_tail, integrate_spectral
# perfbench/tracing.py rebinds these here, though nothing here calls them
from .kernels import apply_kernel  # noqa: F401
from .quadrature import _integrate_spectral_detail  # noqa: F401
from .special_integrals import MomentBatch, SQRT_PI, fixed_row, phi0_vec, t_n, t_n_vec

__all__ = ["SeriesExpansion", "u0", "u_coefficient", "e_n", "build_series",
           "pole_residual"]

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


def _check_gamma(gamma: float) -> None:
    if gamma >= 1.0:
        raise ValueError("gamma must be < 1: every order divides by (1 - gamma)")
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")


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


def _u_detail(
    n: int, gamma: float, table: _KernelTable, v: np.ndarray
) -> tuple[float, float, float]:
    """U_n, error estimate and fitted-tail part; v = table.density(phi_{n-1}).

    The head is the table's K15 sum, with the table's |K15 - G7| error,
    and the tail is fitted to the values at the table's two tail points.
    """
    values = (gamma / SQRT_PI + (1.0 - gamma) * table.t1) * v
    head = table.w_k @ values
    err = table.error(values)
    tail = _log_tail(
        values[-2:], table.k_max, 2, head, f"U_{n} pole-elimination integral"
    )[0]
    scale = SQRT_PI * (1.0 - gamma) ** n
    return float(-(head + tail) / scale), float(err / scale), float(tail / scale)


def u_coefficient(
    n: int,
    gamma: float,
    phi_prev: SpectralFunction,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Slip coefficient U_n from the pole-elimination integral.

    ``phi_prev`` is the previous-order iterate phi_{n-1} (the seed phi_0 for
    n=1): killing the constant term of the order-n density requires

        U_n = -(1-gamma)^{-n} (1/sqrt(pi))
              int J^(1)(0, k) phi_{n-1}(k) / T_2(k) dk.

    Computed from this closed form rather than by probing the k->0 limit,
    which would amplify quadrature noise by 1/k^2.  It takes the fixed rule
    of :func:`kramers.kernels.apply_kernel`, so ``spec.rel_tol`` does not enter.
    """
    if n < 1:
        raise ValueError("u_coefficient is defined for n >= 1; use u0()")
    _check_gamma(gamma)
    table = _KernelTable(phi_prev.nodes)
    return _u_detail(n, gamma, table, table.density(phi_prev))[0]


def e_n(
    n: int,
    gamma: float,
    phi_n: SpectralFunction,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> SpectralFunction:
    """Pole-free spectral density E_n = phi_n / ((1-gamma)^{n+1} T_2).

    Always evaluated through this quotient, never through the raw
    numerator / L(k) form whose k=0 limit is 0/0.  T_2(0) enters as the
    exact moment 1/2, so E_n(0) is finite by construction.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    _check_gamma(gamma)
    values = phi_n(phi_n.nodes) / (
        (1.0 - gamma) ** (n + 1) * t_n_vec(2, phi_n.nodes)
    )
    return SpectralFunction(nodes=phi_n.nodes.copy(), values=values, label=f"E_{n}")


def build_series(
    gamma: float,
    order: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> SeriesExpansion:
    """Build U_0..U_order with their iterates and densities.

    One kernel table on the grid (2,385 rule and 2 tail points, see
    :func:`kramers.kernels.apply_kernel`) serves all orders, each then
    costing one evaluation of phi_{n-1}/T_2 at its points, one product with
    its S_1 rows and two fitted tails.  Orders beyond 4 are refused as
    outside the method's intended range.  The default order used by the CLI
    is 2.
    """
    if not (0 <= order <= MAX_ORDER):
        raise ValueError(f"order must be in [0, {MAX_ORDER}]")
    _check_gamma(gamma)
    if gamma > GAMMA_MAX:
        raise ValueError(
            f"gamma={gamma} outside the supported domain [0, {GAMMA_MAX}]"
        )
    if gamma > GAMMA_WARN:
        warnings.warn(
            f"gamma={gamma} > {GAMMA_WARN}: series convergence in q is only "
            "evidenced at small density parameters",
            stacklevel=2,
        )

    grid = standard_grid(spec)
    phi_funcs = [SpectralFunction(nodes=grid, values=phi0_vec(grid), label="phi_0")]
    u_coeffs = [u0()]
    diagnostics: list[dict] = [{"order": 0, "u_error": 0.0}]
    table = _KernelTable(grid) if order else None
    for n in range(1, order + 1):
        phi, v = phi_funcs[-1], table.density(phi_funcs[-1])
        u_n, u_error, u_tail = _u_detail(n, gamma, table, v)
        u_coeffs.append(u_n)
        phi_funcs.append(_apply_table(table, phi, v, gamma))
        diagnostics.append({"order": n, "u_error": u_error, "u_tail": u_tail})
    e_funcs = [e_n(n, gamma, phi_funcs[n], spec) for n in range(order + 1)]
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
