"""Neumann-series construction: coefficients U_n, densities E_n, assembly.

Each order couples one new slip coefficient to one new spectral density:
U_n is fixed by removing the second-order pole of the order-n density at
k=0, after which it is finite everywhere.  The iterates come from repeated
application of the kernel operator to the seed phi_0.

Both U_n and the pole residual B_n integrate one weight, J^(1)(k, k1) =
J_1 + gamma k1^2 J_3.  The moment identity k1^2 J_3(k, k1) = T_1(k) -
J_1(k, k1) (see :mod:`kramers.special_integrals`) makes it

    J^(1)(k, k1) = gamma T_1(k) + (1 - gamma) J_1(k, k1),

with J_1(0, k1) = T_1(k1) and T_1(0) = 1/sqrt(pi) for U_n.  The kernel is
exactly (1 - gamma) S_1 (see :mod:`kramers.kernels`), so phi_n and
E_n = phi_n / T_2 are free of gamma: at gamma the iterate is
(1 - gamma)^n phi_n and the density E_n/(1 - gamma).  With the gamma-free
c_n = int phi_{n-1}/T_2 dk and d_n = int T_1 phi_{n-1}/T_2 dk,
U_n = -(gamma c_n/sqrt(pi) + (1 - gamma) d_n)/(sqrt(pi)(1 - gamma)).

:func:`build_series` is the one way in.  The iteration runs once per
k_max: :func:`_order` (a bounded cache) holds the kernel table, T_2 at its
nodes, each phi_n, E_n and the four floats (K15 heads, fitted tails) of
c_{n+1} and d_{n+1}.  Every series holds those phi_n and E_n and forms U_n
from the floats; its consumers apply the one gamma scalar where it cancels.
The pole residuals B_n, which check U_n, split the same way:

    B_n(k) = U_n T_1(k) + (gamma T_1(k) C_n + (1 - gamma) I_n(k))/((1 - gamma) pi),

with the gamma-free C_n = int phi_{n-1}/T_2 dk1 and I_n(k) = int J_1(k, k1)
phi_{n-1}/T_2 dk1.  :func:`_pole_parts` (a bounded cache keyed by the
phi_{n-1} objects and the wavenumbers, so shared by every gamma) integrates
them adaptively up to the series' own k_max, each to the engine's one stop
rule max(ABS_TOL, REL_TOL |value|): every order and wavenumber of one call
as one family, with each wavenumber's J_1 row built once and each sweep one
MomentBatch on the distinct points of every member.  :func:`pole_residual`
gives every B_0..B_order of a series as rows, combined at its gamma under
the 10% tail guard; its wavenumbers are checked by the rule of
:mod:`kramers.special_integrals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import SpectralFunction, _KernelTable, _apply_table, standard_grid
from .quadrature import K_MAX, _integrate_spectral_detail, _log_integral, _tail_guard
# perfbench/tracing.py rebinds these here, though nothing here calls them
from .kernels import apply_kernel  # noqa: F401
from .quadrature import integrate_spectral  # noqa: F401
from .special_integrals import (
    MomentBatch, SQRT_PI, check_wavenumbers, fixed_row, phi0_vec, t_n, t_n_vec,
)

__all__ = ["SeriesExpansion", "u0", "build_series", "pole_residual"]

#: largest supported density parameter
GAMMA_MAX = 0.95
MAX_ORDER = 4


@dataclass(frozen=True)
class SeriesExpansion:
    """Ordered expansion coefficients with their spectral companions.

    ``u_coeffs[n]`` multiplies q^n in the slip series.  ``phi_funcs[n]``
    and ``e_funcs[n]`` are the gamma-free phi_n and E_n = phi_n / T_2,
    cached and read-only, the same objects at every gamma: at the series'
    gamma the iterate is (1-gamma)^n ``phi_funcs[n]`` and the pole-free
    density ``e_funcs[n]``/(1-gamma).  ``diagnostics[n]`` holds the
    ``order`` n and ``u_tail``, the part of U_n from the fitted tail past
    k_max (0.0 at order 0).
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
        for name in ("phi_funcs", "e_funcs", "diagnostics"):
            if len(getattr(self, name)) != self.order + 1:
                raise ValueError(f"{name} must hold orders 0..order")


def u0() -> float:
    """Zero-order slip coefficient T_2(0)/T_1(0) = sqrt(pi)/2, closed form."""
    return SQRT_PI / 2.0


def _pole_integrand(phis: tuple, ks: np.ndarray):
    """Family integrand (k1, i, j) -> w_j(k1) phis[i](k1) / T_2(k1) of the
    gamma-free parts of the pole residuals (:func:`_pole_parts`): the
    weight w_j is J_1(ks[j], k1) for j < len(ks) and 1 for j = len(ks).

    Each wavenumber's J_1 row is built once per call.  A sweep builds one
    MomentBatch on the distinct k1 of all its members, contracts it with
    each row (one matrix-vector product per row, as a scalar call makes) and
    samples each phi and T_2 there; every point then picks its weight and
    phi by index.
    """
    rows = [fixed_row(1, kv) for kv in ks]

    def integrand(k1, i, j):
        keys, inv = np.unique(k1, return_inverse=True)
        batch = MomentBatch(keys)
        weights = np.array([batch.against(row) for row in rows] + [np.ones(keys.size)])
        phi = np.array([p(batch.k) for p in phis])
        return weights[j, inv] * phi[i, inv] / batch.t(2)[inv]

    return integrand


@lru_cache(maxsize=32)
def _pole_parts(phis: tuple, ks: tuple) -> tuple:
    """Values and fitted tails of the gamma-free parts of B_n, for each
    density phi = phi_{n-1} of ``phis`` and wavenumber k of ``ks``:

        I_n(k) = int J_1(k, k1) phi(k1) / T_2(k1) dk1,  C_n = int phi / T_2 dk1,

    each integrated adaptively up to the densities' k_max, unguarded
    (:func:`pole_residual` guards their combination), all as one family.
    Returns two read-only ``(len(phis), len(ks) + 1)`` arrays, the values
    and the tails, with I_n(ks[j]) in column j and C_n in the last.  The
    key is the densities themselves (compared by identity), so every series
    that holds them, at any gamma, shares the entry.
    """
    columns = len(ks) + 1
    i, j = np.divmod(np.arange(len(phis) * columns), columns)
    value, _, tail = _integrate_spectral_detail(
        _pole_integrand(phis, ks), phis[0].k_max,
        label=lambda m: (
            f"pole residual part of {phis[i[m]].label}"
            + (f" at k={ks[j[m]]:.3g}" if j[m] < len(ks) else "")
        ),
        params=(i, j),
    )
    parts = value.reshape(-1, columns), tail.reshape(-1, columns)
    for arr in parts:
        arr.setflags(write=False)
    return parts


@lru_cache(maxsize=4 * (MAX_ORDER + 1))
def _order(k_max: float, n: int) -> tuple:
    """Kernel table, phi_n, E_n, v = phi_n/T_2 at the table points, the
    parts of c_{n+1}, d_{n+1} (:func:`_u_detail`) and T_2 at the grid
    nodes, all free of gamma; v and the parts are None at ``MAX_ORDER``.

    Order 0 builds the standard grid, its table, T_2 and phi_0; order n
    applies the shared table to order n - 1.  The parts are four floats:
    the K15 heads and the exact fitted tails of c = int v and d = int T_1 v
    on the table.  Each order is built once per process for up to four
    k_max (about 3 MB each, nearly all the table's S_1 rows).  Every array
    is read-only, so the series that share them cannot change them.
    """
    if n == 0:
        grid = standard_grid(k_max)
        table = _KernelTable(grid)
        t2 = t_n_vec(2, grid)
        t2.setflags(write=False)
        phi = SpectralFunction(nodes=grid, values=phi0_vec(grid), label="phi_0")
    else:
        table, prev, _, v, _, t2 = _order(k_max, n - 1)
        phi = _apply_table(table, prev, v)
    # never the raw numerator / L(k), whose k=0 limit is 0/0: T_2(0) = 1/2
    e_n = SpectralFunction(nodes=table.nodes, values=phi.values / t2, label=f"E_{n}")
    if n == MAX_ORDER:  # no series reads phi_{n+1} or U_{n+1}
        return table, phi, e_n, None, None, t2
    v = table.density(phi)
    v.setflags(write=False)
    rows = np.stack([v, table.t1 * v])
    # pairwise sums: a matrix-vector product rounds U_n up to 1.5e-15 off
    heads = (rows * table.w_k).sum(axis=1)
    tails = _log_integral(rows[:, -2:].T, table.k_max)
    return table, phi, e_n, v, (*heads.tolist(), *tails.tolist()), t2


def _u_detail(n: int, gamma: float, k_max: float, parts: tuple) -> tuple[float, float]:
    """U_n and its fitted-tail part from the parts of c_n and d_n.

    Killing the constant term of the order-n density requires, with the
    gamma-free phi_{n-1},

        U_n = -(1/(sqrt(pi) (1-gamma))) int J^(1)(0, k) phi_{n-1}(k) / T_2(k) dk,

    taken in this closed form rather than by probing the k->0 limit, which
    would amplify quadrature noise by 1/k^2.  The head and the guarded tail
    are the gamma/sqrt(pi) and (1-gamma) weighted sums of the parts.
    """
    c_head, d_head, c_tail, d_tail = parts
    a, b = gamma / SQRT_PI, 1.0 - gamma
    head, tail = a * c_head + b * d_head, a * c_tail + b * d_tail
    _tail_guard(tail, head, k_max, f"U_{n} pole-elimination integral")
    scale = SQRT_PI * (1.0 - gamma)
    return -(head + tail) / scale, tail / scale


def build_series(gamma: float, order: int, k_max: float = K_MAX) -> SeriesExpansion:
    """Build U_0..U_order with their iterates and densities.

    This is the one producer of the slip coefficients U_n and the pole-free
    densities E_n.  :func:`_order` builds the gamma-free phi_n and E_n once
    per ``k_max`` on one kernel table (see :func:`kramers.kernels.apply_kernel`);
    every series on that grid holds them (see :class:`SeriesExpansion`) and
    forms each U_n from the four cached floats of c_n and d_n.  ``order`` must be
    an int in [0, 4]: higher orders are outside the method's intended
    range.  The default order used by the CLI is 2.
    """
    if type(order) is not int or not (0 <= order <= MAX_ORDER):
        raise ValueError(f"order must be an int in [0, {MAX_ORDER}], got {order!r}")
    if not (0.0 <= gamma <= GAMMA_MAX):  # also rejects NaN
        raise ValueError(
            f"gamma={gamma} outside the supported domain [0, {GAMMA_MAX}]"
        )

    parts = [_order(k_max, 0)]
    u_coeffs = [u0()]
    diagnostics: list[dict] = [{"order": 0, "u_tail": 0.0}]
    for n in range(1, order + 1):
        # U_n before phi_n, so that U_n's tail guard fires first
        u_n, u_tail = _u_detail(n, gamma, parts[0][0].k_max, parts[-1][4])
        u_coeffs.append(u_n)
        diagnostics.append({"order": n, "u_tail": u_tail})
        parts.append(_order(k_max, n))

    return SeriesExpansion(
        gamma=gamma, order=order, u_coeffs=tuple(u_coeffs),
        phi_funcs=tuple(p[1] for p in parts), e_funcs=tuple(p[2] for p in parts),
        diagnostics=tuple(diagnostics),
    )


def pole_residual(series: SeriesExpansion, k) -> np.ndarray:
    """Numerator functions B_0..B_order(k) whose k^2 vanishing certifies U_n.

    B_0(k) = U_0 T_1(k) - T_2(k); for n >= 1,

        B_n(k) = U_n T_1(k) + (1/pi) int J^(1)(k, k1) E_{n-1}(k1) dk1,

    E_{n-1} being the density at gamma, phi_{n-1}/((1-gamma) T_2).  With
    the correct U_n this scales as k^2 near zero (it equals -E_n(k) L(k));
    a constant leftover means the pole survived.  By J^(1) = gamma T_1(k) +
    (1-gamma) J_1(k, k1) it is

        B_n(k) = U_n T_1(k) + (gamma T_1(k) C_n + (1-gamma) I_n(k)) / ((1-gamma) pi)

    with the gamma-free C_n = int phi_{n-1}/T_2 dk1 and I_n(k) = int
    J_1(k, k1) phi_{n-1}/T_2 dk1, taken from :func:`_pole_parts`, which
    integrates them once for all series holding the same densities,
    adaptive to the engine's fixed tolerance and ending at the series' own
    k_max, like the profile layer's.  The 10% tail guard applies to their
    combination at the series' gamma, as it does to U_n's.  Returns row n
    holding B_n at the wavenumbers ``k`` in [0, K_LIMIT], shape
    ``(series.order + 1,) + np.shape(k)``; the first bad wavenumber is
    named by :func:`kramers.special_integrals.check_wavenumbers`.
    """
    k = np.asarray(k, dtype=float)
    check_wavenumbers(k)
    if not k.size:  # no wavenumber, nothing to integrate
        return np.empty((series.order + 1,) + k.shape)
    ks = k.ravel()
    t1 = np.array([t_n(1, kv) for kv in ks.tolist()])
    rows = [u0() * t1 - np.array([t_n(2, kv) for kv in ks.tolist()])]
    if series.order:  # B_0 alone needs no integral
        # E_{n-1} enters through its pole-free quotient phi_{n-1}/T_2, the
        # same discretisation that fixed U_n; a resampled density interpolant
        # would leave a spurious k-independent floor under B_n.
        k_set, k_at = np.unique(ks, return_inverse=True)
        value, tail = _pole_parts(series.phi_funcs[:-1], tuple(k_set.tolist()))
        a, b = series.gamma * t1, 1.0 - series.gamma
        total = a * value[:, -1:] + b * value[:, k_at]
        total_tail = a * tail[:, -1:] + b * tail[:, k_at]
        _tail_guard(
            total_tail.ravel(), (total - total_tail).ravel(), series.phi_funcs[0].k_max,
            lambda j: f"B_{j // ks.size + 1} pole residual at k={ks[j % ks.size]:.3g}",
        )
        u_n = np.array(series.u_coeffs[1:])[:, None]
        rows.extend(u_n * t1 + total / (b * np.pi))
    return np.stack(rows).reshape((series.order + 1,) + k.shape)
