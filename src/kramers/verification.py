"""Self-check suites behind the ``verify`` command.

Each check computes a measured deviation and compares it against a fixed
threshold; the CLI renders the results as a pass/fail table.  Groups:

* ``identities``  — moment recurrences, dispersion equivalence, kernel
  symmetry and collapse, dual-route kernel equality; the ``J_n`` checks
  of every order run as one adaptive family, the ``J^(m)`` and ``S``
  checks as one each, with the same values as one call per integral.
* ``constants``   — series coefficients against their reference values.
* ``pole``        — pole-elimination scaling of the order-n numerators;
  one ``pole_residual`` call per series.  The n >= 1 members' gamma-free
  parts are one adaptive family for both series, integrated on the first
  call and read from the cache by the second.
* ``oracle``      — series path against the independent quadrature path.

The adaptive integrals of the first and third groups stop at the engine's
one rule, an error of at most ``max(ABS_TOL, REL_TOL |value|)`` (absolute
below 1e-4, relative above); ``k_max`` is the one accuracy input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import neumann, oracle
from .kernels import s_kernel
from .quadrature import K_MAX, check_k_max
from .special_integrals import MOMENTS, SQRT_PI, dispersion_l, j_m, j_n, t_n

__all__ = ["CheckResult", "run_checks", "GROUPS"]

GROUPS = ("identities", "constants", "pole", "oracle")

_K_GRID = np.concatenate([np.linspace(0.05, 2.0, 8), [3.0, 5.0, 10.0, 20.0]])


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    deviation: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.threshold


def _identity_checks() -> list[CheckResult]:
    out = []
    dev = max(
        abs(t_n(n, k) + k * k * t_n(n + 2, k) - MOMENTS[n])
        for n in range(0, 7)
        for k in _K_GRID
    )
    out.append(CheckResult("identities", "T_n recurrence", dev, 1e-10))
    dev = max(abs(1.0 - t_n(0, k) - k * k * t_n(2, k)) for k in _K_GRID)
    out.append(CheckResult("identities", "1 - T_0 = k^2 T_2", dev, 1e-10))
    dev = max(
        abs(dispersion_l(k, g) - (1.0 - t_n(0, k) - g * k * k * t_n(2, k)))
        for g in (0.0, 0.25, 0.5)
        for k in _K_GRID
    )
    out.append(CheckResult("identities", "L = 1 - T_0 - gamma k^2 T_2", dev, 1e-10))
    # the j_n, j_m and s_kernel calls below integrate one family each: row
    # n of j holds J_n(a, b), J_n(b, a), J_n(k, 0) and J_n(0, k)
    a, b = np.array([0.3, 0.7, 2.0, 0.05]), np.array([1.1, 1.3, 5.0, 9.0])
    zeros = np.zeros_like(_K_GRID)
    orders = np.array([[1], [3], [5]])
    j = j_n(orders, np.concatenate([a, b, _K_GRID, zeros]), np.concatenate([b, a, zeros, _K_GRID]))
    symmetry = float(np.max(np.abs(j[:, :4] - j[:, 4:8])))
    t = np.array([[t_n(n, k) for k in _K_GRID] for n in orders.flat])
    collapse = float(np.max(np.abs(j[:, 8:].reshape(3, 2, -1) - t[:, None])))
    out.append(CheckResult("identities", "J_n symmetry", symmetry, 1e-10))
    out.append(CheckResult("identities", "J_n boundary collapse", collapse, 1e-10))
    g = np.array([0.0, 0.2, 0.5])[:, None]
    t3 = np.array([t_n(3, k) for k in a])
    # J^(3)(a, b) and J^(1)(0, b) at each gamma
    jm3, jm1 = j_m([[[3]], [[1]]], [[a], [np.zeros(4)]], b, g)
    via_jm = jm3 - SQRT_PI * t3 * jm1
    dev = float(np.max(np.abs(s_kernel(a, b, g) - via_jm)))
    out.append(CheckResult("identities", "S kernel dual route", dev, 1e-10))
    return out


def _constants_checks(k_max: float) -> list[CheckResult]:
    series = neumann.build_series(0.0, 2, k_max)
    u_0, u_1, u_2 = series.u_coeffs
    return [
        CheckResult("constants", "U_0 = 0.8862", abs(u_0 - 0.8862269), 1e-4),
        CheckResult("constants", "U_1(0) = 0.1405", abs(u_1 - 0.1405), 5e-4),
        CheckResult("constants", "U_2(0) = -0.0116", abs(u_2 + 0.0116), 5e-4),
        CheckResult(
            "constants",
            "slip(q=1) = 1.0151",
            abs(u_0 + u_1 + u_2 - 1.0151),
            1e-3,
        ),
    ]


def _pole_checks(k_max: float) -> list[CheckResult]:
    out = []
    ks = np.array([1e-3, 2e-3, 4e-3])
    for gamma in (0.0, 0.25):
        series = neumann.build_series(gamma, 2, k_max)
        # one family: row n holds B_n at the three wavenumbers
        b_rows = np.abs(neumann.pole_residual(series, [[0], [1], [2]], ks))
        for n, b_vals in enumerate(b_rows):
            slope = np.polyfit(np.log(ks), np.log(b_vals), 1)[0]
            out.append(
                CheckResult(
                    "pole",
                    f"B_{n} ~ k^2 at gamma={gamma}",
                    abs(slope - 2.0),
                    0.1,
                )
            )
    return out


def _oracle_checks(k_max: float) -> list[CheckResult]:
    out = []
    for gamma in (0.0, 0.25, 0.5):
        series = neumann.build_series(gamma, 1, k_max)
        dev = abs(series.u_coeffs[1] - oracle.u1_direct(gamma))
        out.append(
            CheckResult("oracle", f"U_1 cross-path at gamma={gamma}", dev, 1e-5)
        )
    j_values = oracle.j_constants()
    out.append(
        CheckResult(
            "oracle", "J_0 = 0.0116", abs(j_values[0] - 0.0116), 5e-4
        )
    )
    out.append(
        CheckResult(
            "oracle", "J_1 = 0.0125", abs(j_values[1] - 0.0125), 5e-4
        )
    )
    out.append(
        CheckResult(
            "oracle",
            "J_2 = -(J_0 + J_1) kernel identity",
            abs(j_values[2] + j_values[0] + j_values[1]),
            1e-5,
        )
    )
    for gamma in (0.0, 0.25):
        series = neumann.build_series(gamma, 2, k_max)
        dev = abs(
            series.u_coeffs[2] - oracle.u2_direct(gamma, j_values=j_values)
        )
        out.append(
            CheckResult("oracle", f"U_2 cross-path at gamma={gamma}", dev, 1e-5)
        )
    return out


def run_checks(
    k_max: float = K_MAX, only: tuple[str, ...] | None = None
) -> list[CheckResult]:
    """Run the selected groups (all by default) and return their results.

    ``k_max`` goes to every series and is checked before any group runs.
    ``only=None`` selects every group; an empty ``only`` selects none and is
    rejected, and so are a group named twice and a bare string
    (``only="pole"`` for ``("pole",)``).
    """
    check_k_max(k_max)
    if isinstance(only, str):
        raise ValueError(f"only={only!r} is a string; pass a tuple of group names")
    if only is not None and not only:
        raise ValueError(f"no check group selected; choose from {GROUPS}")
    groups = GROUPS if only is None else only
    unknown = set(groups) - set(GROUPS)
    if unknown:
        raise ValueError(
            f"unknown check group(s) {sorted(unknown)}; choose from {GROUPS}"
        )
    repeated = sorted({group for group in groups if groups.count(group) > 1})
    if repeated:
        raise ValueError(f"check group(s) {repeated} selected more than once")
    runners = {
        "identities": _identity_checks,
        "constants": lambda: _constants_checks(k_max),
        "pole": lambda: _pole_checks(k_max),
        "oracle": lambda: _oracle_checks(k_max),
    }
    return [result for group in groups for result in runners[group]()]
