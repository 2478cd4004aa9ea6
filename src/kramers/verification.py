"""Self-check suites behind the ``verify`` command.

Each check computes a measured deviation and compares it against a fixed
threshold; the CLI renders the results as a pass/fail table.  Groups:

* ``identities``  — the graded moments ``slip`` and ``profile`` read
  (``MomentBatch`` ``T_n``, ``fixed_row`` ``J_n`` rows) against the exact
  moment table or, by identities mixing the routes, the adaptive path of
  ``curves`` (cached ``t_n``, ``dispersion_l`` and ``s_kernel``).
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
from .special_integrals import MOMENTS, SQRT_PI, MomentBatch, dispersion_l, fixed_row, t_n

__all__ = ["CheckResult", "run_checks", "GROUPS"]

GROUPS = ("identities", "constants", "pole", "oracle")

_K_GRID = np.concatenate([np.linspace(0.05, 2.0, 8), [3.0, 5.0, 10.0, 20.0]])
#: the (k, k1) pairs of the S check as indices into _K_GRID; k of the J_n rows
_PAIRS = ([0, 1, 3, 7], [4, 6, 9, 11])


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    deviation: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.threshold


def j_n(n: int, k: np.ndarray, batch: MomentBatch) -> np.ndarray:
    """Graded J_n(k[j], k1[i]) at [i, j] for the k1 of ``batch``, from the
    kernel table's rows ``fixed_row(n, k)``."""
    return batch.against(np.stack([fixed_row(n, float(v)) for v in k], axis=1))


def j_m(j: np.ndarray, j_2: np.ndarray, k1, gamma) -> np.ndarray:
    """Density-weighted J^(m) = J_m + gamma k1^2 J_{m+2} from J_m and J_{m+2}."""
    return j + gamma * k1 * k1 * j_2


def _identity_checks() -> list[CheckResult]:
    # adaptive: 28 cached t_n and 4 cached J_3 in s_kernel; perfbench/tracing.py
    # binds j_n and j_m here by name
    k, (ia, ib) = _K_GRID, _PAIRS
    batch = MomentBatch(k)
    t = [batch.t(n) for n in range(9)]
    a, b, k1 = k[ia], k[ib], k[:, None]
    j1, j3, j5 = (j_n(n, a, batch) for n in (1, 3, 5))
    t1 = np.array([t_n(1, v) for v in k])
    t1_a, t3_a = t1[ia], np.array([t_n(3, v) for v in a])
    g, pair = np.array([0.0, 0.2, 0.5])[:, None], (ib, range(len(a)))
    residuals = {
        "T_n recurrence": [t[n] + k * k * t[n + 2] - MOMENTS[n] for n in range(7)],
        "1/sqrt(pi) - T_1 = k^2 T_3": [MOMENTS[1] - t1 - k * k * t[3]],
        "L = 1 - T_0 - gamma k^2 T_2": [
            [dispersion_l(v, gam) for v in k.tolist()]
            - (1.0 - t[0] - gam * k * k * t[2]) for gam in (0.0, 0.25, 0.5)],
        "J_n + k1^2 J_{n+2} = T_n(k)": [
            j_m(j1, j3, k1, 1.0) - t1_a, j_m(j3, j5, k1, 1.0) - t3_a],
        # (k^2 - k1^2) / ((1 + k^2 t^2)(1 + k1^2 t^2)) in partial fractions
        "J_n partial fractions": [
            (a * a - k1 * k1) * j1 - (a * a * t1_a - k1 * k1 * t1[:, None]),
            (a * a - k1 * k1) * j3 - (t1[:, None] - t1_a)],
        # S = J^(3)(k, k1) - sqrt(pi) T_3(k) J^(1)(0, k1), where J_n(0, k1) = T_n(k1)
        "S kernel dual route": [s_kernel(a, b, g) - (
            j_m(j3[pair], j5[pair], b, g)
            - SQRT_PI * t[3][ia] * j_m(t[1][ib], t[3][ib], b, g))],
    }
    return [CheckResult("identities", name, max(float(np.max(np.abs(r))) for r in rs), 1e-10)
            for name, rs in residuals.items()]


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
        b_rows = np.abs(neumann.pole_residual(series, ks))
        # the least-squares slope of ln B_n on ln k: ks are equally spaced in
        # ln k, so the middle point has no leverage and the slope is the chord's
        slopes = np.log(b_rows[:, 2] / b_rows[:, 0]) / np.log(ks[2] / ks[0])
        for n, slope in enumerate(slopes):
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
