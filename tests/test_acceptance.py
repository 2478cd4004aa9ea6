"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -rA`` to see the PASS/FAIL report
lines for passing criteria too.

Two sub-criteria encode reference values that contradict an exact structural
identity of the kernel: the moment recurrences force S_2 = -S_1/k1^2 and
therefore J_2 = -(J_0 + J_1) exactly, which three independent computations
here confirm to 5e-12.  The quoted J_2 = -0.0306 (and the density slope
-0.6862 derived from it) violate that identity; the correct values are
J_2 = -0.0240 and slope = -0.7093, the latter within 0.4% of the
exact-solution slope -0.7071.  Those two assertions are kept at their stated
tolerances and fail; everything else passes.
"""

import math
import time

import numpy as np
import pytest

from kramers import (
    GasParameters,
    build_series,
    pole_residual,
    slip_velocity,
    u0,
    u_coefficient,
)
from kramers.cli import main as cli_main
from kramers.oracle import u1_direct, u2_direct
from kramers.quadrature import DEFAULT_SPEC
from kramers.special_integrals import MOMENTS, dispersion_l, j_n, t_n

SPEC = DEFAULT_SPEC
SQPI = math.sqrt(math.pi)


def _criterion(name, checks, started):
    elapsed = time.perf_counter() - started
    ok_all = all(ok for _, ok, _ in checks)
    details = "; ".join(
        f"{label} {'ok' if ok else 'FAIL'} ({detail})"
        for label, ok, detail in checks
    )
    print(f"{name}: {'PASS' if ok_all else 'FAIL'} [{elapsed:.1f}s] {details}")
    assert ok_all, f"{name}: {details}"


def test_a1_zero_order_coefficient():
    started = time.perf_counter()
    value = u0()
    _criterion(
        "A1",
        [("U_0 = 0.886227 +- 1e-4", abs(value - 0.886227) <= 1e-4,
          f"U_0={value:.7f}")],
        started,
    )


def test_a2_first_order_coefficient(series_cache):
    started = time.perf_counter()
    phi_0 = series_cache(0.0, 1).phi_funcs[0]
    u1_zero = u_coefficient(1, 0.0, phi_0, SPEC)
    gammas = np.array([0.0, 0.25, 0.5])
    scaled = np.array(
        [(1.0 - g) * u_coefficient(1, g, phi_0, SPEC) for g in gammas]
    )
    slope = np.polyfit(gammas, scaled, 1)[0]
    _criterion(
        "A2",
        [
            ("U_1(0) = 0.1405 +- 5e-4", abs(u1_zero - 0.1405) <= 5e-4,
             f"U_1(0)={u1_zero:.6f}"),
            ("slope of (1-g)U_1 = 0.2009 +- 1e-3", abs(slope - 0.2009) <= 1e-3,
             f"slope={slope:.6f}"),
        ],
        started,
    )


def test_a3_second_order_constants(series_cache, oracle_j):
    started = time.perf_counter()
    j0, j1, j2 = oracle_j
    checks = [
        ("J_0 = 0.0116 +- 5e-4", abs(j0 - 0.0116) <= 5e-4, f"J_0={j0:.6f}"),
        ("J_1 = 0.0125 +- 5e-4", abs(j1 - 0.0125) <= 5e-4, f"J_1={j1:.6f}"),
        ("J_2 = -0.0306 +- 1e-3", abs(j2 + 0.0306) <= 1e-3,
         f"J_2={j2:.6f} (identity J_2=-(J_0+J_1) forces {-(j0 + j1):.6f})"),
    ]
    for gamma in (0.0, 0.25):
        series = series_cache(gamma, 2)
        direct = u2_direct(gamma, j_values=oracle_j)
        dev = abs(series.u_coeffs[2] - direct)
        checks.append(
            (f"series U_2 matches double integrals at gamma={gamma} +- 1e-5",
             dev <= 1e-5, f"|diff|={dev:.2e}")
        )
    _criterion("A3", checks, started)


def test_a4_slip_at_full_accommodation(series_cache):
    started = time.perf_counter()
    gammas = (0.0, 0.25, 0.5)
    slips = np.array([
        slip_velocity(GasParameters(gamma=g, q=1.0, g_v=1.0), series_cache(g, 2))
        for g in gammas
    ])
    value = slips[0]
    slope = np.polyfit(np.array(gammas), slips, 1)[0]
    rel_dev = abs(value - 1.0162) / 1.0162
    slope_vs_exact = abs(slope + 0.7071) / 0.7071
    _criterion(
        "A4",
        [
            ("U_sl(q=1,g=0)/G_v = 1.0151 +- 1e-3", abs(value - 1.0151) <= 1e-3,
             f"value={value:.6f}"),
            ("deviation from exact 1.0162 <= 0.15%", rel_dev <= 0.0015,
             f"dev={100 * rel_dev:.3f}%"),
            ("slope = -0.6862 +- 2e-2", abs(slope + 0.6862) <= 2e-2,
             f"slope={slope:.6f} (kernel identity forces -(U_0-b+J_0+J_1))"),
            ("slope within 2% of exact -0.7071", slope_vs_exact <= 0.02,
             f"dev={100 * slope_vs_exact:.3f}%"),
        ],
        started,
    )


def test_a5_identity_suite():
    started = time.perf_counter()
    k_grid = np.concatenate([
        np.linspace(0.05, 2.0, 10), np.geomspace(2.5, 50.0, 10)
    ])
    rec = max(
        abs(t_n(n, k) + k * k * t_n(n + 2, k) - MOMENTS[n])
        for n in range(6)
        for k in k_grid
    )
    t0_t2 = max(abs(1.0 - t_n(0, k) - k * k * t_n(2, k)) for k in k_grid)
    disp = max(
        abs(dispersion_l(k, g) - (1.0 - t_n(0, k) - g * k * k * t_n(2, k)))
        for g in (0.0, 0.25, 0.5)
        for k in k_grid
    )
    pairs = list(zip(k_grid[:-1:2], k_grid[1::2]))
    sym = max(
        abs(j_n(n, a, b) - j_n(n, b, a))
        for n in (1, 3, 5)
        for a, b in pairs
    )
    collapse = max(
        abs(j_n(n, k, 0.0) - t_n(n, k))
        for n in (1, 3, 5)
        for k in k_grid
    )
    _criterion(
        "A5",
        [
            ("T_n recurrence <= 1e-10", rec <= 1e-10, f"max={rec:.2e}"),
            ("1-T_0 = k^2 T_2 <= 1e-10", t0_t2 <= 1e-10, f"max={t0_t2:.2e}"),
            ("L = 1-T_0-g k^2 T_2 <= 1e-10", disp <= 1e-10, f"max={disp:.2e}"),
            ("J_n symmetry <= 1e-10", sym <= 1e-10, f"max={sym:.2e}"),
            ("J_n collapse <= 1e-10", collapse <= 1e-10, f"max={collapse:.2e}"),
        ],
        started,
    )


def test_a6_pole_elimination(series_cache):
    started = time.perf_counter()
    ks = np.array([1e-3, 2e-3, 4e-3])
    checks = []
    for gamma in (0.0, 0.25):
        series = series_cache(gamma, 2)
        for n in (0, 1, 2):
            vals = np.array([
                abs(pole_residual(series, n, k, SPEC)) for k in ks
            ])
            exponent = np.polyfit(np.log(ks), np.log(vals), 1)[0]
            checks.append(
                (f"B_{n} ~ k^2 (gamma={gamma})", abs(exponent - 2.0) <= 0.1,
                 f"exponent={exponent:.3f}")
            )
        for n in (0, 1, 2):
            e_fn = series.e_funcs[n]
            probes = np.array([4e-3, 2e-3, 1e-3])
            diffs = np.abs(e_fn(probes) - e_fn(0.0))
            # finite at 0 with |E(k)-E(0)| shrinking ~k^2 down the sequence
            quadratic = diffs[0] > 8.0 * diffs[-1] if diffs[-1] > 0 else True
            checks.append(
                (f"E_{n} continuous at 0 (gamma={gamma})",
                 bool(np.all(np.diff(diffs) < 0.0) and quadratic
                      and diffs[-1] < 1e-5),
                 f"|E({probes[-1]:.0e})-E(0)|={diffs[-1]:.1e}")
            )
    _criterion("A6", checks, started)


def test_a7_profile_decay_and_moment(series_cache):
    from kramers.quadrature import integrate_gaussian_weighted
    from kramers.transport import distribution_function, velocity_profile

    started = time.perf_counter()
    checks = []
    for gamma in (0.0, 0.25):
        series = series_cache(gamma, 2)
        params = GasParameters(gamma=gamma, q=1.0, g_v=1.0)
        profile = velocity_profile(params, series, [0.0, 1.0, 5.0, 20.0])
        ratio = abs(profile.u_continuum[-1] / profile.u_continuum[0])
        checks.append(
            (f"|U_c(20)| < 1e-3 |U_c(0)| (gamma={gamma})", ratio < 1e-3,
             f"ratio={ratio:.2e}")
        )
        for x, u_c in zip(profile.x_nodes[:3], profile.u_continuum[:3]):
            def h_c(mu, x=x):
                h_as = profile.u_sl + params.g_v * (
                    x - (1.0 - gamma) * mu
                )
                return distribution_function(params, series, x, mu) - h_as

            def folded(t, x=x):
                return np.array([h_c(v) + h_c(-v) for v in np.atleast_1d(t)])

            moment = integrate_gaussian_weighted(folded, SPEC) / SQPI
            dev = abs(moment - u_c)
            checks.append(
                (f"moment of h_c = U_c at x={x:g} (gamma={gamma}) +- 1e-6",
                 dev <= 1e-6, f"|diff|={dev:.2e}")
            )
    _criterion("A7", checks, started)


def test_a8_cross_path_and_verify(series_cache, oracle_j, capsys):
    started = time.perf_counter()
    checks = []
    for gamma in (0.0, 0.25, 0.5):
        series = series_cache(gamma, 1)
        dev = abs(series.u_coeffs[1] - u1_direct(gamma))
        checks.append(
            (f"U_1 cross-path at gamma={gamma} +- 1e-5", dev <= 1e-5,
             f"|diff|={dev:.2e}")
        )
    for gamma in (0.0, 0.25):
        series = series_cache(gamma, 2)
        dev = abs(series.u_coeffs[2] - u2_direct(gamma, j_values=oracle_j))
        checks.append(
            (f"U_2 cross-path at gamma={gamma} +- 1e-5", dev <= 1e-5,
             f"|diff|={dev:.2e}")
        )
    code = cli_main(["verify"])
    report = capsys.readouterr().out
    checks.append(("verify exits 0", code == 0,
                   f"exit={code}, {report.strip().splitlines()[-1]}"))
    _criterion("A8", checks, started)
