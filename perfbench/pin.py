"""Regenerate ``reference.json``, the values the benchmark's gate checks against.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only at a commit whose outputs are trusted: it pins the oracle's U_1
and J constants, the series path's U_3 and U_4, and the profile and
distribution-function values on the workloads' coordinate lattices.  It takes
about three minutes on two cores, most of it the oracle's J constants.
Before writing, it checks that the interpolation rules the references rely on
(U_1 linear in gamma after the 1/(1-gamma) factor, (1-gamma)^n U_n a
polynomial of degree n) reproduce direct computations at gammas that were not
pinned.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import kramers.neumann as neumann
import kramers.oracle as oracle
import kramers.transport as transport
from kramers.special_integrals import GasParameters

import workloads as wl


def _check(name: str, value: float, ref: float, tol: float) -> None:
    print(f"{name}: {value!r} vs {ref!r} (|diff| {abs(value - ref):.2e})", flush=True)
    if abs(value - ref) > tol:
        sys.exit(f"{name} is off by more than {tol:g}; not writing references")


def main() -> int:
    u1_0 = oracle.u1_direct(0.0)
    u1_half = oracle.u1_direct(0.5)
    j_values = oracle.j_constants()
    data = {
        "oracle": {
            "u1_gamma_0": u1_0,
            "u1_gamma_half": u1_half,
            "j_constants": list(j_values),
        }
    }
    series = {f"u{n}": [] for n in (3, 4)}
    for gamma in wl.SERIES_POLY_GAMMAS:
        coeffs = neumann.build_series(gamma, 4).u_coeffs
        for n in (3, 4):
            series[f"u{n}"].append(coeffs[n])
    data["series"] = {"gammas": list(wl.SERIES_POLY_GAMMAS), **series}

    refs = wl.References(data)
    for gamma in (0.05, 0.3):
        _check(f"oracle U_1({gamma}) from the linear rule", refs.u1(gamma),
               oracle.u1_direct(gamma), 1e-10)
        coeffs = neumann.build_series(gamma, 4).u_coeffs
        for n in (3, 4):
            _check(f"U_{n}({gamma}) from the polynomial", refs.u(n, gamma),
                   coeffs[n], 1e-10)

    x = wl.X_STEP * np.arange(int(wl.X_MAX / wl.X_STEP) + 1)
    xh = wl.H_X_STEP * np.arange(int(wl.X_MAX / wl.H_X_STEP) + 1)
    profile = {"u_sl": [], "u_continuum": [], "h": []}
    for gamma, order, q in wl.PROFILE_CASES:
        built = neumann.build_series(gamma, order)
        params = GasParameters(gamma=gamma, q=q)
        result = transport.velocity_profile(params, built, x)
        profile["u_sl"].append(result.u_sl)
        profile["u_continuum"].append(result.u_continuum.tolist())
        profile["h"].append([
            [transport.distribution_function(params, built, float(v), mu)
             for mu in wl.MU]
            for v in xh
        ])
        print(f"profile case gamma={gamma} order={order} q={q} pinned", flush=True)
    data["profile"] = profile

    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
        handle.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
