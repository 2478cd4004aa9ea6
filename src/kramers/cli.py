"""Command-line surface: coefficients, curve tables, profiles, self-checks.

Commands emit CSV (default) or JSON with a metadata block; numbers are
printed with six significant digits and the byte output is deterministic
for fixed flags.  Exit codes: 0 success, 1 failed verification checks,
2 invalid flags or domain errors, 3 numerical-budget failures (the message
names the failing integral).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import verification
from .neumann import build_series
from .quadrature import QuadratureSpec, QuadratureError
from .special_integrals import GasParameters, dispersion_l, t_n
from .transport import distribution_function, slip_coefficient_kv, slip_velocity, velocity_profile

__all__ = ["main"]


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


#: most nodes a --x/--k range may hold; each node costs at least one integral
MAX_RANGE_NODES = 10_000


def _parse_range(text: str) -> np.ndarray:
    """Parse 'start:stop:step' into an inclusive, deterministic grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"range {text!r}: start, stop and step must be finite")
    if stop < start:
        raise ValueError(f"empty range {text!r}: stop is below start")
    if stop > start and step <= 0.0:
        raise ValueError(f"empty range {text!r}: step must be positive")
    if stop == start:
        return np.array([start])
    steps = (stop - start) / step
    # round(steps) + 1 nodes; the comparison is also false for an overflow
    if not steps < MAX_RANGE_NODES - 0.5:
        raise ValueError(
            f"range {text!r} holds more than {MAX_RANGE_NODES} nodes"
        )
    grid = start + step * np.arange(int(round(steps)) + 1)
    return grid[grid <= stop + 1e-12 * max(1.0, abs(stop))]


def _spec_from_args(args: argparse.Namespace) -> QuadratureSpec:
    kwargs = {}
    if args.tol is not None:
        kwargs["rel_tol"] = args.tol
    if args.kmax is not None:
        kwargs["k_max"] = args.kmax
    return QuadratureSpec(**kwargs)


def _meta(args: argparse.Namespace, spec: QuadratureSpec) -> dict:
    return {
        "gamma": getattr(args, "gamma", None),
        "q": getattr(args, "q", None),
        "order": getattr(args, "order", None),
        "rel_tol": spec.rel_tol,
        "k_max": spec.k_max,
    }


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_table(
    args: argparse.Namespace,
    spec: QuadratureSpec,
    header: list[str],
    rows: list[list[float]],
) -> None:
    if args.format == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        _emit("\n".join(lines) + "\n", args.output)
    else:
        columns = list(zip(*rows)) if rows else [[] for _ in header]
        data = {
            name: [float(_fmt(v)) for v in col]
            for name, col in zip(header, columns)
        }
        doc = {"meta": _meta(args, spec), "data": data}
        _emit(json.dumps(doc, indent=2) + "\n", args.output)


def _cmd_slip(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    params = GasParameters(gamma=args.gamma, q=args.q, g_v=1.0)
    series = build_series(args.gamma, args.order, spec)
    rows = [[f"U_{n}", u] for n, u in enumerate(series.u_coeffs)]
    rows.append(["U_sl_over_Gv", slip_velocity(params, series)])
    rows.append(["K_v", slip_coefficient_kv(params, series)])
    if args.format == "csv":
        lines = ["quantity,value"]
        lines.extend(f"{name},{_fmt(v)}" for name, v in rows)
        _emit("\n".join(lines) + "\n", args.output)
    else:
        doc = {
            "meta": _meta(args, spec),
            "data": {name: float(_fmt(v)) for name, v in rows},
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    grid = _parse_range(args.k)
    if grid.size == 0:
        raise ValueError("empty k range")
    if args.what == "dispersion":
        header = ["k", "L"]
        rows = [[k, dispersion_l(k, args.gamma, spec)] for k in grid]
    else:
        header = ["k", "T1", "T2", "T3"]
        rows = [
            [k, t_n(1, k, spec), t_n(2, k, spec), t_n(3, k, spec)]
            for k in grid
        ]
    _emit_table(args, spec, header, rows)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    params = GasParameters(gamma=args.gamma, q=args.q, g_v=1.0)
    x_nodes = _parse_range(args.x)
    if x_nodes.size == 0:
        raise ValueError("empty x range")
    series = build_series(args.gamma, args.order, spec)
    profile = velocity_profile(params, series, x_nodes)
    header = ["x1", "u_total", "u_continuum"]
    columns = [profile.x_nodes, profile.u_total, profile.u_continuum]
    if args.mu:
        mu_values = [float(v) for v in args.mu.split(",")]
        for mu in mu_values:
            header.append(f"h_mu_{_fmt(mu)}")
            columns.append(
                np.array([
                    distribution_function(params, series, x, mu)
                    for x in profile.x_nodes
                ])
            )
    rows = [list(row) for row in zip(*columns)]
    _emit_table(args, spec, header, rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    only = tuple(args.only.split(",")) if args.only else None
    results = verification.run_checks(spec, only)
    width = max(len(r.name) for r in results) + 2
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  [{r.group}] {r.name:<{width}} "
            f"deviation {r.deviation:.3e}  (threshold {r.threshold:.1e})"
        )
    failed = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
    )
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if failed == 0 else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=None,
                        help="relative quadrature tolerance")
    parser.add_argument("--kmax", type=float, default=None,
                        help="spectral truncation wavenumber in (2, 16384]")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None,
                        help="write to this path instead of stdout")


def _add_gas(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=float, default=1.0,
                        help="diffusion (accommodation) coefficient in (0, 1]")
    parser.add_argument("--gamma", type=float, default=0.0,
                        help="density parameter in [0, 0.95]")
    parser.add_argument("--order", type=int, default=2,
                        help="highest series order (0..4)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kramers",
        description=(
            "Isothermal slip of a moderately dense gas with mirror-diffusion "
            "walls: series coefficients, slip velocity, wall-layer profiles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_slip = sub.add_parser("slip", help="slip velocity and coefficients")
    _add_gas(p_slip)
    _add_common(p_slip)
    p_slip.set_defaults(func=_cmd_slip)

    p_curves = sub.add_parser("curves", help="dispersion/moment curve tables")
    p_curves.add_argument("--what", choices=("dispersion", "tn"),
                          default="dispersion")
    p_curves.add_argument("--gamma", type=float, default=0.0)
    p_curves.add_argument("--k", default="0:10:0.1",
                          help="wavenumber range start:stop:step")
    _add_common(p_curves)
    p_curves.set_defaults(func=_cmd_curves)

    p_profile = sub.add_parser("profile", help="velocity profile and distribution")
    _add_gas(p_profile)
    p_profile.add_argument("--x", default="0:10:0.5",
                           help="coordinate range start:stop:step")
    p_profile.add_argument("--mu", default=None,
                           help="comma list of velocities in [-10, 10] for "
                                "h(x1, mu) columns")
    _add_common(p_profile)
    p_profile.set_defaults(func=_cmd_profile)

    p_verify = sub.add_parser("verify", help="run identity and oracle checks")
    p_verify.add_argument(
        "--only", default=None,
        help=f"comma list of check groups from {', '.join(verification.GROUPS)}",
    )
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
