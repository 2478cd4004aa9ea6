"""Command-line surface: coefficients, curve tables, profiles, self-checks.

Commands emit CSV (default) or JSON with a metadata block; numbers are
printed with six significant digits and the byte output is deterministic
for fixed flags.  Exit codes: 0 success, 1 failed verification checks,
2 invalid flags, domain errors or an output path that cannot be written,
3 numerical-budget failures (the message names the failing integral).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

import numpy as np

from . import verification
from .neumann import build_series
from .quadrature import K_LIMIT, K_MAX, QuadratureError, check_k_max
from .special_integrals import GasParameters, dispersion_l, t_n
from .transport import (
    MU_MAX,
    check_mu,
    distribution_function,
    slip_coefficient_kv,
    slip_velocity,
    velocity_profile,
)

__all__ = ["main"]


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


#: most nodes a --x/--k range may hold; each node costs at least one integral
MAX_RANGE_NODES = 10_000


def _parse_number(flag: str, entry: str) -> float:
    try:
        return float(entry)
    except ValueError:
        raise ValueError(f"{flag}: {entry!r} is not a number") from None


def _split_list(flag: str, text: str) -> list[str]:
    """The entries of a comma list; an empty list is a bad request, not
    "all" or "none"."""
    if not text:
        raise ValueError(f"{flag}: empty list")
    return text.split(",")


def _parse_range(flag: str, text: str, nodes: str) -> np.ndarray:
    """Parse 'start:stop:step' into an inclusive, deterministic grid of
    ``nodes`` (named in errors), which must be >= 0."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag} range must be start:stop:step, got {text!r}")
    start, stop, step = (_parse_number(flag, p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"range {text!r}: start, stop and step must be finite")
    if start < 0.0:
        raise ValueError(f"{flag}: {nodes} must be >= 0, got {start:g}")
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


def _meta(args: argparse.Namespace) -> dict:
    """The numerical flags of the command, each of which it reads."""
    keys = {"gamma": "gamma", "q": "q", "order": "order", "kmax": "k_max"}
    return {key: getattr(args, name) for name, key in keys.items() if name in args}


def _check_output(output: str | None) -> None:
    """Raise, before any work, the error that writing to ``output`` would."""
    if output is None:
        return
    if not output:
        raise ValueError("--output: empty path")
    if os.path.isdir(output):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    # the trailing separator also rejects a parent that is a file
    os.stat(os.path.join(os.path.dirname(output) or ".", ""))


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_table(
    args: argparse.Namespace, header: list[str], rows: list[list[float]]
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
        doc = {"meta": _meta(args), "data": data}
        _emit(json.dumps(doc, indent=2) + "\n", args.output)


def _cmd_slip(args: argparse.Namespace) -> int:
    params = GasParameters(gamma=args.gamma, q=args.q, g_v=1.0)
    series = build_series(args.gamma, args.order, args.kmax)
    rows = [[f"U_{n}", u] for n, u in enumerate(series.u_coeffs)]
    rows.append(["U_sl_over_Gv", slip_velocity(params, series)])
    rows.append(["K_v", slip_coefficient_kv(params, series)])
    if args.format == "csv":
        lines = ["quantity,value"]
        lines.extend(f"{name},{_fmt(v)}" for name, v in rows)
        _emit("\n".join(lines) + "\n", args.output)
    else:
        doc = {
            "meta": _meta(args),
            "data": {name: float(_fmt(v)) for name, v in rows},
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    if not 0.0 <= args.gamma < 1.0:  # also false for NaN
        raise ValueError(f"--gamma must be in [0, 1), got {args.gamma}")
    grid = _parse_range("--k", args.k, "wavenumbers")
    if grid[-1] > K_LIMIT:
        raise ValueError(
            f"--k: wavenumbers must be at most {K_LIMIT:g}, got {grid[-1]:g}"
        )
    if args.what == "dispersion":
        header = ["k", "L"]
        rows = [[k, dispersion_l(k, args.gamma)] for k in grid]
    else:
        header = ["k", "T1", "T2", "T3"]
        rows = [[k, t_n(1, k), t_n(2, k), t_n(3, k)] for k in grid]
    _emit_table(args, header, rows)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    params = GasParameters(gamma=args.gamma, q=args.q, g_v=1.0)
    x_nodes = _parse_range("--x", args.x, "coordinates")
    header = ["x1", "u_total", "u_continuum"]
    mu_values = []
    for entry in _split_list("--mu", args.mu) if args.mu is not None else []:
        mu = _parse_number("--mu", entry)
        check_mu(mu)
        name = f"h_mu_{_fmt(mu)}"
        if name in header:  # JSON would keep only one of the two columns
            raise ValueError(f"--mu: {entry!r} repeats the column {name}")
        header.append(name)
        mu_values.append(mu)
    series = build_series(args.gamma, args.order, args.kmax)
    profile = velocity_profile(params, series, x_nodes)
    columns = [profile.x_nodes, profile.u_total, profile.u_continuum]
    for mu in mu_values:
        columns.append(distribution_function(params, series, profile.x_nodes, mu))
    rows = [list(row) for row in zip(*columns)]
    _emit_table(args, header, rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    only = tuple(_split_list("--only", args.only)) if args.only is not None else None
    if only is not None and "" in only:
        raise ValueError("--only: empty group name")
    results = verification.run_checks(args.kmax, only)
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


def _add_kmax(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kmax", type=float, default=K_MAX,
                        help=f"spectral truncation wavenumber in (2, {K_LIMIT:g}] "
                             f"(default {K_MAX:g})")


def _add_output(parser: argparse.ArgumentParser, formats: bool = True) -> None:
    parser.add_argument("--output", default=None,
                        help="write to this path instead of stdout")
    if formats:  # verify prints its check report as text only
        parser.add_argument("--format", choices=("csv", "json"), default="csv")


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
    _add_kmax(p_slip)
    _add_output(p_slip)
    p_slip.set_defaults(func=_cmd_slip)

    p_curves = sub.add_parser("curves", help="dispersion/moment curve tables")
    p_curves.add_argument("--what", choices=("dispersion", "tn"),
                          default="dispersion")
    p_curves.add_argument("--gamma", type=float, default=0.0)
    p_curves.add_argument("--k", default="0:10:0.1",
                          help="wavenumber range start:stop:step")
    _add_output(p_curves)
    p_curves.set_defaults(func=_cmd_curves)

    p_profile = sub.add_parser("profile", help="velocity profile and distribution")
    _add_gas(p_profile)
    p_profile.add_argument("--x", default="0:10:0.5",
                           help="coordinate range start:stop:step")
    p_profile.add_argument("--mu", default=None,
                           help=f"comma list of velocities in [-{MU_MAX:g}, "
                                f"{MU_MAX:g}] for h(x1, mu) columns")
    _add_kmax(p_profile)
    _add_output(p_profile)
    p_profile.set_defaults(func=_cmd_profile)

    p_verify = sub.add_parser("verify", help="run identity and oracle checks")
    p_verify.add_argument(
        "--only", default=None,
        help=f"comma list of check groups from {', '.join(verification.GROUPS)}",
    )
    _add_kmax(p_verify)
    _add_output(p_verify, formats=False)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "kmax" in args:
            check_k_max(args.kmax)
        _check_output(args.output)
        return args.func(args)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = "stdout" if args.output is None else args.output
        print(f"cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
