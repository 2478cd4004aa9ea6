"""The three benchmark workloads: inputs from a seed, the op, and its gate.

Each workload yields blocks of ops.  A block holds the same mix of op kinds in
every run (only the seeded values and their order change), and a run always
ends on a block boundary, so two runs with different seeds measure the same
kind of work.  Every op carries a check against references that are computed
before it runs: pinned oracle values, values pinned from the commit that
defined the benchmark (``reference.json``), or exact identities.

The program is always called through module attributes at call time
(``neumann.build_series``), so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import kramers.cli as cli
import kramers.neumann as neumann
import kramers.oracle as oracle
import kramers.transport as transport
from kramers.special_integrals import GasParameters

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Thresholds of the ``verify`` oracle group (verification._oracle_checks).
ORACLE_TOL = 1e-5
# Values pinned from the defining commit; loose enough for refactors that keep
# the series coefficients to 1e-10, tight enough to catch a broken path.
PINNED_TOL = 1e-8
# Second-order slip at q=1, gamma=0, printed to six digits by the README.
SLIP_ANCHOR = 1.015195

# profile: series built once in set-up, as (gamma, order, q)
PROFILE_CASES = ((0.0, 2, 1.0), (0.25, 1, 0.6), (0.1, 3, 0.8))
X_STEP = 0.25  # lattice of every profile coordinate
X_MAX = 40.0
H_X_STEP = 1.0  # lattice of the distribution-function coordinates
MU = (0.25, 0.5, 1.0, 2.0, -0.25, -0.5, -1.0, -2.0)
# Every profile op samples PROFILE_NODES coordinates at one of the steps, so
# its span is (PROFILE_NODES - 1) * step.  An op's cost grows linearly with
# the distance from the wall (the transforms need segments in proportion to
# x1 * k_max) and hardly depends on the case or mu.  So the seeded range
# centres come in mirrored pairs about X_MAX / 2, one pair per step and
# block, with the near centre of each pair drawn from its own third of
# [CENTRE_MIN, X_MAX / 2]: every block then holds the same work whatever the
# seed, and the op times keep the same spread.
PROFILE_NODES = 9
PROFILE_STEPS = (0.25, 0.5, 1.0)
CENTRE_MIN = 4.0

# series: gamma bands; gamma = 0 skips the S_2 rows of the kernel
SERIES_BANDS = ((0.0, 0.0), (0.05, 0.275), (0.275, 0.5))
SERIES_ORDERS = (1, 2, 3, 4)
SERIES_QS = 3
# gammas at which U_3 and U_4 are pinned; (1-gamma)^n U_n is a polynomial of
# degree n in gamma, because every kernel application is linear in gamma
SERIES_POLY_GAMMAS = (0.0, 0.125, 0.25, 0.375, 0.5)

# verify: one op is the cheap groups in one CLI call, then the oracle group's
# U_1 cross-path check at one seeded gamma per band (the group itself uses 0,
# 0.25 and 0.5).  Below gamma ~0.1 the oracle's cost falls steeply (0.2 s at
# 0 against 0.9 s above 0.1); the bands stay above it so that the op times,
# and with them the median and tail, do not hinge on the seed.  Three oracle
# checks to the three groups give the oracle the larger share of the op time,
# as in the full command.  One op per block: as ops of their own, the groups
# and checks (0.07 to 1.3 s each) would form clusters that the median op time
# jumps between.  The J-constant double integrals take ~45 s a call and run
# once, after the timed phase, in traced runs only.
VERIFY_GROUPS = ("identities", "constants", "pole")
VERIFY_CHECKS = 16  # checks in those groups
ORACLE_BANDS = ((0.1, 0.2333), (0.2333, 0.3667), (0.3667, 0.5))


@dataclass
class Op:
    """One closed-loop request: ``run`` calls the program, ``check`` judges it.

    ``check`` returns None when the output matches its reference, else the
    reason it does not.
    """

    kind: str
    inputs: tuple
    run: Callable[[], object]
    check: Callable[[object], str | None]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _off(name: str, value: float, ref: float, tol: float) -> str | None:
    if abs(value - ref) <= tol:
        return None
    return f"{name}={value!r} is off its reference {ref!r} by more than {tol:g}"


def _first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r is not None), None)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

class References:
    """Reference values for any seeded input, from the pinned data.

    U_1 is linear in gamma up to the factor 1/(1-gamma), so the oracle's U_1 at
    gamma = 0 and 0.5 fixes it everywhere.  U_2 comes from the oracle's own
    formula with its J constants pinned.  U_3 and U_4 come from the
    polynomials through the values pinned at SERIES_POLY_GAMMAS.
    """

    def __init__(self, data: dict):
        self.data = data
        orc = data["oracle"]
        self.u1_a = orc["u1_gamma_0"]
        self.u1_b = 2.0 * (0.5 * orc["u1_gamma_half"] - self.u1_a)
        self.j_values = tuple(orc["j_constants"])
        poly = data["series"]
        gammas = np.array(poly["gammas"])
        self.poly = {
            n: np.polyfit(gammas, (1.0 - gammas) ** n * np.array(poly[f"u{n}"]), n)
            for n in (3, 4)
        }
        self._u2_direct = oracle.u2_direct

    def u1(self, gamma: float) -> float:
        return (self.u1_a + self.u1_b * gamma) / (1.0 - gamma)

    def u(self, n: int, gamma: float) -> float:
        if n == 0:
            return neumann.u0()
        if n == 1:
            return self.u1(gamma)
        if n == 2:
            return self._u2_direct(gamma, j_values=self.j_values)
        return float(np.polyval(self.poly[n], gamma)) / (1.0 - gamma) ** n

    def tolerance(self, n: int) -> float:
        return ORACLE_TOL if n <= 2 else PINNED_TOL


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def _series_op(refs: References, gamma: float, order: int, qs: list[float]) -> Op:
    expected = [refs.u(n, gamma) for n in range(order + 1)]

    def run():
        series = neumann.build_series(gamma, order)
        slips = []
        for q in qs:
            params = GasParameters(gamma=gamma, q=q)
            slips.append((
                transport.slip_velocity(params, series),
                transport.slip_coefficient_kv(params, series),
            ))
        return series, slips

    def check(out) -> str | None:
        series, slips = out
        reasons = [
            _off(f"U_{n}(gamma={gamma})", u, ref, refs.tolerance(n))
            for n, (u, ref) in enumerate(zip(series.u_coeffs, expected))
        ]
        for q, (slip, kv) in zip(qs, slips):
            total = sum(u * q**n for n, u in enumerate(series.u_coeffs))
            reasons.append(_off(
                f"slip(q={q})", slip, (1.0 - gamma) * (2.0 - q) / q * total,
                1e-12 * abs(slip)))
            reasons.append(_off(
                f"K_v(q={q})", kv, (2.0 - q) / q * total * 2.0 / math.sqrt(math.pi),
                1e-12 * abs(kv)))
            if gamma == 0.0 and order == 2 and q == 1.0:
                reasons.append(_off("slip(q=1, gamma=0, order 2)", slip,
                                    SLIP_ANCHOR, 5e-7))
        return _first(*reasons)

    return Op(f"series order {order}", (gamma, order, tuple(qs)), run, check)


def series_blocks(rng: random.Random, refs: References):
    while True:
        block = []
        for lo, hi in SERIES_BANDS:
            for order in SERIES_ORDERS:
                gamma = rng.uniform(lo, hi) if hi > 0 else 0.0
                qs = [rng.uniform(0.05, 1.0) for _ in range(SERIES_QS)]
                if gamma == 0.0 and order == 2:
                    qs[0] = 1.0
                block.append(_series_op(refs, gamma, order, qs))
        rng.shuffle(block)
        yield block


def series_setup(rng: random.Random, refs: References):
    warmup = _series_op(refs, rng.uniform(*SERIES_BANDS[1]), 2, [1.0])
    return warmup, series_blocks(rng, refs)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def _lattice(x: np.ndarray | float, step: float) -> np.ndarray:
    return np.rint(np.asarray(x) / step).astype(int)


def _profile_op(refs: References, built: list, case: int, x: np.ndarray,
                h_points: list[tuple[float, float]]) -> Op:
    gamma, _, q = PROFILE_CASES[case]
    params = GasParameters(gamma=gamma, q=q)
    series = built[case]
    pinned = refs.data["profile"]
    u_sl_ref = pinned["u_sl"][case]
    u_c_ref = np.array(pinned["u_continuum"][case])[_lattice(x, X_STEP)]
    h_ref = [pinned["h"][case][int(_lattice(xh, H_X_STEP))][MU.index(mu)]
             for xh, mu in h_points]

    def run():
        profile = transport.velocity_profile(params, series, x)
        h = [transport.distribution_function(params, series, xh, mu)
             for xh, mu in h_points]
        return profile, h

    def check(out) -> str | None:
        profile, h = out
        if not np.array_equal(profile.x_nodes, x):
            return "profile coordinates differ from the request"
        split = profile.u_total - (profile.u_sl + profile.g_v * profile.x_nodes)
        worst = np.abs(split - profile.u_continuum) - 1e-12 * np.maximum(
            1.0, np.abs(profile.u_total))
        if np.any(worst > 0):
            return "u_total - (u_sl + g_v x) != u_continuum"
        dev = np.abs(profile.u_continuum - u_c_ref)
        reasons = [_off("u_sl", profile.u_sl, u_sl_ref, PINNED_TOL)]
        if np.any(dev > PINNED_TOL):
            i = int(np.argmax(dev))
            reasons.append(_off(f"u_continuum(x1={x[i]})", profile.u_continuum[i],
                                u_c_ref[i], PINNED_TOL))
        for (xh, mu), value, ref in zip(h_points, h, h_ref):
            reasons.append(_off(f"h(x1={xh}, mu={mu})", value, ref, PINNED_TOL))
        return _first(*reasons)

    return Op("profile", (case, tuple(x), tuple(h_points)), run, check)


def _profile_pair(rng: random.Random, stratum: int, step: float):
    """Inputs of two profile ops whose ranges mirror each other about X_MAX / 2.

    Each is (x, h_points): the profile coordinates and the distribution-function
    points, one x1 on the H_X_STEP lattice inside the range, at one positive and
    one negative mu shared by the pair.
    """
    half_span = 0.5 * step * (PROFILE_NODES - 1)
    width = (0.5 * X_MAX - CENTRE_MIN) / len(PROFILE_STEPS)
    lo = CENTRE_MIN + stratum * width
    centre = X_STEP * rng.randint(math.ceil(lo / X_STEP), math.floor((lo + width) / X_STEP))
    x = centre - half_span + step * np.arange(PROFILE_NODES)
    xh = float(rng.randint(math.ceil(x[0]), math.floor(x[-1])))
    mus = (rng.choice([m for m in MU if m > 0]), rng.choice([m for m in MU if m < 0]))
    return [
        (x, [(xh, mus[0]), (xh, mus[1])]),
        (X_MAX - x[::-1],
         [(X_MAX - xh, mus[0]), (X_MAX - xh, mus[1])]),
    ]


def profile_blocks(rng: random.Random, refs: References, built: list):
    while True:
        strata = list(range(len(PROFILE_STEPS)))
        rng.shuffle(strata)
        inputs = [pair for stratum, step in zip(strata, PROFILE_STEPS)
                  for pair in _profile_pair(rng, stratum, step)]
        cases = [i % len(PROFILE_CASES) for i in range(len(inputs))]
        rng.shuffle(cases)
        block = [_profile_op(refs, built, case, x, h_points)
                 for case, (x, h_points) in zip(cases, inputs)]
        rng.shuffle(block)
        yield block


def profile_setup(rng: random.Random, refs: References):
    built = [neumann.build_series(gamma, order) for gamma, order, _ in PROFILE_CASES]
    warmup = _profile_op(refs, built, 0, *_profile_pair(rng, 1, PROFILE_STEPS[1])[0])
    return warmup, profile_blocks(rng, refs, built)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_PASSED = re.compile(r"^(\d+)/(\d+) checks passed$")


def _verify_op(refs: References, out_dir: str, gammas: list[float]) -> Op:
    path = os.path.join(out_dir, "verify.txt")
    groups = ",".join(VERIFY_GROUPS)
    expected = [refs.u1(gamma) for gamma in gammas]

    def run():
        if os.path.exists(path):
            os.remove(path)  # a run that writes nothing must not pass on old output
        code = cli.main(["verify", "--only", groups, "--output", path])
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        u1 = [(oracle.u1_direct(gamma), neumann.build_series(gamma, 1).u_coeffs[1])
              for gamma in gammas]
        return code, lines[-1] if lines else "", u1

    def check(out) -> str | None:
        code, last, u1 = out
        match = _PASSED.match(last)
        if code != 0:
            return f"verify --only {groups} exited {code}"
        if not match or match.group(1) != match.group(2):
            return f"verify --only {groups} ended with {last!r}"
        if int(match.group(2)) != VERIFY_CHECKS:
            return f"verify --only {groups} ran {match.group(2)} checks, not {VERIFY_CHECKS}"
        return _first(*(
            _first(_off(f"oracle U_1(gamma={gamma})", direct, ref, 1e-9),
                   _off(f"series U_1(gamma={gamma}) vs oracle", series_u1, direct,
                        ORACLE_TOL))
            for gamma, ref, (direct, series_u1) in zip(gammas, expected, u1)
        ))

    return Op("verify", tuple(gammas), run, check)


def verify_blocks(rng: random.Random, refs: References, out_dir: str):
    while True:
        yield [_verify_op(refs, out_dir, [rng.uniform(lo, hi) for lo, hi in ORACLE_BANDS])]


def verify_setup(rng: random.Random, refs: References, out_dir: str):
    return _verify_op(refs, out_dir, [0.25]), verify_blocks(rng, refs, out_dir)


def j_constants_probe(refs: References) -> Op:
    """The oracle's J double integrals, the bulk of ``verify --only oracle``."""

    def check(out) -> str | None:
        return _first(*(
            _off(f"J_{i}", value, ref, 1e-9)
            for i, (value, ref) in enumerate(zip(out, refs.j_values))
        ))

    return Op("oracle j_constants", (), lambda: oracle.j_constants(), check)
