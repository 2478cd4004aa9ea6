"""Adaptive quadrature engine for semi-infinite integrals.

Two integral families cover everything the solver needs:

* Gaussian-weight integrals ``int_0^inf exp(-t^2) f(t) dt``, truncated at
  ``T_MAX`` where the weight is below the absolute floor ``ABS_TOL``.
* Spectral integrals ``int_0^inf f(k) dk`` of algebraically decaying
  integrands, truncated at ``k_max`` with a fitted tail correction.

The engine is an adaptive Gauss-Kronrod (G7/K15) bisection scheme that
evaluates the integrand on whole batches of nodes at once: integrands must
be numpy-vectorised and pay one call per refinement sweep.  Accuracy is set
by the two fields of :class:`QuadratureSpec`; the absolute floor, the
Gaussian truncation point and the subdivision budget are module constants.
All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "QuadratureError",
    "BudgetExhaustedError",
    "NonFiniteIntegrandError",
    "TailEstimateDominatesError",
    "integrate_gaussian_weighted",
    "integrate_spectral",
]


class QuadratureError(Exception):
    """Base class for numerical-integration failures.

    Carries the label of the failing integral so callers can surface
    actionable messages (e.g. "phi_2 grid node k=0.031").
    """

    def __init__(self, label: str, message: str):
        self.label = label
        super().__init__(f"{label}: {message}")


class BudgetExhaustedError(QuadratureError):
    """Subdivision limit hit before reaching the requested tolerance."""


class NonFiniteIntegrandError(QuadratureError):
    """The integrand returned NaN or infinity; caller bug."""


class TailEstimateDominatesError(QuadratureError):
    """The extrapolated tail is too large a share of the result.

    Signals that ``k_max`` is too small for the integrand at hand.
    """


#: absolute error floor of every adaptive integral
ABS_TOL = 1e-14
#: truncation point of the Gaussian weight: exp(-T_MAX^2) ~ 1.6e-28 < ABS_TOL
T_MAX = 8.0
#: most G7/K15 intervals one integral may split into
MAX_SUBDIVISIONS = 200


@dataclass(frozen=True)
class QuadratureSpec:
    """Relative tolerance and spectral truncation governing every integral.

    ``k_max`` defaults to 800: the spectral integrands of this problem decay
    like ``(a + b ln k)/k^2``, and the fitted tail correction of
    :func:`integrate_spectral` leaves a residual ~``ln(k_max)/k_max^2`` that
    only drops below 1e-5 around this truncation point.  It must lie in
    (2, 16384]: the standard grid needs k_max above its [0, 2] section, and
    the graded moment rule of :mod:`kramers.special_integrals` is measured
    exact to 2e-11 up to k = 2^14 but not beyond.
    """

    rel_tol: float = 1e-10
    k_max: float = 800.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(
                f"rel_tol must be finite and positive, got {self.rel_tol}"
            )
        if not 2.0 < self.k_max <= 16384.0:
            raise ValueError(
                f"k_max must be finite and in (2, 16384], got {self.k_max}"
            )


DEFAULT_SPEC = QuadratureSpec()

# Gauss-Kronrod 7/15 pair on [-1, 1] (QUADPACK dqk15 values).
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

# full symmetric node/weight tables, nodes ascending
_NODES = np.concatenate([-_XK[:7], _XK[::-1]])
_WK_FULL = np.concatenate([_WK[:7], _WK[::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[1:14:2] = np.concatenate([_WG[:3], _WG[::-1]])


def _eval_batch(f: Callable, x: np.ndarray, label: str) -> np.ndarray:
    """Evaluate the vectorised integrand ``f`` on a flat array of nodes."""
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape)
    if not np.all(np.isfinite(vals)):
        bad = x[~np.isfinite(vals)][:1]
        raise NonFiniteIntegrandError(
            label, f"integrand not finite near x={bad[0]:.6g}"
        )
    return vals


def _adaptive_gk(
    f: Callable,
    breakpoints: np.ndarray,
    rel_tol: float,
    label: str,
) -> tuple[float, float]:
    """Adaptive G7/K15 over the union of [breakpoints[i], breakpoints[i+1]].

    Returns (value, error estimate).  Deterministic: refinement splits every
    interval whose error exceeds a quarter of the current worst error.
    """
    lo = np.asarray(breakpoints[:-1], dtype=float)
    hi = np.asarray(breakpoints[1:], dtype=float)

    def rate(lo_a: np.ndarray, hi_a: np.ndarray):
        mid = 0.5 * (lo_a + hi_a)
        half = 0.5 * (hi_a - lo_a)
        pts = mid[:, None] + half[:, None] * _NODES[None, :]
        vals = _eval_batch(f, pts.ravel(), label).reshape(pts.shape)
        resk = (vals * _WK_FULL).sum(axis=1) * half
        resg = (vals * _WG_FULL).sum(axis=1) * half
        # QUADPACK-style sharpened error estimate
        reskh = resk / (hi_a - lo_a)
        resasc = (np.abs(vals - reskh[:, None]) * _WK_FULL).sum(axis=1) * half
        raw = np.abs(resk - resg)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.where(
                resasc > 0.0,
                resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
                raw,
            )
        return resk, scaled

    vals, errs = rate(lo, hi)
    while True:
        total = float(vals.sum())
        err_total = float(errs.sum())
        tol = max(ABS_TOL, rel_tol * abs(total))
        if err_total <= tol:
            return total, err_total
        if len(lo) >= MAX_SUBDIVISIONS:
            raise BudgetExhaustedError(
                label,
                f"subdivision limit {MAX_SUBDIVISIONS} reached (error "
                f"{err_total:.3e} > tolerance {tol:.3e})",
            )
        worst = errs.max()
        split = errs >= 0.25 * worst
        if len(lo) + int(split.sum()) > MAX_SUBDIVISIONS:
            # split only as many of the worst intervals as the budget allows
            order = np.argsort(errs)[::-1]
            allowed = order[: max(1, MAX_SUBDIVISIONS - len(lo))]
            split = np.zeros(len(lo), dtype=bool)
            split[allowed] = True
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[~split], lo[split], mid])
        new_hi = np.concatenate([hi[~split], mid, hi[split]])
        keep_vals, keep_errs = vals[~split], errs[~split]
        ref_vals, ref_errs = rate(
            np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        )
        lo, hi = new_lo, new_hi
        vals = np.concatenate([keep_vals, ref_vals])
        errs = np.concatenate([keep_errs, ref_errs])


def integrate_gaussian_weighted(
    f: Callable,
    spec: QuadratureSpec = DEFAULT_SPEC,
    label: str = "gaussian-weighted integral",
) -> float:
    """Integrate ``exp(-t^2) f(t)`` over t in [0, inf).

    The weight is folded into the integrand and the domain truncated at
    ``T_MAX``, where the truncated mass is below the absolute floor
    ``ABS_TOL``.  ``f`` must accept and return numpy arrays.
    """

    def g(t):
        return np.exp(-np.asarray(t) ** 2) * f(t)

    breaks = np.linspace(0.0, T_MAX, 5)
    value, _ = _adaptive_gk(g, breaks, spec.rel_tol, label)
    return value


def _fit_log_tail(
    f: Callable, k_max: float, p: int, label: str
) -> tuple[float, float]:
    """Fit f(k) ~ (alpha + beta ln k)/k^p from samples at 0.7*k_max and k_max."""
    ka, kb = 0.7 * k_max, k_max
    fa, fb = _eval_batch(f, np.array([ka, kb]), label)
    la, lb = math.log(ka), math.log(kb)
    beta = (fb * kb**p - fa * ka**p) / (lb - la)
    alpha = fb * kb**p - beta * lb
    return alpha, beta


def _tail_correction(alpha: float, beta: float, k_max: float, p: int) -> float:
    """Exact integral of (alpha + beta ln k)/k^p over [k_max, inf)."""
    lb = math.log(k_max)
    return (alpha + beta * (lb + 1.0 / (p - 1))) * k_max ** (1 - p) / (p - 1)


def _integrate_spectral_detail(
    f: Callable,
    spec: QuadratureSpec,
    tail_exponent: int,
    label: str,
) -> tuple[float, float, float]:
    """integrate_spectral returning (value, error estimate, tail part)."""
    if tail_exponent < 2:
        raise ValueError("tail_exponent must be >= 2")
    # geometric initial partition suits decaying integrands
    pts = [0.0, 0.5, 1.0]
    while pts[-1] < spec.k_max:
        pts.append(min(pts[-1] * 4.0, spec.k_max))
    head, err = _adaptive_gk(f, np.array(pts), spec.rel_tol, label)
    alpha, beta = _fit_log_tail(f, spec.k_max, tail_exponent, label)
    tail = _tail_correction(alpha, beta, spec.k_max, tail_exponent)
    if abs(tail) > 0.1 * (abs(head) + ABS_TOL):
        raise TailEstimateDominatesError(
            label,
            f"tail estimate {tail:.3e} exceeds 10% of the truncated part "
            f"{head:.3e}; k_max={spec.k_max} too small",
        )
    return head + tail, err, tail


def integrate_spectral(
    f: Callable,
    spec: QuadratureSpec = DEFAULT_SPEC,
    tail_exponent: int = 2,
    label: str = "spectral integral",
) -> float:
    """Integrate ``f(k)`` over k in [0, inf) for algebraically decaying f.

    The domain is truncated at ``spec.k_max`` and the remainder estimated by
    fitting ``(alpha + beta ln k)/k^tail_exponent`` through the integrand at
    ``0.7 k_max`` and ``k_max`` and integrating that model exactly.  The
    log-augmented model is required here: with a pure power fit, integrands
    of this problem (which all carry ``ln k / k^2`` tails) would be biased at
    the 1e-3 level however large ``k_max`` is chosen.
    """
    value, _, _ = _integrate_spectral_detail(f, spec, tail_exponent, label)
    return value
