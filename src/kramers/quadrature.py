"""Adaptive quadrature engine for semi-infinite integrals.

Two integral families cover everything the solver needs:

* Gaussian-weight integrals ``int_0^inf exp(-t^2) f(t) dt``, truncated at
  ``T_MAX`` where the weight is below the absolute floor ``ABS_TOL``.
* Spectral integrals ``int_0^inf f(k) dk`` of algebraically decaying
  integrands, truncated at ``k_max`` with a fitted tail correction.

The engine is an adaptive Gauss-Kronrod (G7/K15) bisection scheme that
evaluates the integrand on whole batches of nodes at once: integrands must
be numpy-vectorised and pay one call per refinement sweep.  The same G7/K15
pair, as a fixed rule on given intervals (:func:`_gk_rule`), is the
kernel table of :mod:`kramers.kernels`.

Every tail past ``k_max`` is the model (alpha + beta ln k)/k^p through
the integrand's values at the two points of :func:`_tail_points`
(:func:`_log_model`), integrated exactly by :func:`_log_tail` under a 10%
guard.  The spectral integrals sample those points through
:func:`_eval_batch`; the kernel table carries them among its own points,
and the profile layer samples its density there.  Accuracy is set by the
two fields of :class:`QuadratureSpec`; the absolute floor, the Gaussian
truncation point and the subdivision budget are module constants.  All
functions are pure; nothing here holds mutable state beyond one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence

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
    """Relative tolerance and spectral truncation of the adaptive integrals.

    ``rel_tol`` governs every adaptive integral.  The kernel table of
    :mod:`kramers.kernels` (``apply_kernel`` and the ``U_n`` pole
    integrals) is a fixed rule on the density's knot intervals: its
    accuracy does not depend on ``rel_tol``, and its truncation point is
    the density's last node.

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
    finite = np.isfinite(vals)
    if not finite.all():
        raise NonFiniteIntegrandError(
            label, f"integrand not finite near x={x[np.argmin(finite)]:.6g}"
        )
    return vals


def _gk_rule(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The G7/K15 pair on each interval [lo[i], hi[i]].

    Returns the ``(len(lo), 15)`` points, the half-widths and the Kronrod
    and Gauss weights on [-1, 1] (the Gauss weight is 0 at the 8
    Kronrod-only points): the K15 and G7 sums of interval i are
    ``half[i]`` times the weighted sums of its 15 values.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _NODES, half, _WK_FULL, _WG_FULL


def _adaptive_gk(
    f: Callable, breakpoints: np.ndarray, rel_tol: float, label: str
) -> tuple[float, float]:
    """Adaptive G7/K15 over the union of [breakpoints[i], breakpoints[i+1]].

    Returns (value, error estimate).  Every sweep splits each interval
    whose error exceeds a quarter of the current worst, within the
    ``MAX_SUBDIVISIONS`` budget, until the total error meets the tolerance.
    Deterministic.
    """

    def rate(lo_a: np.ndarray, hi_a: np.ndarray):
        pts, half, w_k, w_g = _gk_rule(lo_a, hi_a)
        vals = _eval_batch(f, pts.ravel(), label).reshape(pts.shape)
        # np.add.reduce is sum() without its Python wrapper, which counts
        # in the many small scalar integrals
        resk = np.add.reduce(vals * w_k, axis=1) * half
        resg = np.add.reduce(vals * w_g, axis=1) * half
        # QUADPACK-style sharpened error estimate
        reskh = resk / (hi_a - lo_a)
        resasc = np.add.reduce(
            np.abs(vals - reskh[:, None]) * w_k, axis=1
        ) * half
        raw = np.abs(resk - resg)
        positive = resasc > 0.0
        scaled = np.where(
            positive,
            resasc * np.minimum(1.0, (200.0 * raw / np.where(positive, resasc, 1.0)) ** 1.5),
            raw,
        )
        return resk, scaled

    breakpoints = np.asarray(breakpoints, dtype=float)
    lo, hi = breakpoints[:-1], breakpoints[1:]
    vals, errs = rate(lo, hi)
    while True:
        # sums in interval order: np.add.reduce would add pairwise
        total = np.add.accumulate(vals)[-1]
        err_total = np.add.accumulate(errs)[-1]
        tol = max(ABS_TOL, rel_tol * abs(total))
        if err_total <= tol:
            return float(total), float(err_total)
        if len(lo) >= MAX_SUBDIVISIONS:
            raise BudgetExhaustedError(
                label,
                f"subdivision limit {MAX_SUBDIVISIONS} reached (error "
                f"{err_total:.3e} > tolerance {tol:.3e})",
            )
        split = errs >= 0.25 * errs.max()
        if len(lo) + np.count_nonzero(split) > MAX_SUBDIVISIONS:
            # split only as many of the worst intervals as the budget allows
            order = np.argsort(errs)[::-1]
            split[:] = False
            split[order[: MAX_SUBDIVISIONS - len(lo)]] = True
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_vals, new_errs = rate(
            np.concatenate([lo[split], mid]),
            np.concatenate([mid, hi[split]]),
        )
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


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


def _tail_points(k_max: float) -> np.ndarray:
    """The two wavenumbers, 0.7 k_max and k_max, that every tail is fitted at."""
    return np.array([0.7 * k_max, k_max])


def _log_model(samples, k_max: float, p: int) -> tuple:
    """(alpha, beta) of (alpha + beta ln k)/k^p through samples at _tail_points.

    ``samples`` holds the values at 0.7 k_max and k_max along its first
    axis; a second axis gives one (alpha, beta) per column.
    """
    (ka, kb), (fa, fb) = _tail_points(k_max), samples
    la, lb = math.log(ka), math.log(kb)
    beta = (fb * kb**p - fa * ka**p) / (lb - la)
    alpha = fb * kb**p - beta * lb
    return alpha, beta


def _fit_log_tail(f: Callable, k_max: float, p: int, label: str) -> tuple:
    """Fit f(k) ~ (alpha + beta ln k)/k^p from f at 0.7*k_max and k_max."""
    return _log_model(_eval_batch(f, _tail_points(k_max), label), k_max, p)


def _log_tail(
    samples, k_max: float, p: int, head, label: str | Sequence[str]
) -> np.ndarray:
    """Exact integral over [k_max, inf) of the log-tail model of ``samples``.

    ``samples`` are the integrand's values at :func:`_tail_points`, one
    column per member when ``head`` has one entry per member; the model is
    that of :func:`_log_model`.  Raises :class:`TailEstimateDominatesError`
    when a tail exceeds 10% of its truncated part ``head``, under the
    member's entry of ``label`` when that is a sequence.  Returns one
    entry per member.
    """
    alpha, beta = _log_model(samples, k_max, p)
    lb = math.log(k_max)
    tail = np.atleast_1d(
        (alpha + beta * (lb + 1.0 / (p - 1))) * k_max ** (1 - p) / (p - 1)
    )
    dominant = np.abs(tail) > 0.1 * (np.abs(head) + ABS_TOL)
    if dominant.any():
        j = dominant.argmax()
        raise TailEstimateDominatesError(
            label if isinstance(label, str) else label[j],
            f"tail estimate {tail[j]:.3e} exceeds 10% of the truncated part "
            f"{np.atleast_1d(head)[j]:.3e}; k_max={k_max} too small",
        )
    return tail


def _integrate_spectral_detail(
    f: Callable, spec: QuadratureSpec, tail_exponent: int, label: str
) -> tuple[float, float, float]:
    """integrate_spectral returning (value, error estimate, tail part)."""
    if tail_exponent < 2:
        raise ValueError("tail_exponent must be >= 2")
    # geometric initial partition suits decaying integrands
    pts = [0.0, 0.5, 1.0]
    while pts[-1] < spec.k_max:
        pts.append(min(pts[-1] * 4.0, spec.k_max))
    head, err = _adaptive_gk(f, np.array(pts), spec.rel_tol, label)
    samples = _eval_batch(f, _tail_points(spec.k_max), label)
    tail = _log_tail(samples, spec.k_max, tail_exponent, head, label)[0]
    return float(head + tail), err, float(tail)


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
