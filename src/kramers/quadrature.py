"""Adaptive quadrature engine for semi-infinite integrals.

Two integral families cover everything the solver needs:

* Gaussian-weight integrals ``int_0^inf exp(-t^2) f(t) dt``, truncated at
  ``T_MAX`` where the weight is below the absolute floor ``ABS_TOL``.
* Spectral integrals ``int_0^inf f(k) dk`` of algebraically decaying
  integrands, truncated at ``k_max`` with a fitted tail correction.

The engine is an adaptive Gauss-Kronrod (G7/K15) bisection scheme that
evaluates the integrand on whole batches of nodes at once: integrands must
be numpy-vectorised and pay one call per refinement sweep.  It integrates
a family of m integrands in lockstep as readily as one (a spectral
integrand returning one column per member, see :func:`integrate_spectral`):
every member keeps its own intervals, convergence test, subdivision budget
and tail fit, so its value is the one it would get alone, while a sweep
evaluates the family once on the distinct nodes that its unconverged
members need.  The members start from one partition and bisect it, so
they share most nodes.  Accuracy is set by the two fields of
:class:`QuadratureSpec`; the absolute floor, the Gaussian truncation point
and the subdivision budget are module constants.  All functions are pure;
nothing here holds mutable state beyond one call.
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


def _eval_batch(
    f: Callable, x: np.ndarray, label: str | Sequence[str]
) -> np.ndarray:
    """Evaluate the vectorised integrand ``f`` on a flat array of nodes.

    ``label`` is one label, for an integrand with one value per node, or a
    sequence of m labels, for a family whose values form a
    ``(len(x), m)`` array; a non-finite value is reported under the label
    of its member.
    """
    family = not isinstance(label, str)
    shape = (x.size, len(label)) if family else x.shape
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != shape:
        vals = np.broadcast_to(vals, shape)
    finite = np.isfinite(vals)
    if not finite.all():
        i, *member = np.unravel_index(np.argmin(finite), shape)
        raise NonFiniteIntegrandError(
            label[member[0]] if family else label,
            f"integrand not finite near x={x[i]:.6g}",
        )
    return vals


def _labels(label: str | Sequence[str]) -> tuple[str, ...]:
    return (label,) if isinstance(label, str) else tuple(label)


def _shared_nodes(f: Callable, labels: tuple[str, ...]) -> Callable:
    """Node evaluator of a family that evaluates each distinct node once.

    The returned ``values(pts, owner)`` maps rows of G7/K15 nodes ``pts``,
    row i belonging to member ``owner[i]``, to that member's integrand
    values.  Members that start from one partition and bisect it share
    most of their nodes, within a sweep and across sweeps, so nodes are
    deduplicated and every evaluated row of member values is kept for the
    rest of the call.
    """
    known_x = np.empty(0)
    known_vals = np.empty((0, len(labels)))

    def values(pts: np.ndarray, owner: np.ndarray) -> np.ndarray:
        nonlocal known_x, known_vals
        x, inverse = np.unique(pts.ravel(), return_inverse=True)
        at = np.searchsorted(known_x, x)
        seen = at < known_x.size
        seen[seen] = known_x[at[seen]] == x[seen]
        if not seen.all():
            fresh = x[~seen]
            known_x = np.concatenate([known_x, fresh])
            known_vals = np.concatenate(
                [known_vals, _eval_batch(f, fresh, labels)]
            )
            order = np.argsort(known_x)
            known_x, known_vals = known_x[order], known_vals[order]
            at = np.searchsorted(known_x, x)
        return known_vals[at[inverse].reshape(pts.shape), owner[:, None]]

    return values


def _adaptive_gk(
    f: Callable,
    breakpoints: np.ndarray,
    rel_tol: float,
    label: str | Sequence[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive G7/K15 over the union of [breakpoints[i], breakpoints[i+1]].

    Integrates one integrand or, when ``label`` is a sequence of m labels,
    a family of m (see :func:`_eval_batch`), and returns (values, error
    estimates), one entry per member.  Each member refines on its own
    intervals: it splits every interval whose error exceeds a quarter of
    its current worst, within its own ``MAX_SUBDIVISIONS`` budget, and
    stops once its total error meets its tolerance.  A sweep evaluates the
    new intervals of all unconverged members together, each distinct node
    once, so a member's value does not depend on the others.
    Deterministic.
    """
    labels = _labels(label)
    m = len(labels)
    if m == 1:
        # one member never revisits a node: nothing to share
        def node_values(pts, owner):
            return _eval_batch(f, pts.ravel(), label).reshape(pts.shape)
    else:
        node_values = _shared_nodes(f, labels)

    def rate(lo_a: np.ndarray, hi_a: np.ndarray, owner: np.ndarray):
        mid = 0.5 * (lo_a + hi_a)
        half = 0.5 * (hi_a - lo_a)
        pts = mid[:, None] + half[:, None] * _NODES[None, :]
        vals = node_values(pts, owner)
        # np.add.reduce is sum() without its Python wrapper, which counts
        # in the many small scalar integrals
        resk = np.add.reduce(vals * _WK_FULL, axis=1) * half
        resg = np.add.reduce(vals * _WG_FULL, axis=1) * half
        # QUADPACK-style sharpened error estimate
        reskh = resk / (hi_a - lo_a)
        resasc = np.add.reduce(
            np.abs(vals - reskh[:, None]) * _WK_FULL, axis=1
        ) * half
        raw = np.abs(resk - resg)
        positive = resasc > 0.0
        scaled = np.where(
            positive,
            resasc * np.minimum(1.0, (200.0 * raw / np.where(positive, resasc, 1.0)) ** 1.5),
            raw,
        )
        return resk, scaled

    # The intervals of all members, each tagged with its member (owner).  A
    # member's intervals keep the order a one-member run gives them, and a
    # converged member's intervals stay as they are, so its sums do too.
    breakpoints = np.asarray(breakpoints, dtype=float)
    lo = np.concatenate([breakpoints[:-1]] * m)
    hi = np.concatenate([breakpoints[1:]] * m)
    owner = np.arange(m).repeat(len(breakpoints) - 1)
    vals, errs = rate(lo, hi, owner)
    while True:
        total = np.bincount(owner, vals, m)
        err_total = np.bincount(owner, errs, m)
        tol = np.maximum(ABS_TOL, rel_tol * np.abs(total))
        busy = ~(err_total <= tol)
        if not busy.any():
            return total, err_total
        # no member holds MAX_SUBDIVISIONS intervals unless all do together
        if len(lo) >= MAX_SUBDIVISIONS:
            count = np.bincount(owner, minlength=m)
            exhausted = busy & (count >= MAX_SUBDIVISIONS)
            if exhausted.any():
                j = exhausted.argmax()
                raise BudgetExhaustedError(
                    labels[j],
                    f"subdivision limit {MAX_SUBDIVISIONS} reached (error "
                    f"{err_total[j]:.3e} > tolerance {tol[j]:.3e})",
                )
        worst = np.zeros(m)
        np.maximum.at(worst, owner, errs)
        split = busy[owner] & (errs >= 0.25 * worst[owner])
        if len(lo) + np.count_nonzero(split) > MAX_SUBDIVISIONS:
            count = np.bincount(owner, minlength=m)
            over = count + np.bincount(owner, split, m) > MAX_SUBDIVISIONS
            for j in over.nonzero()[0]:
                # split only as many of the member's worst intervals as its
                # budget allows
                mine = (owner == j).nonzero()[0]
                order = np.argsort(errs[mine])[::-1]
                split[mine] = False
                split[mine[order[: MAX_SUBDIVISIONS - count[j]]]] = True
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        parents = owner[split]
        halves = np.concatenate([parents, parents])
        new_vals, new_errs = rate(
            np.concatenate([lo[split], mid]),
            np.concatenate([mid, hi[split]]),
            halves,
        )
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        owner = np.concatenate([owner[keep], halves])
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
    return float(value[0])


def _fit_log_tail(
    f: Callable, k_max: float, p: int, label: str | Sequence[str]
) -> tuple:
    """Fit f(k) ~ (alpha + beta ln k)/k^p from samples at 0.7*k_max and k_max.

    For a family (``label`` a sequence) alpha and beta are arrays, one
    entry per member.
    """
    ka, kb = 0.7 * k_max, k_max
    fa, fb = _eval_batch(f, np.array([ka, kb]), label)
    la, lb = math.log(ka), math.log(kb)
    beta = (fb * kb**p - fa * ka**p) / (lb - la)
    alpha = fb * kb**p - beta * lb
    return alpha, beta


def _tail_correction(alpha, beta, k_max: float, p: int):
    """Exact integral of (alpha + beta ln k)/k^p over [k_max, inf)."""
    lb = math.log(k_max)
    return (alpha + beta * (lb + 1.0 / (p - 1))) * k_max ** (1 - p) / (p - 1)


def _integrate_spectral_detail(
    f: Callable,
    spec: QuadratureSpec,
    tail_exponent: int,
    label: str | Sequence[str],
) -> tuple:
    """integrate_spectral returning (value, error estimate, tail part).

    For a family each of the three is an array, one entry per member.
    """
    if tail_exponent < 2:
        raise ValueError("tail_exponent must be >= 2")
    # geometric initial partition suits decaying integrands
    pts = [0.0, 0.5, 1.0]
    while pts[-1] < spec.k_max:
        pts.append(min(pts[-1] * 4.0, spec.k_max))
    head, err = _adaptive_gk(f, np.array(pts), spec.rel_tol, label)
    alpha, beta = _fit_log_tail(f, spec.k_max, tail_exponent, label)
    tail = np.atleast_1d(
        _tail_correction(alpha, beta, spec.k_max, tail_exponent)
    )
    dominant = np.abs(tail) > 0.1 * (np.abs(head) + ABS_TOL)
    if dominant.any():
        j = dominant.argmax()
        raise TailEstimateDominatesError(
            _labels(label)[j],
            f"tail estimate {tail[j]:.3e} exceeds 10% of the truncated part "
            f"{head[j]:.3e}; k_max={spec.k_max} too small",
        )
    if isinstance(label, str):
        return float(head[0] + tail[0]), float(err[0]), float(tail[0])
    return head + tail, err, tail


def integrate_spectral(
    f: Callable,
    spec: QuadratureSpec = DEFAULT_SPEC,
    tail_exponent: int = 2,
    label: str | Sequence[str] = "spectral integral",
) -> float | np.ndarray:
    """Integrate ``f(k)`` over k in [0, inf) for algebraically decaying f.

    The domain is truncated at ``spec.k_max`` and the remainder estimated by
    fitting ``(alpha + beta ln k)/k^tail_exponent`` through the integrand at
    ``0.7 k_max`` and ``k_max`` and integrating that model exactly.  The
    log-augmented model is required here: with a pure power fit, integrands
    of this problem (which all carry ``ln k / k^2`` tails) would be biased at
    the 1e-3 level however large ``k_max`` is chosen.

    With a sequence of m labels instead of one, ``f`` is a family: it maps
    the k points to a ``(len(k), m)`` array, column j being member j, and
    the result is an array of the m integrals.  Each member refines, fits
    its tail and meets its budget and tail guard as it would alone, and an
    error names the member that raised it; one call of ``f`` per sweep
    serves all members, on the distinct points they need.
    """
    value, _, _ = _integrate_spectral_detail(f, spec, tail_exponent, label)
    return value
