"""Adaptive quadrature engine for semi-infinite integrals.

Two integral families cover everything the solver needs:

* Gaussian-weight integrals ``int_0^inf exp(-t^2) f(t) dt``, truncated at
  ``T_MAX`` where the weight is below the absolute floor ``ABS_TOL``.
* Spectral integrals ``int_0^inf f(k) dk`` of algebraically decaying
  integrands, truncated at ``k_max`` with a fitted tail correction.

The engine is an adaptive Gauss-Kronrod (G7/K15) bisection scheme that
evaluates the integrand on whole batches of nodes at once: integrands must
be numpy-vectorised and pay one call per refinement sweep.  It integrates a
family of integrands, one member per set of parameter values, in one loop:
each member keeps its own intervals, sums, stop test and subdivision
budget, so its value is the one its own call gives, bit for bit, and a
single integral is a family of one.  Both integrators take such a family;
a spectral member also keeps its own tail samples and tail guard.  The
pair's K15 rule, fixed on given intervals (:func:`_gk_rule`), is the
kernel table of :mod:`kramers.kernels`.

Every tail past ``k_max`` is the model (alpha + beta ln k)/k^2 through
the integrand's values at the two points of :func:`_tail_points`
(:func:`_log_model`), integrated exactly by :func:`_log_integral`; one
10% guard, :func:`_tail_guard`, checks every tail (:func:`_log_tail` is
the two in one).  The spectral integrals sample those points through
:func:`_eval_batch`; the kernel table carries them among its own points,
and the profile layer samples its density there.  One stop rule holds
every adaptive integral: it ends once its error estimate is at most
``max(ABS_TOL, REL_TOL |value|)``, with ``ABS_TOL`` = 1e-14 and ``REL_TOL``
= 1e-10, so it is relative above the crossover ``ABS_TOL / REL_TOL`` = 1e-4
and absolute below it (``t_n(3, 5000)``, about 2.3e-8, is 1.5e-7 relative
off).  The tolerances, the Gaussian truncation point and the subdivision
budget are module constants; the only accuracy input is ``k_max`` (default
``K_MAX``), passed to the spectral integrals and checked by
:func:`check_k_max`.  All functions are pure; nothing here holds mutable
state beyond one call.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

__all__ = [
    "K_MAX",
    "check_k_max",
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
#: relative tolerance of every adaptive integral, above ABS_TOL / REL_TOL
REL_TOL = 1e-10
#: truncation point of the Gaussian weight: exp(-T_MAX^2) ~ 1.6e-28 < ABS_TOL
T_MAX = 8.0
#: most G7/K15 intervals one integral may split into
MAX_SUBDIVISIONS = 200

#: default spectral truncation wavenumber.  The spectral integrands of this
#: problem decay like (a + b ln k)/k^2, and the fitted tail correction of
#: integrate_spectral leaves a residual ~ln(k_max)/k_max^2 that only drops
#: below 1e-5 around this truncation point.
K_MAX = 800.0
#: largest wavenumber any moment takes, and so the largest k_max: the graded
#: moment rule of :mod:`kramers.special_integrals` is measured exact to 2e-11
#: up to k = 2^14 but not beyond, and past it the adaptive moments lose their
#: knee (T_1(1e8) would come out 65% low)
K_LIMIT = 16384.0


def check_k_max(k_max: float) -> None:
    """Reject a truncation point outside (2, K_LIMIT] or in (50, 50.001].

    The standard grid needs k_max above its [0, 2] section and takes its
    moments at wavenumbers up to k_max; up to 50.001 its 32 outer nodes
    crowd into a sliver (U_1 was 470 times off at 50 + 1e-9).
    """
    if not 2.0 < k_max <= K_LIMIT:  # also false for NaN
        raise ValueError(f"k_max must be finite and in (2, {K_LIMIT:g}], got {k_max}")
    if 50.0 < k_max <= 50.001:
        raise ValueError(
            f"k_max={k_max!r} is too close to 50: the grid nodes past it crowd together"
        )

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
    f: Callable, x: np.ndarray, label: str | Callable[[int], str]
) -> np.ndarray:
    """Evaluate the vectorised integrand ``f`` on a flat array of nodes.

    A callable ``label`` is given the index of the first non-finite value,
    so that a family of integrals names the member that point belongs to.
    """
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape)
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteIntegrandError(
            label if isinstance(label, str) else label(i),
            f"integrand not finite near x={x[i]:.6g}",
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
    f: Callable,
    breakpoints: list,
    label: str | Callable[[int], str],
    params: tuple = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive G7/K15 of a family of integrands, member j over the union of
    [breakpoints[j][i], breakpoints[j][i+1]].

    ``params`` holds equal-length 1-d arrays; member j of the family is
    ``f(x, params[0][j], params[1][j], ...)``, and without parameters the
    family is the one integrand ``f(x)``.  Returns the values and error
    estimates, one entry per member.  Each member runs the scalar algorithm
    on intervals of its own: every sweep splits each interval whose error
    exceeds a quarter of the member's current worst, within the member's
    ``MAX_SUBDIVISIONS`` budget, until its total error is at most
    ``max(ABS_TOL, REL_TOL |value|)``.
    A sweep evaluates ``f`` once, on the split intervals of every member not
    yet converged.  A callable ``label`` names member j ``label(j)``, so
    failures name the failing member.  Deterministic: a member's result is
    the same to the bit in any family, and as a family of one.
    """
    size = len(params[0]) if params else 1
    if any(np.ndim(p) != 1 or len(p) != size for p in params):
        raise ValueError("params must be 1-d arrays of one length")

    name = label if callable(label) else lambda j: label

    def rate(lo_a: np.ndarray, hi_a: np.ndarray, owner_a: np.ndarray):
        pts, half, w_k, w_g = _gk_rule(lo_a, hi_a)
        values = [np.repeat(p[owner_a], pts.shape[1]) for p in params]
        vals = _eval_batch(
            lambda x: f(x, *values), pts.ravel(),
            lambda i: name(owner_a[i // pts.shape[1]]),
        ).reshape(pts.shape)
        # np.add.reduce is sum() without its Python wrapper, which counts
        # in the many small integrals
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

    if size == 0:  # the loop below would wait forever for a member
        return np.empty(0), np.empty(0)
    # the intervals of all members, interval i belonging to member owner[i];
    # each member's intervals come in the order the scalar algorithm keeps
    owner = np.repeat(np.arange(size), [len(b) - 1 for b in breakpoints])
    lo = np.concatenate([b[:-1] for b in breakpoints])
    hi = np.concatenate([b[1:] for b in breakpoints])
    vals, errs = rate(lo, hi, owner)
    value, error = np.empty(size), np.empty(size)
    going = np.ones(size, dtype=bool)  # members not yet converged
    while True:
        # sums in interval order, as the scalar's np.add.accumulate adds:
        # bincount adds in index order, np.add.reduce would add pairwise
        total = np.bincount(owner, vals, size)
        err_total = np.bincount(owner, errs, size)
        tol = np.maximum(ABS_TOL, REL_TOL * np.abs(total))
        done = going & (err_total <= tol)
        if done.any():
            value[done], error[done] = total[done], err_total[done]
            going &= ~done
            if not going.any():
                return value, error
            live = going[owner]
            lo, hi, owner = lo[live], hi[live], owner[live]
            vals, errs = vals[live], errs[live]
        if len(owner) >= MAX_SUBDIVISIONS:
            spent = np.bincount(owner, minlength=size) >= MAX_SUBDIVISIONS
            if spent.any():
                j = spent.argmax()
                raise BudgetExhaustedError(
                    name(j),
                    f"subdivision limit {MAX_SUBDIVISIONS} reached (error "
                    f"{err_total[j]:.3e} > tolerance {tol[j]:.3e})",
                )
        worst = np.zeros(size)
        np.maximum.at(worst, owner, errs)
        split = errs >= 0.25 * worst[owner]
        if len(owner) + np.count_nonzero(split) > MAX_SUBDIVISIONS:
            count = np.bincount(owner, minlength=size)
            grown = count + np.bincount(owner[split], minlength=size)
            for j in np.flatnonzero(grown > MAX_SUBDIVISIONS):
                # split only as many of the member's worst intervals as its
                # budget allows
                mine = np.flatnonzero(owner == j)
                order = np.argsort(errs[mine])[::-1]
                split[mine] = False
                split[mine[order[: MAX_SUBDIVISIONS - count[j]]]] = True
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        halves = np.concatenate([owner[split], owner[split]])
        new_vals, new_errs = rate(
            np.concatenate([lo[split], mid]),
            np.concatenate([mid, hi[split]]),
            halves,
        )
        # kept intervals, then left halves, then right halves: in each
        # member's own subsequence, the scalar algorithm's order
        owner = np.concatenate([owner[keep], halves])
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


def integrate_gaussian_weighted(
    f: Callable,
    label: str | Callable[[int], str] = "gaussian-weighted integral",
    params: tuple = (),
    knees: tuple = (),
) -> float | np.ndarray:
    """Integrate ``exp(-t^2) f(t)`` over t in [0, inf).

    The weight is folded into the integrand and the domain truncated at
    ``T_MAX``, where the truncated mass is below the absolute floor
    ``ABS_TOL``.  ``f`` must accept and return numpy arrays.  Each of the
    ``knees`` inside (0, T_MAX), points where ``f`` bends sharply, is
    added to the four equal initial intervals as a breakpoint.  With
    ``params``, a tuple of equal-length 1-d arrays, the call integrates the
    family ``f(t, params[0][j], ...)`` in one adaptive loop and returns one
    value per member j: ``f`` receives the flat points with each parameter
    repeated per point, a knee is one value or one per member, and a
    callable ``label`` names member j ``label(j)``, each value that of the
    member's own call.
    """

    def g(t, *p):
        return np.exp(-np.asarray(t) ** 2) * f(t, *p)

    size = len(params[0]) if params else 1
    knees = [np.broadcast_to(t, size).tolist() for t in knees]
    base = set(np.linspace(0.0, T_MAX, 5).tolist())
    breaks = [np.array(sorted(base.union(t[j] for t in knees if 0.0 < t[j] < T_MAX)))
              for j in range(size)]
    values, _ = _adaptive_gk(g, breaks, label, params)
    return values if params else float(values[0])


def _tail_points(k_max: float) -> np.ndarray:
    """The two wavenumbers, 0.7 k_max and k_max, that every tail is fitted at."""
    return np.array([0.7 * k_max, k_max])


def _log_model(samples, k_max: float) -> tuple:
    """(alpha, beta) of (alpha + beta ln k)/k^2 through samples at _tail_points.

    ``samples`` holds the values at 0.7 k_max and k_max along its first
    axis; a second axis gives one (alpha, beta) per column.
    """
    (ka, kb), (fa, fb) = _tail_points(k_max), samples
    la, lb = math.log(ka), math.log(kb)
    beta = (fb * kb**2 - fa * ka**2) / (lb - la)
    alpha = fb * kb**2 - beta * lb
    return alpha, beta


def _fit_log_tail(f: Callable, k_max: float, label: str) -> tuple:
    """Fit f(k) ~ (alpha + beta ln k)/k^2 from f at 0.7*k_max and k_max."""
    return _log_model(_eval_batch(f, _tail_points(k_max), label), k_max)


def _log_integral(samples, k_max: float) -> np.ndarray:
    """Exact integral over [k_max, inf) of the :func:`_log_model` of
    ``samples`` (values at :func:`_tail_points`, one column per member),
    one entry per member: linear in the samples."""
    alpha, beta = _log_model(samples, k_max)
    return np.atleast_1d((alpha + beta * (math.log(k_max) + 1.0)) * k_max**-1)


def _tail_guard(tail, head, k_max: float, label: str | Callable[[int], str]) -> None:
    """Raise :class:`TailEstimateDominatesError` when a tail exceeds 10% of
    its truncated part ``head`` (scalars, or one entry per member j, named
    ``label(j)`` when ``label`` is callable so that a family formats only
    the one label it raises under)."""
    dominant = np.abs(tail) > 0.1 * (np.abs(head) + ABS_TOL)
    if dominant.any():
        j = dominant.argmax()
        raise TailEstimateDominatesError(
            label if isinstance(label, str) else label(j),
            f"tail estimate {np.atleast_1d(tail)[j]:.3e} exceeds 10% of the "
            f"truncated part {np.atleast_1d(head)[j]:.3e}; k_max={k_max} too small",
        )


def _log_tail(
    samples, k_max: float, head, label: str | Callable[[int], str]
) -> np.ndarray:
    """:func:`_log_integral` of ``samples`` under :func:`_tail_guard`."""
    tail = _log_integral(samples, k_max)
    _tail_guard(tail, head, k_max, label)
    return tail


def _integrate_spectral_detail(
    f: Callable,
    k_max: float,
    label: str | Callable[[int], str],
    params: tuple = (),
) -> tuple:
    """integrate_spectral without its tail guard, returning (value, error
    estimate, tail part): floats, or one array entry per member of a family.
    A caller that combines members guards the combination instead."""
    check_k_max(k_max)
    # geometric initial partition suits decaying integrands
    pts = [0.0, 0.5, 1.0]
    while pts[-1] < k_max:
        pts.append(min(pts[-1] * 4.0, k_max))
    size = len(params[0]) if params else 1
    head, err = _adaptive_gk(f, [np.array(pts)] * size, label, params)
    # every member at both tail points, member j's pair in row j
    values = [np.repeat(p, 2) for p in params]
    samples = _eval_batch(
        lambda x: f(x, *values), np.tile(_tail_points(k_max), size),
        label if isinstance(label, str) else lambda i: label(i // 2),
    ).reshape(size, 2)
    tail = _log_integral(samples.T, k_max)
    if params:
        return head + tail, err, tail
    return float(head[0] + tail[0]), float(err[0]), float(tail[0])


def integrate_spectral(
    f: Callable,
    k_max: float = K_MAX,
    label: str | Callable[[int], str] = "spectral integral",
    params: tuple = (),
) -> float | np.ndarray:
    """Integrate ``f(k)`` over k in [0, inf) for algebraically decaying f.

    The domain is truncated at ``k_max`` and the remainder estimated by
    fitting ``(alpha + beta ln k)/k^2`` through the integrand at
    ``0.7 k_max`` and ``k_max`` and integrating that model exactly.  The
    log-augmented model is required here: with a pure power fit, integrands
    of this problem (which all carry ``ln k / k^2`` tails) would be biased at
    the 1e-3 level however large ``k_max`` is chosen.  With ``params``, a
    tuple of equal-length 1-d arrays, the call integrates the family
    ``f(k, params[0][j], ...)`` and returns one value per member j, as
    :func:`integrate_gaussian_weighted` does: each member has its own
    adaptive run, tail samples and tail guard, a callable ``label`` names
    member j ``label(j)``, and each value equals that of the member's own
    call.
    """
    value, _, tail = _integrate_spectral_detail(f, k_max, label, params)
    _tail_guard(tail, value - tail, k_max, label)
    return value
