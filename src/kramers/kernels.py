"""Iteration kernel S(k, k1) and the integral operator advancing phi_{n-1} -> phi_n.

The kernel combines the density-weighted moments with the subtraction that
removes the k=0 pole order by order:

    S(k, k1) = J^(3)(k, k1) - sqrt(pi) T_3(k) J^(1)(0, k1)
             = (1 - gamma) S_1(k, k1)
    S_1 = J_3 - sqrt(pi) T_3(k) T_1(k1)

The collapse is exact: the moment recurrences give J^(m)(k, k1) =
gamma T_m(k) + (1 - gamma) J_m(k, k1) (see :mod:`kramers.special_integrals`),
and with sqrt(pi) T_1(0) = 1 the gamma T_3(k) parts of the two terms cancel.
It is the README's identity S_2 = -S_1/k1^2 for the density term of
S = S_1 + gamma k1^2 S_2.  The dual-route check of ``verify`` builds S from
the graded J^(m) = J_m + gamma k1^2 J_{m+2}, with the gamma terms kept, and
compares it with :func:`s_kernel`, so it still tests the identity.

Applying the operator means sampling

    psi(k) = (1/pi) int_0^inf S_1(k, k1) phi(k1) / T_2(k1) dk1

on a fixed composite grid and interpolating between nodes.  A fixed K15
rule on every knot interval of phi (one quintic each) integrates the
head to rounding, and the log-tail model of :mod:`kramers.quadrature`,
fitted at its two tail points 0.7 k_max and k_max, closes it.  One table
holds the rule's points followed by the two tail points, with the moments
and the S_1 rows of the grid nodes at all of them, so a head and its tail
read the same arrays.  The table is free of gamma and phi, and its arrays
are read-only, so :mod:`kramers.neumann` iterates on one per k_max for the
whole process.  The rule is fixed, so no tolerance enters: a table's
accuracy is that of the rule on the density's knot intervals, and its
truncation point is the density's last node.  Spectral functions are
defined on [0, k_max] only: past k_max each integral uses its own fitted
tail.  They are the clamped quintic splines of their samples, fitted
through one cached map per grid and evaluated in numpy alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .quadrature import K_MAX, _gk_rule, _log_tail, _tail_points, check_k_max
# perfbench/tracing.py rebinds integrate_spectral here, though nothing here
# calls it any more
from .quadrature import integrate_spectral  # noqa: F401
from .special_integrals import (
    MomentBatch, SQRT_PI, check_gamma, fixed_row, j_n, t_n, t_n_vec,
)

__all__ = [
    "SpectralFunction", "standard_grid", "s_kernel", "apply_kernel",
]

#: y''' h^3, y'''' h^4 at the left end and y''' h^3, y'''' h^4 at the right
#: end of a quintic Hermite piece on an interval of width h, from its rise
#: y1 - y0, then h y' and h^2 y'' at its left end and at its right end
_HERMITE_ENDS = np.array([
    [60.0, -36.0, -9.0, -24.0, 3.0],
    [-360.0, 192.0, 36.0, 168.0, -24.0],
    [60.0, -24.0, -3.0, -36.0, 9.0],
    [360.0, -168.0, -24.0, -192.0, 36.0],
])


@lru_cache(maxsize=4)
def _quintic_map(key: bytes) -> np.ndarray:
    """Read-only [2N, N-1] map from the slopes (y1 - y0)/h of the N - 1
    knot intervals of N nodes, given as the bytes of their float64 array, to
    y' and then y'' at the nodes, for the spline of :class:`SpectralFunction`.

    The 2N conditions are y'(0) = 0, the continuity of y''' and of y'''' at
    the N - 2 inner nodes, where the Hermite pieces meet, y'''(0) = 0 and
    y''' = y'''' = 0 at the last node.  The columns and then the rows are
    scaled to a largest entry of 1 for the dense solve, and one step of
    refinement (a second solve, on the residual) keeps the map accurate on
    a grid whose knot intervals differ in width by 1e5 (the nodes just past
    50 at k_max 50.001).  Slopes, unlike values, keep the map's entries
    small on such a grid, so that applying it does not cancel.
    """
    nodes = np.frombuffer(key)
    n = len(nodes)
    h = np.diff(nodes)[:, None]
    # [end condition, interval, (slope, y' and y'' at its left node, then at its right)]
    ends = (_HERMITE_ENDS[:, None] * np.hstack([h, h, h * h, h, h * h])
            / h ** np.array([3, 4, 3, 4])[:, None, None])
    a, b = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, n - 1))
    a[0, 0] = 1.0  # y'(0) = 0
    inner = np.arange(n - 2)
    for rows, pieces, end, sign in (
        (1 + inner, inner, 2, 1.0), (1 + inner, inner + 1, 0, -1.0),  # y'''
        (n - 1 + inner, inner, 3, 1.0), (n - 1 + inner, inner + 1, 1, -1.0),  # y''''
        ([2 * n - 3], [0], 0, 1.0),  # y'''(0) = 0
        ([2 * n - 2, 2 * n - 1], [n - 2, n - 2], [2, 3], 1.0),  # at k_max
    ):
        pieces = np.asarray(pieces)
        e = sign * ends[end, pieces]
        b[rows, pieces] = -e[:, 0]
        for col, coef in zip((pieces, n + pieces, pieces + 1, n + pieces + 1), e[:, 1:].T):
            a[rows, col] += coef
    col_scale = 1.0 / np.abs(a).max(axis=0)
    a *= col_scale
    row_scale = 1.0 / np.abs(a).max(axis=1, keepdims=True)
    a *= row_scale
    b *= row_scale
    m = np.linalg.solve(a, b)
    b -= a @ m  # the residual, for one step of refinement
    m += np.linalg.solve(a, b)
    m *= col_scale[:, None]
    m.setflags(write=False)
    return m


def _quintic_coefficients(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``c[m, i]`` of :class:`SpectralFunction`: on each knot interval the
    quintic Hermite piece through y, y' and y'' at its two nodes, y' and
    y'' from :func:`_quintic_map`."""
    h, rise = np.diff(nodes), np.diff(values)
    d, s = np.split(_quintic_map(nodes.tobytes()) @ (rise / h), 2)
    d0, s0 = d[:-1], s[:-1]
    # what the quadratic Taylor part from the left node misses at the right
    # node in y, h y' and h^2 y''
    dy = rise - h * (d0 + 0.5 * h * s0)
    dd = h * (d[1:] - d0 - h * s0)
    ds = h * h * (s[1:] - s0)
    return np.stack([
        (6.0 * dy - 3.0 * dd + 0.5 * ds) / h**5,
        (-15.0 * dy + 7.0 * dd - ds) / h**4,
        (10.0 * dy - 4.0 * dd + 0.5 * ds) / h**3,
        0.5 * s0, d0, values[:-1],
    ])


def _piecewise(c: np.ndarray, nodes: np.ndarray, k) -> np.ndarray:
    """sum_m c[m, i] (k - nodes[i])^(5-m) on the knot interval i of each k,
    one result per k followed by the trailing axes of ``c[m, i]``.

    Interval i holds nodes[i] <= k < nodes[i+1], and the last one also the
    last node.  The powers are summed lowest first, as scipy's ``PPoly``
    sums them, so the two agree bit for bit.
    """
    k = np.asarray(k, dtype=float)
    i = np.clip(np.searchsorted(nodes, k, side="right") - 1, 0, len(nodes) - 2)
    s = (k - nodes[i]).reshape(k.shape + (1,) * (c.ndim - 2))
    value, power = 0.0, 1.0
    for m in range(len(c) - 1, -1, -1):
        value = value + c[m, i] * power
        if m:
            power = power * s
    return value


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """A sampled, interpolable even function of k, defined on [0, k_max].

    Evaluation between nodes is by the quintic spline through the samples
    that is C^4 at the inner nodes, with y' = y''' = 0 at k=0 (evenness
    forces a flat start) and y''' = y'''' = 0 at k_max, so at least 8 nodes
    are required: the clamped quintic B-spline interpolant (de Boor, *A
    Practical Guide to Splines*), fitted in Hermite form by
    :func:`_quintic_coefficients`.  On the standard grid at k_max 800 the
    spline of phi_0 is off at the kernel-table points by up to 3.8e-9
    relative on [0, 2], 3.6e-7 on [2, 50] and 1.7e-3 on [50, 800], so the
    K15 head of c_1 = int phi_0/T_2 is 4.4e-7 off (that of d_1, 6.6e-10).
    The fit is made once, on construction, as the read-only coefficients
    ``c[m, i]`` of ``(k - nodes[i])^(5-m)`` on each knot interval, which
    :func:`_piecewise` evaluates.
    The function is defined on [0, k_max], ``k_max`` being the last node,
    and evaluation past it raises ``ValueError``: each integral over it
    closes its own tail with a fitted model (see :mod:`kramers.quadrature`).
    Instances are immutable: the sample and coefficient arrays are
    read-only, and a writable input array is copied, not frozen.  They
    compare and hash by identity, so a cache can key on them.
    """

    nodes: np.ndarray
    values: np.ndarray
    label: str
    c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # copy a writable input, so as not to freeze its owner's array
        nodes, values = (a.copy() if a.flags.writeable else a for a in (
            np.asarray(self.nodes, dtype=float), np.asarray(self.values, dtype=float)))
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be matching 1-d arrays")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must start at 0 and increase strictly")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{self.label}: non-finite sample values")
        if len(nodes) < 8:
            raise ValueError(
                f"{self.label}: a quintic spline needs at least 8 nodes, "
                f"got {len(nodes)}"
            )
        c = _quintic_coefficients(nodes, values)
        for name, arr in (("nodes", nodes), ("values", values), ("c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k_max(self) -> float:
        return float(self.nodes[-1])

    def __call__(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        if not k.min(initial=0.0) >= 0.0:  # also catches NaN
            raise ValueError("spectral functions are defined for k >= 0")
        if not k.max(initial=0.0) <= self.nodes[-1]:
            raise ValueError(
                f"{self.label} is defined for k <= k_max={self.k_max:g}, "
                f"got k={k.max():g}"
            )
        return _piecewise(self.c, self.nodes, k)[()]


def standard_grid(k_max: float = K_MAX) -> np.ndarray:
    """Composite k-grid: dense where the pole physics lives, sparse beyond.

    64 uniform nodes on [0, 2], 64 log-spaced on [2, 50], and (when k_max
    exceeds 50) 32 more log-spaced nodes out to k_max so the interpolants
    cover the full truncation range of the spectral integrals.  k_max must
    pass :func:`kramers.quadrature.check_k_max` and leave the nodes
    increasing strictly, which a k_max just above 2 does not.
    """
    check_k_max(k_max)
    inner_top = min(50.0, k_max)
    sections = [
        np.linspace(0.0, 2.0, 64),
        np.geomspace(2.0, inner_top, 65)[1:],
    ]
    if k_max > 50.0:
        sections.append(np.geomspace(50.0, k_max, 33)[1:])
    grid = np.concatenate(sections)
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError(
            f"k_max={k_max!r} is too close to 2: the grid nodes past it crowd together"
        )
    return grid


def s_kernel(k, k1, gamma) -> float | np.ndarray:
    """Kernel value S(k, k1) = (1 - gamma) S_1(k, k1) (adaptive path).

    ``k``, ``k1`` and ``gamma`` broadcast together: arrays give an array,
    with one cached J_3 value per distinct (k, k1), and scalars a float.
    """
    check_gamma(gamma)
    k, k1, gamma = np.broadcast_arrays(k, k1, gamma)
    pairs, at = np.unique(np.stack([k.ravel(), k1.ravel()]), axis=1, return_inverse=True)
    j3 = j_n(3, pairs[0], pairs[1])
    t3 = np.array([t_n(3, a) for a in pairs[0].tolist()])
    t1 = np.array([t_n(1, b) for b in pairs[1].tolist()])
    s = (1.0 - gamma) * (j3 - SQRT_PI * t3 * t1)[at.reshape(k.shape)]
    return float(s) if s.ndim == 0 else s


_PHI_LABEL = re.compile(r"^phi_(\d+)$")


def _next_label(label: str) -> str:
    m = _PHI_LABEL.match(label)
    if m:
        return f"phi_{int(m.group(1)) + 1}"
    return f"K[{label}]"


#: most k1 points in one MomentBatch of a kernel table
_CHUNK = 256


class _KernelTable:
    """Fixed K15 rule on the knot intervals of a grid, with its moments.

    The points ``k`` are the Kronrod points on every [grid[i], grid[i+1]]
    followed by the two tail points of :func:`_tail_points`, where every
    tail of this module is fitted; the Kronrod weights ``w_k`` are scaled
    to the intervals and 0 at the tail points.  With them come T_1 and
    T_2 at the points and the kernel rows ``s[j, i] = S_1(grid[i], k[j])``,
    built in MomentBatches of at most ``_CHUNK`` points so that ``s`` is
    the one large array.  ``k_max`` is the last node.  The arrays are
    read-only once built, so one table can serve any number of threads.
    """

    def __init__(self, grid: np.ndarray):
        pts, half, w_k, _ = _gk_rule(grid[:-1], grid[1:])
        self.nodes, self.k_max = grid, float(grid[-1])
        self.k = np.concatenate([pts.ravel(), _tail_points(self.k_max)])
        self.w_k = np.concatenate([(half[:, None] * w_k).ravel(), [0.0, 0.0]])
        rows3 = np.stack([fixed_row(3, float(k)) for k in grid], axis=1)
        t3 = SQRT_PI * t_n_vec(3, grid)
        self.t1, self.t2 = np.empty(self.k.size), np.empty(self.k.size)
        self.s = np.empty((self.k.size, len(grid)))
        for start in range(0, self.k.size, _CHUNK):
            part = slice(start, start + _CHUNK)
            batch = MomentBatch(self.k[part])
            self.t1[part], self.t2[part] = batch.t(1), batch.t(2)
            self.s[part] = batch.against(rows3) - np.outer(self.t1[part], t3)
        for arr in (self.nodes, self.k, self.w_k, self.t1, self.t2, self.s):
            arr.setflags(write=False)

    def density(self, phi: SpectralFunction) -> np.ndarray:
        """phi/T_2 at the points, the factor every integral here weights."""
        return phi(self.k) / self.t2


def _apply_table(
    table: _KernelTable, phi: SpectralFunction, v: np.ndarray
) -> SpectralFunction:
    """apply_kernel on the table of the grid of phi; v = table.density(phi)."""
    label = _next_label(phi.label)
    head = (table.w_k * v) @ table.s
    tail = _log_tail(
        v[-2:, None] * table.s[-2:], table.k_max, head,
        lambda j: f"{label} grid node k={table.nodes[j]:.3g}",
    )
    values = (head + tail) / np.pi
    return SpectralFunction(nodes=table.nodes, values=values, label=label)


def apply_kernel(phi: SpectralFunction) -> SpectralFunction:
    """Advance a spectral iterate: psi(k) = (1/pi) int S_1(k,k1) phi(k1)/T_2(k1) dk1.

    Only S_1 is applied: the image under the kernel at gamma, (1 - gamma)
    S_1, is (1 - gamma) psi.  The head up to the density's last node is a
    fixed K15 rule on the knot intervals of ``phi`` (one quintic each),
    converged to rounding: its accuracy is fixed, so no tolerance enters,
    and the truncation point is the density's own k_max.  The tail is the
    fitted log model of :mod:`kramers.quadrature`, with its 10% guard
    (errors name the ``phi_n grid node k=...``).  The positive sign is used
    throughout: it is the convention under which the second-order slip
    coefficient assembled from the iterates matches the independent
    double-integral route (see the oracle module).  Output is sampled on
    the grid of ``phi``.
    """
    table = _KernelTable(phi.nodes)
    return _apply_table(table, phi, table.density(phi))
