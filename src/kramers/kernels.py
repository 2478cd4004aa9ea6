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
S = S_1 + gamma k1^2 S_2.  The scalar reference
:func:`kramers.special_integrals.j_m` keeps the (1 + gamma k1^2 t^2) weight,
so the dual-route check still tests the identity.

Applying the operator means sampling

    psi(k) = ((1 - gamma)/pi) int_0^inf S_1(k, k1) phi(k1) / T_2(k1) dk1

on a fixed composite grid and interpolating between nodes.  The node
integrals form one family in the lockstep quadrature of
:mod:`kramers.quadrature`, so the k1 points they share are evaluated once.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PPoly, make_interp_spline

from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_spectral
from .special_integrals import MomentBatch, SQRT_PI, fixed_row, j_n, t_n, t_n_vec

__all__ = [
    "SpectralFunction", "weighted_sum", "standard_grid", "s_kernel", "apply_kernel",
]


@dataclass(frozen=True)
class SpectralFunction:
    """A sampled, interpolable even function of k >= 0 with an algebraic tail.

    Evaluation between nodes is by a quintic spline whose odd derivatives
    are clamped to zero at k=0 (evenness forces a flat start), so at least
    8 nodes are required.  The quintic keeps the interpolation error of the
    standard grid near 1e-10 relative, which the refinement-stability
    contract of :func:`apply_kernel` needs.  The spline is converted once,
    on construction, to its piecewise-polynomial form (one set of monomial
    coefficients per knot interval), which evaluates several times faster
    than the B-spline recurrence and agrees with it to rounding.  That form
    is the read-only attribute ``poly``: breakpoints ``poly.x`` (the nodes,
    with the end knots repeated as empty intervals) and coefficients
    ``poly.c[m, i]`` of ``(k - poly.x[i])^(5-m)``.
    Beyond the last node the function follows C / k^tail_exponent anchored
    at the last sample.  Instances are immutable; the sample and coefficient
    arrays are frozen on construction.
    """

    nodes: np.ndarray
    values: np.ndarray
    tail_exponent: int
    label: str
    poly: PPoly = field(init=False, repr=False, compare=False)
    _tail_coeff: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be matching 1-d arrays")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must start at 0 and increase strictly")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{self.label}: non-finite sample values")
        if self.tail_exponent < 2:
            raise ValueError("tail_exponent must be >= 2")
        if len(nodes) < 8:
            raise ValueError(
                f"{self.label}: a quintic spline needs at least 8 nodes, "
                f"got {len(nodes)}"
            )
        spline = make_interp_spline(
            nodes, values, k=5,
            bc_type=([(1, 0.0), (3, 0.0)], [(3, 0.0), (4, 0.0)]),
        )
        self._freeze(nodes, values, PPoly.from_spline(spline))

    def _freeze(self, nodes: np.ndarray, values: np.ndarray, poly: PPoly) -> None:
        for arr in (nodes, values, poly.x, poly.c):
            arr.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(
            self, "_tail_coeff", values[-1] * nodes[-1] ** self.tail_exponent
        )

    @property
    def k_max(self) -> float:
        return float(self.nodes[-1])

    def __call__(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        if not np.all(k >= 0.0):  # also catches NaN
            raise ValueError("spectral functions are defined for k >= 0")
        scalar = k.ndim == 0
        k = np.atleast_1d(k)
        k_max = self.nodes[-1]
        out = self.poly(np.minimum(k, k_max))
        tail = k > k_max
        if tail.any():
            out[tail] = self._tail_coeff / k[tail] ** self.tail_exponent
        return out[0] if scalar else out


def weighted_sum(
    weights: Sequence[float], funcs: Sequence[SpectralFunction], label: str
) -> SpectralFunction:
    """sum_i weights[i] funcs[i] on the shared grid, without a refit.

    The clamped quintic interpolant is linear in the node values, so the
    sum's node values, polynomial coefficients and tail coefficient are the
    weighted sums of the terms'.  The terms must share their nodes and tail
    exponent.
    """
    first = funcs[0]
    for f in funcs[1:]:
        if (f.tail_exponent != first.tail_exponent
                or not np.array_equal(f.nodes, first.nodes)):
            raise ValueError(
                f"{label}: {f.label} and {first.label} differ in grid or tail"
            )
    values = sum(w * f.values for w, f in zip(weights, funcs))
    coeffs = sum(w * f.poly.c for w, f in zip(weights, funcs))
    total = object.__new__(SpectralFunction)
    object.__setattr__(total, "tail_exponent", first.tail_exponent)
    object.__setattr__(total, "label", label)
    total._freeze(first.nodes, values, PPoly.construct_fast(coeffs, first.poly.x))
    return total


def standard_grid(spec: QuadratureSpec = DEFAULT_SPEC) -> np.ndarray:
    """Composite k-grid: dense where the pole physics lives, sparse beyond.

    64 uniform nodes on [0, 2], 64 log-spaced on [2, 50], and (when k_max
    exceeds 50) 32 more log-spaced nodes out to k_max so the interpolants
    cover the full truncation range of the spectral integrals.
    """
    inner_top = min(50.0, spec.k_max)
    sections = [
        np.linspace(0.0, 2.0, 64),
        np.geomspace(2.0, inner_top, 65)[1:],
    ]
    if spec.k_max > 50.0:
        sections.append(np.geomspace(50.0, spec.k_max, 33)[1:])
    grid = np.concatenate(sections)
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError(
            f"k_max={spec.k_max!r} is too close to 2: the 64 grid nodes on "
            "(2, k_max] do not increase strictly"
        )
    return grid


def s_kernel(
    k: float, k1: float, gamma: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Kernel value S(k, k1) = (1 - gamma) S_1(k, k1) (adaptive scalar path)."""
    s1 = j_n(3, k, k1, spec) - SQRT_PI * t_n(3, k, spec) * t_n(1, k1, spec)
    return (1.0 - gamma) * s1


_PHI_LABEL = re.compile(r"^phi_(\d+)$")


def _next_label(label: str) -> str:
    m = _PHI_LABEL.match(label)
    if m:
        return f"phi_{int(m.group(1)) + 1}"
    return f"K[{label}]"


def apply_kernel(
    phi: SpectralFunction,
    gamma: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> SpectralFunction:
    """Advance a spectral iterate: psi(k) = (1/pi) int S(k,k1) phi(k1)/T_2(k1) dk1.

    Each node integrates S_1 and scales by the exact factor (1 - gamma).
    All nodes are integrated together, as one family with a member per
    node (labelled ``phi_n grid node k=...`` in errors): a sweep builds one
    :class:`MomentBatch` on the distinct k1 points its unconverged nodes
    need and contracts it once against the ``(rule size, nodes)`` stack of
    ``fixed_row(3, k)``.  The positive sign is used throughout: it is the
    convention under which the second-order slip coefficient assembled
    from the iterates matches the independent double-integral route (see
    the oracle module).  Output is sampled on the grid of ``phi`` with
    tail exponent 2.
    """
    if not (0.0 <= gamma < 1.0):
        raise ValueError("gamma must be in [0, 1)")
    label = _next_label(phi.label)
    nodes = phi.nodes
    t3 = t_n_vec(3, nodes)
    rows3 = np.stack([fixed_row(3, float(k)) for k in nodes], axis=1)

    def integrand(k1):
        batch = MomentBatch(k1)
        s_rows = batch.against(rows3) - np.outer(batch.t(1), SQRT_PI * t3)
        return s_rows * phi(batch.k)[:, None] / batch.t(2)[:, None]

    values = (1.0 - gamma) * integrate_spectral(
        integrand,
        spec,
        tail_exponent=2,
        label=[f"{label} grid node k={k:.3g}" for k in nodes],
    ) / np.pi
    return SpectralFunction(
        nodes=nodes.copy(), values=values, tail_exponent=2, label=label
    )
