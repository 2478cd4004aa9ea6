"""Layer tracing for the benchmark, installed from outside the package.

Every crossing between modules of ``kramers`` is recorded without editing the
package: the names a module imported from the layer below are rebound, in the
calling module's namespace, to wrappers that open a span, and Python looks the
names up at call time.  Calls that go through a module attribute
(``neumann.build_series`` inside ``verification``) are caught by rebinding the
attribute on the module that owns it.  The few layer objects that are used
through instances (``MomentBatch``, ``SpectralFunction``) have their methods
wrapped on the class.  ``uninstall`` puts every original back.

Spans are kept in memory in flat arrays (name, start, end, parent, op) and
written out once, when the run ends.  A span's self time is its duration minus
the durations of its direct children, so the self times of all spans add up to
the time of the root spans.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from functools import partial
from time import perf_counter

import numpy as np

LAYERS = (
    "quadrature",
    "special_integrals",
    "kernels",
    "neumann",
    "transport",
    "oracle",
    "verification",
    "cli",
)

# Names each module imports from another layer and calls: module -> name -> layer.
# Integrators additionally get their integrand wrapped in a span of the caller,
# so the integrand's own arithmetic counts for the layer that wrote it.
# MomentBatch is traced on its class, so builds inside special_integrals count.
_IMPORTED = {
    "neumann": {
        "apply_kernel": "kernels",
        "standard_grid": "kernels",
        "SpectralFunction": "kernels",
        "integrate_spectral": "quadrature",
        "_integrate_spectral_detail": "quadrature",
        "fixed_row": "special_integrals",
        "phi0_vec": "special_integrals",
        "t_n": "special_integrals",
        "t_n_vec": "special_integrals",
    },
    "kernels": {
        "integrate_spectral": "quadrature",
        "fixed_row": "special_integrals",
        "j_n": "special_integrals",
        "t_n": "special_integrals",
    },
    "special_integrals": {
        "integrate_gaussian_weighted": "quadrature",
    },
    "transport": {
        "SpectralFunction": "kernels",
        "u0": "neumann",
        "integrate_spectral": "quadrature",
        "_fit_log_tail": "quadrature",
    },
    "verification": {
        "s_kernel": "kernels",
        "dispersion_l": "special_integrals",
        "j_m": "special_integrals",
        "j_n": "special_integrals",
        "t_n": "special_integrals",
    },
    "cli": {
        "build_series": "neumann",
        "distribution_function": "transport",
        "slip_coefficient_kv": "transport",
        "slip_velocity": "transport",
        "velocity_profile": "transport",
        "dispersion_l": "special_integrals",
        "t_n": "special_integrals",
    },
}

# Functions reached through a module attribute (``neumann.build_series``) or
# called by the benchmark itself: rebound on the module that defines them.
_OWNED = {
    "neumann": ("build_series", "pole_residual"),
    "transport": (
        "velocity_profile",
        "distribution_function",
        "slip_velocity",
        "slip_coefficient_kv",
    ),
    "oracle": ("u1_direct", "u2_direct", "j_constants"),
    "verification": ("run_checks",),
    "cli": ("main",),
}

_INTEGRATORS = {
    "integrate_spectral",
    "_integrate_spectral_detail",
    "integrate_gaussian_weighted",
    "_fit_log_tail",
}

# counts reported per op for every workload, zero when a layer is idle
COUNTS = (
    "quadrature.calls",
    "quadrature.sweeps",
    "quadrature.points",
    "quadrature.errors",
    "special_integrals.batches",
    "special_integrals.batch_points",
    "special_integrals.scalar_calls",
    "kernels.apply_calls",
    "kernels.grid_nodes",
    "kernels.spline_points",
    "neumann.build_calls",
    "neumann.pole_residual_calls",
    "transport.profile_nodes",
    "transport.h_evals",
    "transport.density_points",
    "oracle.quad_calls",
    "verification.checks",
    "verification.checks_failed",
)

_SCALAR_MOMENTS = {"t_n", "j_n", "j_m", "dispersion_l"}

# G7/K15 sweeps evaluate whole intervals of 15 nodes; the two-point tail fit
# is the only other caller of the batch evaluator.
_SWEEP_NODES = 15


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.op = array("q")
        self.stack: list[int] = [-1]  # -1: no open span
        self.current_op = -1
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _nid(self, layer: str, name: str) -> int:
        key = f"{layer}.{name}"
        nid = self._name_ids.get(key)
        if nid is None:
            nid = len(self.names)
            self._name_ids[key] = nid
            self.names.append(key)
            self.layer_of.append(layer)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.parent.append(self.stack[-1])
        self.name_id.append(nid)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def current_layer(self) -> str | None:
        top = self.stack[-1]
        return self.layer_of[self.name_id[top]] if top >= 0 else None

    def span(self, layer: str, name: str, fn, on_call=None, wrap_arg=None):
        """Wrap ``fn`` in a span.

        ``on_call(args, result)`` counts the work after the span closes, and
        ``wrap_arg`` replaces the first argument (an integrand) before the call.
        """
        nid = self._nid(layer, name)

        def traced(*args, **kwargs):
            if wrap_arg is not None:
                args = (wrap_arg(args[0]),) + args[1:]
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if layer == "quadrature":
                    self.counts["quadrature.errors"] += 1
                raise
            finally:
                self.close(i)
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    @contextmanager
    def root(self, op_index: int):
        """One benchmark op: a root span every layer span of the op nests in."""
        self.current_op = op_index
        i = self.open(self._nid("bench", "op"))
        try:
            yield
        finally:
            self.close(i)
            self.current_op = -1

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import kramers.oracle
        import kramers.quadrature
        import kramers.special_integrals as si
        import kramers.kernels
        import kramers.neumann
        import kramers.transport
        import kramers.verification
        import kramers.cli

        modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
            kramers.oracle, kramers.quadrature, si, kramers.kernels,
            kramers.neumann, kramers.transport, kramers.verification,
            kramers.cli,
        )}
        c = self.counts
        counters = {
            "apply_kernel": self._count_apply,
            "build_series": _count("neumann.build_calls", c),
            "pole_residual": _count("neumann.pole_residual_calls", c),
            "velocity_profile": self._count_profile,
            "distribution_function": _count("transport.h_evals", c),
            "run_checks": self._count_checks,
        }
        counters.update(dict.fromkeys(_INTEGRATORS, _count("quadrature.calls", c)))
        counters.update(dict.fromkeys(
            _SCALAR_MOMENTS, _count("special_integrals.scalar_calls", c)))

        for caller, names in _IMPORTED.items():
            module = modules[caller]
            for name, layer in names.items():
                wrap_arg = (partial(self.span, caller, "integrand")
                            if name in _INTEGRATORS else None)
                self._rebind(module, name, self.span(
                    layer, name, getattr(module, name),
                    on_call=counters.get(name), wrap_arg=wrap_arg))
        for owner, names in _OWNED.items():
            module = modules[owner]
            for name in names:
                self._rebind(module, name, self.span(
                    owner, name, getattr(module, name),
                    on_call=counters.get(name)))

        self._rebind(modules["oracle"], "quad",
                     _counter(modules["oracle"].quad, "oracle.quad_calls", c))
        self._rebind(modules["quadrature"], "_eval_batch",
                     self._eval_batch_counter(modules["quadrature"]._eval_batch))

        batch = si.MomentBatch
        self._rebind(batch, "__init__", self.span(
            "special_integrals", "MomentBatch", batch.__init__,
            on_call=self._count_batch))
        self._rebind(batch, "t", self.span("special_integrals", "MomentBatch.t", batch.t))
        self._rebind(batch, "against", self.span(
            "special_integrals", "MomentBatch.against", batch.against))
        spectral = modules["kernels"].SpectralFunction
        self._rebind(spectral, "__call__", self.span(
            "kernels", "SpectralFunction.__call__", spectral.__call__,
            on_call=self._count_spline))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- counters ----------------------------------------------------------

    def _eval_batch_counter(self, fn):
        c = self.counts

        def counted(f, x, label):
            c["quadrature.points"] += x.size
            c["quadrature.sweeps"] += x.size % _SWEEP_NODES == 0
            return fn(f, x, label)

        return counted

    def _count_spline(self, args, result) -> None:
        points = np.size(args[1])
        self.counts["kernels.spline_points"] += points
        if self.current_layer() == "transport":
            self.counts["transport.density_points"] += points

    def _count_apply(self, args, result) -> None:
        self.counts["kernels.apply_calls"] += 1
        self.counts["kernels.grid_nodes"] += len(result.nodes)

    def _count_batch(self, args, result) -> None:
        batch = args[0]
        self.counts["special_integrals.batches"] += 1
        self.counts["special_integrals.batch_points"] += batch._weights.size

    def _count_profile(self, args, result) -> None:
        self.counts["transport.profile_nodes"] += len(result.x_nodes)

    def _count_checks(self, args, result) -> None:
        self.counts["verification.checks"] += len(result)
        self.counts["verification.checks_failed"] += sum(not r.passed for r in result)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Self time per layer and inclusive time per span name, over the ops.

        Spans opened outside an op (op index below 0) are left out.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        keep = a["op"] >= 0
        own, dur, nids = (dur - child)[keep], dur[keep], a["name_id"][keep]
        by_name_self = np.bincount(nids, weights=own, minlength=len(self.names))
        by_name_incl = np.bincount(nids, weights=dur, minlength=len(self.names))
        self_s: dict[str, float] = {}
        for nid, value in enumerate(by_name_self):
            layer = self.layer_of[nid]
            self_s[layer] = self_s.get(layer, 0.0) + float(value)
        inclusive = {self.names[i]: float(v) for i, v in enumerate(by_name_incl)}
        return {"self_s": self_s, "inclusive_s": inclusive}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _count(key: str, counts: Counter):
    def on_call(args, result) -> None:
        counts[key] += 1
    return on_call


def _counter(fn, key: str, counts: Counter):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted
