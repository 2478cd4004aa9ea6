"""Package names the benchmark harness in ``perfbench/`` binds.

The tracer rebinds imported and owned names by ``getattr``, and the worker
reads the moment cache's statistics on every run, so deleting one of those
names breaks the benchmark.  These tests fail first.  They import from
``perfbench/`` and change nothing there.
"""

from pathlib import Path

import kramers.neumann
import kramers.oracle
import kramers.special_integrals
import kramers.transport
from kramers.special_integrals import GasParameters

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = kramers.transport.velocity_profile
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert kramers.transport.velocity_profile is not original
    finally:
        tracer.uninstall()
    assert kramers.transport.velocity_profile is original


def test_worker_cache_statistics_exist():
    assert callable(kramers.special_integrals._t_n_cached.cache_info)


def test_tracer_counts_real_calls(monkeypatch):
    """The wrapped names keep their call shapes: a series build, a profile,
    h at mu > 0 and a cold pole residual run traced and leave non-zero
    counts.
    ``transport.density_points`` stays 0: the transforms sum the densities'
    pieces and evaluate no SpectralFunction."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    kramers.neumann._pole_parts.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root(0):
            series = kramers.neumann.build_series(0.25, 2)
            params = GasParameters(gamma=0.25, q=0.9)
            kramers.transport.velocity_profile(params, series, [0.0, 1.0])
            kramers.transport.distribution_function(params, series, 1.0, 0.5)
            kramers.neumann.pole_residual(series, 0.01)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    for key in (
        "neumann.build_calls", "neumann.pole_residual_calls",
        "transport.profile_nodes", "transport.h_evals",
        "quadrature.calls", "quadrature.points",
        "quadrature.sweeps", "special_integrals.batches",
        "special_integrals.batch_points", "kernels.spline_points",
    ):
        assert counts[key] > 0, key
    self_s = tracer.layer_totals()["self_s"]
    for layer in ("quadrature", "special_integrals", "neumann", "transport"):
        assert self_s[layer] > 0.0, layer


def test_tracer_counts_cold_oracle_quadrature(monkeypatch):
    """The oracle's caches do not hide its QUADPACK calls: a cold
    u1_direct, traced, counts them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    kramers.oracle._moments.cache_clear()
    kramers.oracle._u1_parts.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root(0):
            kramers.oracle.u1_direct(0.25)
    finally:
        tracer.uninstall()
    assert tracer.counts["oracle.quad_calls"] > 0


def test_tracer_counts_cold_plan_fit_only(monkeypatch):
    """The transform plan calls its tail fit through ``transport``'s
    tracer-bound ``_fit_log_tail``: a traced cold transform counts it as a
    quadrature call, and a warm repeat, reading the cached plan, adds none."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    series = kramers.neumann.build_series(0.25, 2)
    params = GasParameters(gamma=0.25, q=0.9)
    kramers.transport._plan.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        calls = []
        for _ in range(2):
            with tracer.root(0):
                kramers.transport.distribution_function(params, series, [0.0, 3.0], 0.5)
            calls.append(tracer.counts["quadrature.calls"])
    finally:
        tracer.uninstall()
    assert calls[0] > 0 and calls[1] == calls[0]
