"""Package names the benchmark harness in ``perfbench/`` binds.

The tracer rebinds imported and owned names by ``getattr``, and the worker
reads the moment cache's statistics on every run, so deleting one of those
names breaks the benchmark.  These tests fail first.  They import from
``perfbench/`` and change nothing there.
"""

from pathlib import Path

import kramers.special_integrals
import kramers.transport

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
