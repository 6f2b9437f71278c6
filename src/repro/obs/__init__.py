"""``repro.obs`` — cross-cutting observability: tracing, metrics, reports.

The paper's contribution is *explainability* — attributing cycles to
ports, dependency chains, and frontend limits.  This package gives the
reproduction the same property at runtime, in three layers:

* :mod:`.trace` — a low-overhead span/event tracer with Chrome
  trace-event JSON export.  The core simulator emits per-instruction
  dispatch/issue/retire events on port lanes plus cause-attributed
  stall events; the corpus engine emits per-unit spans on worker lanes
  with cache hit/miss annotations.  Open traces in Perfetto or
  ``chrome://tracing``.
* :mod:`.metrics` — a counter/gauge/histogram registry with
  snapshot/delta semantics and text + JSON exporters; absorbs the
  engine's :class:`~repro.engine.pool.EngineMetrics` and the
  simulator's stall counters behind one API.
* :mod:`.prof` — a hierarchical phase profiler: nested wall/CPU
  timers over parse → normalize → resolve → lower → per-backend
  predict, deterministic per-cycle attribution from the simulator
  (dispatch, port waits, ROB/scheduler occupancy), per-unit records
  that cross the engine's worker-process boundary, a ranked
  attribution report, and collapsed-stack flamegraph export.  Free
  when disabled: "off" is ``None``, as for the tracer.
* :mod:`.report` — structured run-report manifests written by
  ``repro-bench --run-report`` and diffed by the ``repro-report`` CLI,
  which flags accuracy and runtime regressions (``--check`` makes it a
  CI gate).

:mod:`.progress` additionally renders the engine's progress hook as a
stderr TTY progress bar.

A run attaches its tracer, profiler and metrics registry through one
run context: ``with use_context(tracer=t, profiler=p): ...``
(:mod:`repro.context`); readers call ``current_context()``.  See
``docs/observability.md``.
"""

from .metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    record_engine_metrics,
)
from .prof import PhaseProfiler
from .progress import ProgressBar, is_tty
from .report import (
    Finding,
    ManifestDiff,
    benchmark_stats,
    build_manifest,
    diff_manifests,
    jsonable,
    load_manifest,
    write_manifest,
)
from .trace import (
    PID_ENGINE,
    PID_SERVE,
    PID_SIM,
    Tracer,
)

__all__ = [
    "LATENCY_BUCKETS",
    "PID_ENGINE",
    "PID_SERVE",
    "PID_SIM",
    "Counter",
    "Finding",
    "Gauge",
    "Histogram",
    "ManifestDiff",
    "MetricsRegistry",
    "PhaseProfiler",
    "ProgressBar",
    "Tracer",
    "benchmark_stats",
    "build_manifest",
    "diff_manifests",
    "is_tty",
    "jsonable",
    "load_manifest",
    "record_engine_metrics",
    "write_manifest",
]
