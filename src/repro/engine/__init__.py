"""``repro.engine`` — parallel corpus execution with memoized results.

The paper's validation sweeps 416 compiled kernel variants through
three in-core models; every block is independent, so the sweep shards
cleanly across workers and memoizes cleanly on content.  This package
provides:

* :class:`WorkUnit` — plain-data description of one computation,
* :class:`CorpusEngine` — ``jobs`` engine-owned worker processes with
  deterministic result ordering (``jobs=1`` without a deadline is the
  exact serial path),
* :class:`ResultCache` — on-disk content-addressed store keyed by
  :func:`cache_key` (assembly text modulo comments/whitespace +
  machine-model digest + simulation parameters + engine version),
* :class:`EngineMetrics` — wall time, hit rate, worker utilization,
  failure/retry/degradation counters,
* an error taxonomy (:mod:`.errors`) and per-unit failure isolation:
  bounded retries with deterministic backoff, per-attempt deadlines,
  worker-crash recovery, and ``error_policy`` dispositions
  (``fail_fast`` / ``collect`` / ``quarantine`` — ``docs/robustness.md``).

Entry points: ``repro-bench --jobs N --cache DIR`` drives every
experiment through the engine it installs in the run context
(``use_context(engine=...)``, :mod:`repro.context`); library code
accepts an ``engine=`` keyword and otherwise runs on the context's
engine (see ``docs/engine.md``).  A batch reads the run context once
and sends each attempt its fault plan, ``partial_results``, a fresh
profiler and a fresh metrics registry, the same way inline and in a
worker; the attempt's profile and counters come back with its outcome.
"""

from .cache import CacheStats, ResultCache
from .cachekey import ENGINE_VERSION, cache_key
from .errors import (
    ERROR_POLICIES,
    EngineError,
    PermanentError,
    RetryPolicy,
    TransientError,
    UnitFailure,
    UnitTimeoutError,
    WorkerCrashError,
    classify,
    is_transient,
)
from .evaluators import evaluate, evaluator, known_kinds
from .pool import (
    CorpusEngine,
    EngineMetrics,
    UnitEvaluationError,
    resolve_engine,
)
from .units import UnitOutcome, WorkUnit

__all__ = [
    "ENGINE_VERSION",
    "ERROR_POLICIES",
    "CacheStats",
    "CorpusEngine",
    "EngineError",
    "EngineMetrics",
    "PermanentError",
    "ResultCache",
    "RetryPolicy",
    "TransientError",
    "UnitEvaluationError",
    "UnitFailure",
    "UnitOutcome",
    "UnitTimeoutError",
    "WorkUnit",
    "WorkerCrashError",
    "cache_key",
    "classify",
    "is_transient",
    "evaluate",
    "evaluator",
    "known_kinds",
    "resolve_engine",
]
