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
experiment through an ambient engine; library code accepts
``engine=``/``jobs=``/``cache=`` keywords (see ``docs/engine.md``).
"""

from .cache import CacheStats, ResultCache
from .cachekey import (
    ENGINE_VERSION,
    cache_key,
    canonicalize_assembly,
    machine_model_digest,
)
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
    get_default_engine,
    resolve_engine,
    set_default_engine,
    use_engine,
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
    "canonicalize_assembly",
    "evaluate",
    "evaluator",
    "get_default_engine",
    "known_kinds",
    "machine_model_digest",
    "resolve_engine",
    "set_default_engine",
    "use_engine",
]
