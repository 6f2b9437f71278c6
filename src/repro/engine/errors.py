"""Error taxonomy and retry policy for the corpus engine.

A corpus sweep runs hundreds of independent work units through worker
processes; under partial failure the engine must know three things
about every error: *what* failed (a structured :class:`UnitFailure`
rather than a bare traceback), *whether retrying can help* (the
transient/permanent split below), and *what to do with the unit*
(the :data:`ERROR_POLICIES`).  The taxonomy deliberately mirrors how
OSACA's corpus validation tolerates individual unanalyzable kernels
and LLVM-MCA reports per-block errors: one bad block never takes the
sweep down.

Classification
--------------
``TransientError`` subclasses (and a small set of environmental
exception types: ``OSError``, ``EOFError``, ``BrokenPipeError``,
``MemoryError``, ``multiprocessing`` transport failures) are *worth
retrying* — the same input may well succeed on a fresh attempt or a
respawned worker.  Everything else (``ValueError`` from a bad unit,
``KeyError``/``TypeError``/``ZeroDivisionError`` evaluator bugs,
unpicklable parameters) is *permanent*: retrying burns time to fail
identically, so the unit fails on its first attempt.

Retry/backoff is **deterministic**: attempt *n* sleeps
``backoff * 2**(n-1)`` seconds, no jitter, so two runs of the same
faulty batch schedule identically (the fault-injection harness and the
chaos suite rely on this).
"""

from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .units import WorkUnit

#: the engine's unit-failure dispositions (``CorpusEngine(error_policy=...)``)
#:
#: ``fail_fast``
#:     today's behaviour and the default: the first failed unit raises
#:     :class:`~repro.engine.pool.UnitEvaluationError` out of
#:     :meth:`CorpusEngine.run` (after its retry budget, if transient).
#: ``collect``
#:     failed units become :class:`UnitFailure` records on
#:     ``engine.failures``; the batch runs to completion and the result
#:     list carries ``None`` at failed indices.
#: ``quarantine``
#:     like ``collect``, but failed units are additionally remembered
#:     (in memory, persisted under ``<cache>/quarantine/``) so
#:     subsequent batches skip them without re-evaluating.  Requires a
#:     cache directory: a cache-less engine degrades the policy to
#:     ``collect`` with a warning instead of keeping a skip-list that
#:     could neither persist nor be inspected.
ERROR_POLICIES = ("fail_fast", "collect", "quarantine")


class EngineError(RuntimeError):
    """Base class of the engine's own error taxonomy."""


class TransientError(EngineError):
    """An error a retry may heal (environment, not input)."""


class PermanentError(EngineError):
    """An error retrying cannot heal (bad input or evaluator bug)."""


class UnitTimeoutError(TransientError):
    """A unit exceeded its per-attempt deadline (``unit_timeout``)."""

    def __init__(self, seconds: float):
        super().__init__(f"unit exceeded its {seconds:g} s deadline")
        self.seconds = seconds


class WorkerCrashError(TransientError):
    """The worker process died (SIGKILL, ``os._exit``, hard crash) while
    the unit was in flight; that worker was replaced."""


class CacheWriteError(TransientError):
    """A result-cache write failed; the result itself is intact."""


#: exception types (beyond TransientError subclasses) that classify as
#: transient — environmental failures where a fresh attempt can differ
_TRANSIENT_TYPES: tuple[type, ...] = (
    OSError,          # disk/fd/pipe hiccups, incl. BrokenPipeError
    EOFError,         # torn multiprocessing transport
    MemoryError,      # pressure may subside between attempts
    ConnectionError,
)

#: types that are permanent regardless of any transient base class —
#: a unit whose parameters cannot pickle will fail identically on
#: every attempt, whatever the transport looked like at the time
_PERMANENT_TYPES: tuple[type, ...] = (
    pickle.PicklingError,
    pickle.UnpicklingError,
)


def is_transient(exc: BaseException) -> bool:
    """Whether retrying *exc* can plausibly succeed."""
    if isinstance(exc, _PERMANENT_TYPES):
        return False
    if isinstance(exc, PermanentError):
        return False
    return isinstance(exc, (TransientError, *_TRANSIENT_TYPES))


def classify(exc: BaseException) -> str:
    """``"transient"`` or ``"permanent"`` — the retry-relevant split."""
    return "transient" if is_transient(exc) else "permanent"


def failure_payload(exc: BaseException, tb_limit: int = 20) -> dict:
    """Plain-data description of an exception.

    This is what crosses the worker→parent pickle boundary: the
    exception object itself may be unpicklable (or pickle to something
    that raises on unpickle), so only its ``repr`` and formatted
    traceback travel.
    """
    return {
        "error_class": type(exc).__name__,
        "kind": classify(exc),
        "message": str(exc) or repr(exc),
        "traceback_repr": traceback.format_exc(limit=tb_limit),
    }


@dataclass
class UnitFailure:
    """Structured record of one unit's final failure.

    Produced under the ``collect``/``quarantine`` error policies (and
    carried by :class:`~repro.engine.pool.UnitEvaluationError` under
    ``fail_fast``); ``attempts`` counts every evaluation attempt made,
    including the failing one.
    """

    index: int
    unit: "WorkUnit"
    attempts: int
    error_class: str
    kind: str  #: ``"transient"`` | ``"permanent"``
    message: str
    traceback_repr: str = ""
    seconds: float = 0.0  #: summed wall time across all attempts

    @property
    def label(self) -> str:
        return self.unit.label or self.unit.kind

    def summary(self) -> str:
        return (
            f"{self.unit.kind}:{self.label} failed after "
            f"{self.attempts} attempt(s): {self.error_class}"
            f" ({self.kind}): {self.message}"
        )

    def to_json(self) -> dict:
        """Manifest/report form (no WorkUnit object, plain JSON)."""
        return {
            "label": self.label,
            "unit_kind": self.unit.kind,
            "attempts": self.attempts,
            "error_class": self.error_class,
            "kind": self.kind,
            "message": self.message,
        }


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff.

    ``max_retries`` is the number of *re*-attempts after the first try
    (``0`` disables retries); only transient errors are retried.
    Attempt *n* (1-based retry index) waits ``backoff * 2**(n-1)``
    seconds before redispatching — deterministic by design, so a
    seeded fault schedule replays identically.
    """

    max_retries: int = 2
    backoff: float = 0.05

    def should_retry(self, attempt: int, error_kind: str) -> bool:
        """May attempt number *attempt* (0-based) be retried?"""
        return error_kind == "transient" and attempt < self.max_retries

    def backoff_seconds(self, attempt: int) -> float:
        """Delay before re-dispatching after failed attempt *attempt*."""
        return self.backoff * (2 ** attempt) if self.backoff > 0 else 0.0


@dataclass
class AttemptRecord:
    """One evaluation attempt, kept for trace reconstruction.

    ``status`` is ``"ok"``, ``"retry"`` (failed, will be retried) or
    ``"failure"`` (failed, final); the tracer maps it straight onto
    span categories so a chaos run's trace shows where time went.
    """

    index: int
    unit: "WorkUnit"
    attempt: int
    status: str
    seconds: float
    error_class: str = ""
    detail: dict = field(default_factory=dict)
