"""One run context: what a run observes and what it injects.

Every number the reproduction reports comes out of one pipeline
(lowering → backends → corpus engine), and what a run attaches to that
pipeline travels in one frozen :class:`RunContext`:

* ``tracer`` — a :class:`~repro.obs.trace.Tracer`, or ``None`` (off);
* ``profiler`` — a :class:`~repro.obs.prof.PhaseProfiler`, or ``None``;
* ``metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry` that
  counters land in (the process registry by default, never ``None``);
* ``faults`` — a :class:`~repro.faults.FaultPlan`, or ``None``;
* ``partial_results`` — let the ``corpus`` kind degrade to a partial
  result when one backend fails;
* ``engine`` — the :class:`~repro.engine.CorpusEngine` library calls
  run on when they are given none.

Readers call :func:`current_context`; a run installs its changes with
``with use_context(tracer=t, engine=e): ...``, which nests and restores
the previous context on exit, also when the body raises.

The current context is a plain module global, not a ``ContextVar``: a
context installed on one thread is seen from every other thread (the
serving daemon runs its engine on an executor thread).  Engine workers
inherit it at fork; the engine sends each attempt the fields it needs
(:func:`repro.engine.pool._evaluate_task`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine.pool import CorpusEngine
    from .faults import FaultPlan
    from .obs.metrics import MetricsRegistry
    from .obs.prof import PhaseProfiler
    from .obs.trace import Tracer


@dataclass(frozen=True)
class RunContext:
    """What a run observes and injects; every field defaults to off."""

    tracer: Optional["Tracer"] = None
    profiler: Optional["PhaseProfiler"] = None
    metrics: Optional["MetricsRegistry"] = None
    faults: Optional["FaultPlan"] = None
    partial_results: bool = False
    engine: Optional["CorpusEngine"] = None


_CURRENT: Optional[RunContext] = None


def current_context() -> RunContext:
    """The installed context; at first use, the process default (the
    process metrics registry, everything else off)."""
    global _CURRENT
    if _CURRENT is None:
        from .obs.metrics import MetricsRegistry

        _CURRENT = RunContext(metrics=MetricsRegistry())
    return _CURRENT


@contextlib.contextmanager
def use_context(**changes: Any) -> Iterator[RunContext]:
    """Install the current context with *changes* for the ``with`` body."""
    global _CURRENT
    previous = current_context()
    _CURRENT = replace(previous, **changes)
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous
