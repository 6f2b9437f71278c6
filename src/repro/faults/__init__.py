"""Deterministic, seedable fault injection for the corpus engine.

The chaos suite (``tests/test_engine_chaos.py``, ``make test-chaos``)
needs to provoke *specific* partial-failure modes — an evaluator
raising, a worker hanging past its deadline, a worker dying outright,
a cache write failing, a cache entry rotting on disk — and needs every
provoked schedule to be **reproducible**: whether a given unit faults
must not depend on worker scheduling, batch order, or wall clock.

A :class:`FaultPlan` is a seed plus a list of :class:`FaultSpec`.
Whether a spec fires for an event is a pure function of
``(seed, site, label, attempt)`` — a SHA-256 draw compared against the
spec's ``rate`` — so a 10 %-rate plan faults the *same* units in a
serial run and a ``jobs=8`` run, and a transient fault at attempt 0
deterministically heals (or not) at attempt 1.  ``match`` restricts a
spec to unit labels containing a substring; ``attempts`` restricts it
to specific attempt numbers (the idiom for "kill the worker once,
succeed on retry"); ``max_triggers`` bounds firings per plan object.

Sites (see ``docs/robustness.md``):

========== ============================================================
site        injected at
========== ============================================================
evaluate    worker, before evaluating a unit — raises ``error_type``
hang        worker, before evaluating — sleeps ``hang_seconds``
exit        worker, before evaluating — ``os._exit(86)``, a hard crash
cache.put   parent, before a cache write — raises ``OSError``
cache.corrupt  parent, after a cache write — truncates the entry file
========== ============================================================

Activation is ambient: ``with use_plan(plan): engine.run(units)``.
The engine sends the active plan with every task, so injection works
identically inline and in the engine's workers, at any ``jobs``.  With
no active plan every hook is a no-op behind a single ``is None``
check.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..engine.errors import PermanentError, TransientError

#: exit status of an injected worker crash (distinctive in waitpid logs)
CRASH_EXIT_CODE = 86

FAULT_SITES = ("evaluate", "hang", "exit", "cache.put", "cache.corrupt")


class InjectedFault(TransientError):
    """A fault raised by the harness and classified transient."""


class InjectedPermanentFault(PermanentError):
    """A fault raised by the harness and classified permanent."""


@dataclass(frozen=True)
class FaultSpec:
    """One kind of injected fault.

    ``rate`` is the per-event firing probability (1.0 = always);
    ``match`` a substring of the unit label ("" = every unit);
    ``attempts`` restricts firing to those attempt numbers (``None`` =
    all attempts); ``max_triggers`` caps firings *per plan object*:
    the caller's plan inline, but a worker receives a fresh copy with
    every task, so there it bounds one attempt.
    """

    site: str
    rate: float = 1.0
    match: str = ""
    error_type: str = "transient"  #: "transient" | "permanent"
    hang_seconds: float = 30.0
    attempts: Optional[tuple[int, ...]] = None
    max_triggers: Optional[int] = None

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {FAULT_SITES}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")


def _draw(seed: int, site: str, label: str, attempt: int) -> float:
    """Deterministic uniform [0, 1) draw for one potential fault event."""
    blob = f"{seed}|{site}|{label}|{attempt}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2**64


@dataclass
class FaultPlan:
    """A seeded set of fault specs; the unit the chaos suite configures."""

    specs: Sequence[FaultSpec] = ()
    seed: int = 0
    #: per-process firing counters, keyed by spec position
    _fired: dict[int, int] = field(default_factory=dict, compare=False)

    def spec_for(
        self, site: str, label: str, attempt: int = 0
    ) -> Optional[FaultSpec]:
        """The first spec that fires for this event, or ``None``.

        Pure in ``(seed, site, label, attempt)`` except for
        ``max_triggers`` bookkeeping, which is deliberately stateful.
        """
        for pos, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if spec.match and spec.match not in label:
                continue
            if spec.attempts is not None and attempt not in spec.attempts:
                continue
            if (
                spec.max_triggers is not None
                and self._fired.get(pos, 0) >= spec.max_triggers
            ):
                continue
            if spec.rate < 1.0 and _draw(
                self.seed, site, label, attempt
            ) >= spec.rate:
                continue
            self._fired[pos] = self._fired.get(pos, 0) + 1
            return spec
        return None

    def would_fault(self, site: str, label: str, attempt: int = 0) -> bool:
        """Stateless preview: would *any* spec fire for this event?

        Ignores ``max_triggers`` (which is process-local state); used
        by tests to predict which units of a schedule will fault.
        """
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.match and spec.match not in label:
                continue
            if spec.attempts is not None and attempt not in spec.attempts:
                continue
            if spec.rate < 1.0 and _draw(
                self.seed, site, label, attempt
            ) >= spec.rate:
                continue
            return True
        return False

    # -- injection hooks (called from instrumented sites) --------------

    def fire_worker_site(self, label: str, attempt: int) -> None:
        """Run the worker-side sites for one evaluation attempt.

        ``exit`` kills the process, ``hang`` sleeps (inside the unit's
        deadline, so a configured timeout converts it into a
        :class:`~repro.engine.errors.UnitTimeoutError`), ``evaluate``
        raises.
        """
        if self.spec_for("exit", label, attempt) is not None:
            os._exit(CRASH_EXIT_CODE)
        spec = self.spec_for("hang", label, attempt)
        if spec is not None:
            time.sleep(spec.hang_seconds)
        spec = self.spec_for("evaluate", label, attempt)
        if spec is not None:
            exc = (
                InjectedPermanentFault
                if spec.error_type == "permanent"
                else InjectedFault
            )
            raise exc(
                f"injected {spec.error_type} fault "
                f"(site=evaluate, label={label!r}, attempt={attempt})"
            )

    def fire_cache_put(self, label: str) -> None:
        if self.spec_for("cache.put", label) is not None:
            raise OSError(
                f"injected cache write failure (label={label!r})"
            )

    def should_corrupt(self, label: str) -> bool:
        return self.spec_for("cache.corrupt", label) is not None


# ---------------------------------------------------------------------------
# Ambient plan — the engine reads it once per batch and sends it to its
# workers with every task.
# ---------------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The ambient fault plan, or ``None`` (the no-faults fast path)."""
    return _PLAN


def set_active_plan(plan: Optional[FaultPlan]) -> None:
    global _PLAN
    _PLAN = plan


@contextlib.contextmanager
def use_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Temporarily install *plan* as the ambient fault plan."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedPermanentFault",
    "active_plan",
    "set_active_plan",
    "use_plan",
]
