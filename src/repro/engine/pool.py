"""The corpus execution engine: sharded workers + memoized results.

The engine takes a batch of :class:`~repro.engine.units.WorkUnit` and
returns their result dicts **in submission order**, regardless of how
many workers raced to produce them.  Per-kernel analysis is
embarrassingly parallel (OSACA's corpus validation exploits the same
structure), so the parallel schedule is trivial:

1. look every unit up in the content-addressed cache (parent process —
   hits never pay IPC),
2. coalesce the misses by content key — units that share a key (the
   Fig. 3 corpus repeats identical blocks across compiler personas:
   416 units, 153 keys) are evaluated once, by the first of them, and
   the others receive a copy of its result,
3. evaluate the distinct misses — inline when ``jobs=1`` and no
   deadline is set (the degenerate serial path, bit-identical by
   construction), else on the engine's own worker processes, each with
   its own pipe and one task in flight, so a slow, hung or dead worker
   costs exactly its own unit,
4. write fresh results back to the cache and reassemble by index.

Failure is a first-class outcome, not an afterthought (see
``docs/robustness.md``): every attempt that raises is classified
transient/permanent (:mod:`.errors`), transient failures retry with
deterministic backoff, the parent kills a worker whose task outlives
its deadline, a worker that dies mid-unit is known by its pipe and
process sentinel, and in both cases that one unit fails transiently
and that one worker is replaced.  The ``error_policy`` decides whether
a finally-failed unit raises (``fail_fast``, the default), is collected
as a structured :class:`~.errors.UnitFailure` (``collect``), or is
additionally remembered so later batches skip it (``quarantine``).

Workers fork at the engine's first pooled batch and live until
:meth:`CorpusEngine.close` (or a ``with`` exit, or garbage collection),
so an evaluator or backend registered after that point reaches them
only after ``close()``.  They keep no per-kernel state between tasks.

Metrics (per-unit wall time, cache hit rate, worker utilization,
failure/retry/degradation counters) are collected on every run; a
``progress`` hook fires once per completed unit for live reporting.
"""

from __future__ import annotations

import contextlib
import copy
import json
import logging
import math
import multiprocessing
import os
import signal
import time
import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

from .cache import ResultCache
from .cachekey import cache_key
from .errors import (
    ERROR_POLICIES,
    AttemptRecord,
    EngineError,
    RetryPolicy,
    UnitFailure,
    UnitTimeoutError,
    WorkerCrashError,
    failure_payload,
)
from .evaluators import evaluate, partial_results_enabled, set_partial_results
from .units import UnitOutcome, WorkUnit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import FaultPlan

log = logging.getLogger(__name__)

ProgressHook = Callable[[dict[str, Any]], None]

#: one attempt's outcome: ``(index, status, payload, seconds, profile)``
Outcome = tuple[int, str, Any, float, Optional[dict]]

#: span categories of reconstructed per-attempt trace slices
_ATTEMPT_TRACE_CAT = {"ok": "unit", "retry": "retry", "failure": "failure"}


@dataclass
class EngineMetrics:
    """Observability for one :meth:`CorpusEngine.run` batch."""

    jobs: int = 1
    total_units: int = 0
    cache_hits: int = 0
    evaluated: int = 0
    #: units that exhausted their retry budget (or were quarantine-skipped)
    failed: int = 0
    #: units answered by an earlier unit of the batch with the same
    #: content key instead of being evaluated themselves; each is also
    #: counted under ``evaluated`` or ``failed``, as its leader was
    coalesced: int = 0
    #: re-dispatches after transient failures
    retries: int = 0
    #: units that returned a partial result (a corpus backend failed)
    degraded: int = 0
    #: workers replaced after dying or being killed at a deadline
    worker_respawns: int = 0
    #: result-cache writes absorbed as failures (the result survived)
    cache_write_errors: int = 0
    #: corrupt cache entries hit (and quarantined) during lookup
    cache_corrupt: int = 0
    wall_seconds: float = 0.0
    #: sum of per-unit evaluation times (excludes cache hits)
    busy_seconds: float = 0.0
    unit_seconds: list[float] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total_units if self.total_units else 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of worker-seconds spent evaluating units."""
        capacity = self.jobs * self.wall_seconds
        return min(1.0, self.busy_seconds / capacity) if capacity else 0.0

    def absorb_into(self, totals: "EngineMetrics") -> None:
        """Accumulate this batch into a lifetime-totals instance."""
        totals.total_units += self.total_units
        totals.cache_hits += self.cache_hits
        totals.evaluated += self.evaluated
        totals.failed += self.failed
        totals.coalesced += self.coalesced
        totals.retries += self.retries
        totals.degraded += self.degraded
        totals.worker_respawns += self.worker_respawns
        totals.cache_write_errors += self.cache_write_errors
        totals.cache_corrupt += self.cache_corrupt
        totals.wall_seconds += self.wall_seconds
        totals.busy_seconds += self.busy_seconds
        totals.unit_seconds.extend(self.unit_seconds)

    def summary(self) -> str:
        if self.total_units == 0:
            return f"engine: 0 units (jobs={self.jobs}, nothing to evaluate)"
        # Utilization is meaningless when nothing was evaluated (an
        # all-cache-hit batch would misleadingly print 0%).
        util = (
            f"utilization {self.worker_utilization * 100:.0f}%"
            if self.evaluated
            else "utilization n/a (no units evaluated)"
        )
        text = (
            f"engine: {self.total_units} units in {self.wall_seconds:.2f} s "
            f"(jobs={self.jobs}, cache hits {self.cache_hits}/"
            f"{self.total_units} = {self.cache_hit_rate * 100:.0f}%, "
            f"evaluated {self.evaluated}"
            + (f" ({self.coalesced} coalesced)" if self.coalesced else "")
            + f", {util})"
        )
        trouble = []
        if self.failed:
            trouble.append(f"{self.failed} failed")
        if self.retries:
            trouble.append(f"{self.retries} retries")
        if self.degraded:
            trouble.append(f"{self.degraded} degraded")
        if self.worker_respawns:
            trouble.append(f"{self.worker_respawns} worker respawns")
        if trouble:
            text += f" [{', '.join(trouble)}]"
        return text


class UnitEvaluationError(RuntimeError):
    """An evaluator raised; carries the unit for actionable reporting.

    The cause is kept as ``repr`` text, not the exception object, so the
    error survives a pickle round-trip whatever the cause was.
    Under ``error_policy="fail_fast"`` this is what :meth:`CorpusEngine.run`
    raises for the first finally-failed unit; ``failure`` carries the
    structured record including the attempt count.
    """

    def __init__(
        self,
        unit: WorkUnit,
        cause_repr: str,
        failure: Optional[UnitFailure] = None,
    ):
        super().__init__(
            f"work unit {unit.kind}:{unit.label or '?'} failed: {cause_repr}"
        )
        self.unit = unit
        self.cause_repr = cause_repr
        self.failure = failure

    def __reduce__(self):
        return (type(self), (self.unit, self.cause_repr, self.failure))


# ---------------------------------------------------------------------------
# Attempts and workers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RunContext:
    """The caller's state an attempt needs; it rides with every task.

    :func:`_evaluate_task` installs it for one attempt, the same way
    inline and in a worker.  It holds no deadline: the parent enforces
    deadlines by killing the worker.
    """

    #: the caller's active fault plan (``None``: nothing is injected)
    faults: Optional["FaultPlan"]
    #: let the ``corpus`` kind degrade to a partial result
    #: (``error_policy != "fail_fast"``)
    partial_results: bool
    #: profile the attempt into a fresh profiler and return its snapshot
    profiling: bool


def _evaluate_task(task: tuple[int, WorkUnit, int], ctx: _RunContext) -> Outcome:
    """One attempt at one unit under *ctx*; never raises.

    Returns ``(index, status, payload, seconds, profile)`` — status
    ``"ok"`` (payload is the result dict) or ``"err"`` (payload is an
    :func:`~.errors.failure_payload` dict).  Exceptions are flattened
    to plain data *before* they cross the pipe: an exception object
    need not survive pickling.

    With ``ctx.profiling`` on, the attempt runs under a **fresh**
    :class:`~repro.obs.prof.PhaseProfiler` and its plain-dict snapshot
    rides back as ``profile`` — the parent absorbs snapshots in
    submission order, so merged attribution does not depend on which
    worker ran what (and the deterministic simulated-cycle records are
    bit-identical to a serial run).
    """
    idx, unit, attempt = task
    t0 = time.perf_counter()
    snap: Optional[dict] = None
    partial = partial_results_enabled()
    set_partial_results(ctx.partial_results)
    try:
        if ctx.faults is not None:
            ctx.faults.fire_worker_site(unit.label or unit.kind, attempt)
        if ctx.profiling:
            from ..obs.prof import PhaseProfiler, use_profiler

            unit_prof = PhaseProfiler()
            with use_profiler(unit_prof):
                result = evaluate(unit.kind, unit.params)
            snap = unit_prof.snapshot()
        else:
            result = evaluate(unit.kind, unit.params)
    except Exception as exc:
        return idx, "err", failure_payload(exc), time.perf_counter() - t0, None
    finally:
        set_partial_results(partial)
    return idx, "ok", result, time.perf_counter() - t0, snap


def _worker_main(conn, parent_end) -> None:
    """A worker process: evaluate one task at a time until killed."""
    # Without this copy of the parent's end, recv sees EOF (and the
    # worker exits) once the parent is gone.
    parent_end.close()
    # A forked worker inherits the parent's signal state.  When the
    # parent is an asyncio daemon (repro-serve) that state is poison:
    # asyncio's no-op SIGTERM/SIGINT handlers would make the worker
    # ignore SIGTERM, and the inherited ``signal.set_wakeup_fd`` socket
    # means any signal a worker receives is *echoed into the parent's
    # event loop*, which reads it as a signal of its own.  Reset both.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # shutdown is coordinated by the parent (finish batch, then
    # kill workers) — a tty Ctrl-C must not kill workers first
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # ambient observers inherited from the parent would record into a
    # copy nobody reads; an attempt's profile rides back with its result
    from ..lowering import clear_memo
    from ..obs.prof import set_active_profiler
    from ..obs.trace import set_active_tracer
    from ..simulator.plan import clear_plan_memo

    set_active_profiler(None)
    set_active_tracer(None)
    while True:
        # No per-kernel state between tasks: the parent coalesces equal
        # keys, so the memos would not hit, and they would grow the RSS.
        clear_memo()
        clear_plan_memo()
        try:
            task, ctx = conn.recv()
            conn.send(_evaluate_task(task, ctx))
        except (EOFError, OSError):  # the parent is gone
            return


def _fork_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (workers inherit loaded models and user-registered
    kernels); fall back to the platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


class _Worker:
    """One worker process, the parent's end of its pipe, and the one
    task it may hold."""

    def __init__(self) -> None:
        mp = _fork_context()
        self.conn, child = mp.Pipe()
        self.proc = mp.Process(
            target=_worker_main, args=(child, self.conn), daemon=True
        )
        self.proc.start()
        child.close()
        self.task: Optional[tuple[int, WorkUnit, int]] = None
        self.sent = 0.0
        self.deadline = math.inf

    def send(
        self, task: tuple[int, WorkUnit, int], ctx: _RunContext,
        timeout: Optional[float],
    ) -> bool:
        """Hand *task* over; ``False`` if the worker died while idle."""
        try:
            self.conn.send((task, ctx))
        except OSError:
            return False
        self.task = task
        self.sent = time.monotonic()
        self.deadline = math.inf if timeout is None else self.sent + timeout
        return True

    def receive(self) -> Optional[Outcome]:
        """The task's outcome, or ``None`` if the worker died without one."""
        try:
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    def kill(self) -> None:
        self.proc.kill()
        self.proc.join()
        self.conn.close()


def _lost(idx: int, error: EngineError, seconds: float) -> Outcome:
    """The outcome of a task whose worker died or was killed with it."""
    payload = {
        "error_class": type(error).__name__,
        "kind": "transient",
        "message": str(error),
        "traceback_repr": "",
    }
    return idx, "err", payload, seconds, None


class _Workers:
    """The engine's ``jobs`` worker processes.

    They are spawned at the first :meth:`dispatch` and live until
    :meth:`close`.  Each holds at most one task, so the parent knows
    which task a dead worker held, and a deadline is one worker's:
    the parent kills that worker.  Either way only that task fails
    (transiently) and only that worker is replaced.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        #: live workers with no task in flight
        self.idle: list[_Worker] = []
        #: workers replaced after dying or being killed at a deadline
        self.respawns = 0

    def close(self) -> None:
        """Kill and reap every worker; the next dispatch spawns anew."""
        while self.idle:
            self.idle.pop().kill()

    def _replace(self, worker: _Worker) -> None:
        worker.kill()
        self.respawns += 1
        self.idle.append(_Worker())

    def dispatch(
        self, tasks: Sequence[tuple[int, WorkUnit, int]], ctx: _RunContext,
        timeout: Optional[float],
    ) -> Iterator[Outcome]:
        """Run one round of attempts, yielding outcomes as they land.

        A task whose worker dies with it yields a
        :class:`~.errors.WorkerCrashError` outcome; one that outlives
        *timeout* yields a :class:`~.errors.UnitTimeoutError` outcome
        after its worker is killed.  A worker that died while idle is
        replaced and the task resent, with no attempt charged.
        """
        while len(self.idle) < self.jobs:
            self.idle.append(_Worker())
        queue = deque(tasks)
        busy: list[_Worker] = []
        try:
            while queue or busy:
                while queue and self.idle:
                    worker = self.idle.pop()
                    if worker.send(queue[0], ctx, timeout):
                        queue.popleft()
                        busy.append(worker)
                    else:
                        self._replace(worker)
                nearest = min(w.deadline for w in busy)
                ready = wait(
                    [w.conn for w in busy] + [w.proc.sentinel for w in busy],
                    None if nearest == math.inf
                    else max(0.0, nearest - time.monotonic()),
                )
                now = time.monotonic()
                for worker in list(busy):
                    if worker.conn in ready or worker.proc.sentinel in ready:
                        outcome = worker.receive()
                        if outcome is not None:
                            busy.remove(worker)
                            self.idle.append(worker)
                            yield outcome
                            continue
                        error: EngineError = WorkerCrashError(
                            "worker process died with the unit in flight "
                            f"(exit code {worker.proc.exitcode}); the "
                            "worker was replaced"
                        )
                    elif now >= worker.deadline:
                        error = UnitTimeoutError(timeout)
                    else:
                        continue
                    busy.remove(worker)
                    self._replace(worker)
                    yield _lost(worker.task[0], error, now - worker.sent)
        finally:
            # The round was abandoned (a fail_fast raise drops this
            # generator): results still in flight must not land in a
            # later batch.
            for worker in busy:
                worker.kill()


def _coalesce_key(
    unit: WorkUnit, model_digests: dict[str, str]
) -> Optional[str]:
    """The content key of a unit for coalescing alone (no cache or
    quarantine needs it).  A unit whose key cannot be built — one that
    names an unknown machine model — gets ``None``: it is evaluated on
    its own and fails in the worker, as it would uncoalesced."""
    try:
        return cache_key(unit, model_digests)
    except ValueError:
        return None


def _coalesce(
    pending: list[tuple[int, WorkUnit, Optional[str]]],
) -> tuple[
    list[tuple[int, WorkUnit, Optional[str]]],
    dict[int, list[tuple[int, WorkUnit]]],
]:
    """Split the misses into leaders and followers by content key.

    The first miss with a given key leads and is evaluated; every later
    miss with the same key follows it.  Returns the leaders (submission
    order) and ``{leader index: [(follower index, unit), ...]}``.  A
    unit without a key always leads.
    """
    leaders: list[tuple[int, WorkUnit, Optional[str]]] = []
    first: dict[str, int] = {}
    followers: dict[int, list[tuple[int, WorkUnit]]] = {}
    for i, unit, key in pending:
        if key is not None and key in first:
            followers.setdefault(first[key], []).append((i, unit))
            continue
        if key is not None:
            first[key] = i
        leaders.append((i, unit, key))
    return leaders, followers


class CorpusEngine:
    """Sharded, memoizing, failure-isolating executor for corpus work.

    Parameters
    ----------
    jobs:
        Worker-process count.  ``1`` (default) without a
        ``unit_timeout`` runs inline, in the calling process; any other
        setting evaluates in worker processes the engine owns (see
        :meth:`close`).  Results are bit-identical either way.
    cache_dir:
        Root of the on-disk content-addressed result cache; ``None``
        disables memoization.
    progress:
        Optional hook called once per completed unit with a dict:
        ``{"unit", "index", "cached", "coalesced", "failed", "seconds",
        "completed", "total"}``.
    tracer:
        Optional :class:`repro.obs.Tracer`; when absent, the ambient
        tracer (``repro.obs.use_tracer``) is consulted per batch.  Each
        batch emits per-attempt spans on worker lanes (categories
        ``unit``/``retry``/``failure``) plus cache hit/miss instants.
    error_policy:
        ``"fail_fast"`` (default — first failed unit raises
        :class:`UnitEvaluationError`), ``"collect"`` (failures become
        :class:`~.errors.UnitFailure` records on :attr:`failures`; the
        result list holds ``None`` at failed indices), or
        ``"quarantine"`` (``collect`` + failed units are skipped by
        subsequent batches; the skip-list persists under
        ``<cache>/quarantine/``).  ``quarantine`` requires a cache
        directory; without one it degrades to ``collect`` with a
        warning (cache-less fuzz sweeps hit this deliberately).
    max_retries / retry_backoff:
        Bounded retry for *transient* failures: up to ``max_retries``
        re-attempts, attempt *n* delayed ``retry_backoff * 2**(n-1)``
        seconds (deterministic, no jitter).
    unit_timeout:
        Per-attempt deadline in seconds; the parent kills the worker of
        a unit running past it, and the attempt fails with
        :class:`~.errors.UnitTimeoutError` (transient, so it is retried
        within budget).  A deadline needs a worker to kill, so it sends
        even ``jobs=1`` evaluation to a worker process.  ``None``
        disables deadlines.

    Within a batch, misses that share a content key (the cache key,
    computed even when no cache is configured) are evaluated once: the
    first such unit leads, the others receive a copy of its result or
    its failure (:attr:`EngineMetrics.coalesced`).  Under an active
    fault plan (:mod:`repro.faults`) every unit is evaluated on its
    own, because the plan draws its faults per unit label.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str | os.PathLike] = None,
        progress: Optional[ProgressHook] = None,
        tracer=None,
        error_policy: str = "fail_fast",
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        unit_timeout: Optional[float] = None,
    ):
        if error_policy not in ERROR_POLICIES:
            raise ValueError(
                f"unknown error_policy {error_policy!r}; "
                f"known: {ERROR_POLICIES}"
            )
        if error_policy == "quarantine" and not cache_dir:
            # the skip-list is keyed and persisted under the cache root;
            # without one a quarantine could neither survive the engine
            # nor be inspected/cleared from disk, so degrade rather than
            # surprise cache-less sweeps (fuzzing defaults to no cache)
            log.warning(
                "quarantine error policy needs a cache directory for the "
                "persistent skip-list; degrading to 'collect' (failures "
                "are still isolated and reported, but not skipped by "
                "later batches)"
            )
            error_policy = "collect"
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if unit_timeout is not None and unit_timeout <= 0:
            raise ValueError("unit_timeout must be positive (or None)")
        self.jobs = max(1, int(jobs))
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.progress = progress
        self.tracer = tracer
        self.error_policy = error_policy
        self.retry_policy = RetryPolicy(
            max_retries=max_retries, backoff=retry_backoff
        )
        self.unit_timeout = unit_timeout
        self._workers = _Workers(self.jobs)
        # an engine dropped without close() still reaps its workers (at
        # collection, or at interpreter exit)
        weakref.finalize(self, self._workers.close)
        #: metrics of the most recent :meth:`run` batch
        self.metrics = EngineMetrics(jobs=self.jobs)
        #: metrics accumulated over the engine's lifetime
        self.totals = EngineMetrics(jobs=self.jobs)
        #: :class:`UnitFailure` records of the most recent batch
        self.failures: list[UnitFailure] = []
        #: failure records accumulated over the engine's lifetime
        self.failure_log: list[UnitFailure] = []
        self._completed = 0
        self._warned_cache_write = False
        self._quarantined: dict[str, dict[str, Any]] = {}
        self._load_quarantine()

    # ------------------------------------------------------------------

    def run(self, units: Sequence[WorkUnit]) -> list[Optional[dict[str, Any]]]:
        """Execute a batch; results come back in submission order.

        The returned list is **aligned with** ``units``: entry *i* is
        unit *i*'s result dict, or ``None`` exactly when unit *i*
        failed under the ``collect``/``quarantine`` policies (under the
        default ``fail_fast`` a failure raises instead, so every entry
        is a dict).  Accounting always holds:
        ``cache_hits + evaluated + failed == total``; a coalesced unit
        counts as evaluated or failed, as the unit it shared did.
        """
        units = list(units)
        t0 = time.perf_counter()
        metrics = EngineMetrics(jobs=self.jobs, total_units=len(units))
        self._completed = 0
        batch_failures: list[UnitFailure] = []

        tracer = self.tracer
        if tracer is None:
            from ..obs.trace import active_tracer

            tracer = active_tracer()
        tracing = tracer is not None
        from ..obs.prof import active_profiler

        prof = active_profiler()
        profiling = prof is not None
        if tracing:
            from ..obs.trace import (
                PID_ENGINE,
                TID_ENGINE_CONTROL,
                TID_WORKER_BASE,
            )

            tracer.engine_lanes(self.jobs)
            batch_t0_us = tracer.now_us()

        results: list[Optional[dict[str, Any]]] = [None] * len(units)
        outcomes: list[Optional[UnitOutcome]] = [None] * len(units)
        pending: list[tuple[int, WorkUnit, Optional[str]]] = []

        model_digests: dict[str, str] = {}
        caching = self.cache is not None
        quarantining = self.error_policy == "quarantine"
        from .. import faults

        coalescing = faults.active_plan() is None
        corrupt0 = self.cache.stats.corrupt if caching else 0
        lookup_cm = (
            prof.phase("engine/cache_lookup")
            if profiling
            else contextlib.nullcontext()
        )
        with lookup_cm:
            for i, unit in enumerate(units):
                if caching or quarantining:
                    key = cache_key(unit, model_digests)
                elif coalescing:
                    key = _coalesce_key(unit, model_digests)
                else:
                    key = None
                if quarantining and key in self._quarantined:
                    info = self._quarantined[key]
                    failure = UnitFailure(
                        index=i, unit=unit, attempts=0,
                        error_class="Quarantined", kind="permanent",
                        message=(
                            "skipped: unit is quarantined after an earlier "
                            f"{info.get('error_class', 'failure')}"
                        ),
                    )
                    outcomes[i] = UnitOutcome(i, unit, False, 0.0, None, failure)
                    batch_failures.append(failure)
                    metrics.failed += 1
                    self._emit(unit, i, False, 0.0, len(units), failed=True)
                    continue
                hit = self.cache.get(key) if caching else None
                if hit is not None:
                    results[i] = hit
                    outcomes[i] = UnitOutcome(i, unit, True, 0.0, hit)
                    metrics.cache_hits += 1
                    if tracing:
                        tracer.instant(
                            f"cache-hit:{unit.label or unit.kind}",
                            tracer.now_us(), PID_ENGINE, TID_ENGINE_CONTROL,
                            cat="cache", args={"index": i},
                        )
                    self._emit(unit, i, True, 0.0, len(units))
                else:
                    pending.append((i, unit, key))
        if caching:
            metrics.cache_corrupt = self.cache.stats.corrupt - corrupt0

        attempts: list[AttemptRecord] = []
        if pending:
            if coalescing:
                leaders, followers = _coalesce(pending)
            else:
                leaders, followers = pending, {}
            leader_of = {
                j: i for i, group in followers.items() for j, _ in group
            }
            eval_cm = (
                prof.phase("engine/evaluate")
                if profiling
                else contextlib.nullcontext()
            )
            with eval_cm:
                res_map, fail_map = self._evaluate_pending(
                    leaders, followers, metrics, attempts, len(units)
                )
            # ``pending`` is in submission order; absorbing worker
            # profile snapshots in that fixed order keeps the merged
            # float sums identical run to run, whatever the workers'
            # completion order was.
            for i, unit, key in pending:
                lead = leader_of.get(i)
                if lead is not None:
                    # shares its leader's outcome: no busy time, profile
                    # or cache write of its own
                    metrics.coalesced += 1
                    if tracing:
                        tracer.instant(
                            f"coalesced:{unit.label or unit.kind}",
                            tracer.now_us(), PID_ENGINE, TID_ENGINE_CONTROL,
                            cat="coalesced",
                            args={"index": i, "leader": lead},
                        )
                    if lead in res_map:
                        result, seconds, _ = res_map[lead]
                        # a private copy, as a cache hit would return
                        result = copy.deepcopy(result)
                        results[i] = result
                        outcomes[i] = UnitOutcome(
                            i, unit, False, seconds, result
                        )
                        metrics.evaluated += 1
                        if isinstance(result, dict) and result.get("degraded"):
                            metrics.degraded += 1
                    else:
                        failure = replace(fail_map[lead], index=i, unit=unit)
                        outcomes[i] = UnitOutcome(
                            i, unit, False, failure.seconds, None, failure
                        )
                        batch_failures.append(failure)
                        metrics.failed += 1
                    continue
                if i in res_map:
                    result, seconds, unit_prof = res_map[i]
                    results[i] = result
                    outcomes[i] = UnitOutcome(i, unit, False, seconds, result)
                    metrics.evaluated += 1
                    metrics.busy_seconds += seconds
                    metrics.unit_seconds.append(seconds)
                    if isinstance(result, dict) and result.get("degraded"):
                        metrics.degraded += 1
                    if profiling and unit_prof is not None:
                        prof.absorb(unit_prof, prefix="unit")
                        prof.record_unit(
                            unit.label or unit.kind,
                            seconds,
                            unit_prof.get("counters", {}).get(
                                "sim.cycles.total", 0.0
                            ),
                        )
                    self._cache_put(unit, key, result, metrics)
                else:
                    failure = fail_map[i]
                    outcomes[i] = UnitOutcome(
                        i, unit, False, failure.seconds, None, failure
                    )
                    batch_failures.append(failure)
                    metrics.failed += 1
                    metrics.busy_seconds += failure.seconds
                    if quarantining:
                        self._quarantine_unit(key, failure)

            if tracing:
                # Per-attempt spans on worker lanes, reconstructed from
                # the measured durations by greedy earliest-free-lane
                # packing — exact for jobs=1, an approximation of the
                # workers' schedule otherwise (flagged in the args).
                # Failed and retried attempts get their own spans (cat
                # "failure"/"retry") so a chaos run's trace shows where
                # the time went.
                lane_free = [batch_t0_us] * self.jobs
                for rec in attempts:
                    lane = min(range(self.jobs), key=lane_free.__getitem__)
                    dur = rec.seconds * 1e6
                    args: dict[str, Any] = {
                        "index": rec.index, "kind": rec.unit.kind,
                        "attempt": rec.attempt,
                        "reconstructed": self.jobs > 1,
                    }
                    if rec.error_class:
                        args["error_class"] = rec.error_class
                    tracer.complete(
                        rec.unit.label or rec.unit.kind,
                        lane_free[lane], dur, PID_ENGINE,
                        TID_WORKER_BASE + lane,
                        cat=_ATTEMPT_TRACE_CAT[rec.status], args=args,
                    )
                    lane_free[lane] += dur

        if tracing:
            for failure in batch_failures:
                tracer.instant(
                    f"failure:{failure.label}", tracer.now_us(),
                    PID_ENGINE, TID_ENGINE_CONTROL, cat="failure",
                    args={
                        "index": failure.index,
                        "error_class": failure.error_class,
                        "attempts": failure.attempts,
                    },
                )

        metrics.wall_seconds = time.perf_counter() - t0
        # Accounting invariant: every unit is exactly one of cache hit,
        # evaluated, failed.  A violation is an engine bug, never data.
        accounted = metrics.cache_hits + metrics.evaluated + metrics.failed
        assert accounted == metrics.total_units, (
            f"engine accounting broken: hits {metrics.cache_hits} + "
            f"evaluated {metrics.evaluated} + failed {metrics.failed} "
            f"!= total {metrics.total_units}"
        )
        self.metrics = metrics
        metrics.absorb_into(self.totals)
        self.failures = batch_failures
        self.failure_log.extend(batch_failures)
        self.last_outcomes = [o for o in outcomes if o is not None]

        if tracing:
            tracer.complete(
                "engine.run", batch_t0_us, tracer.now_us() - batch_t0_us,
                PID_ENGINE, TID_ENGINE_CONTROL, cat="batch",
                args={"units": metrics.total_units,
                      "cache_hits": metrics.cache_hits,
                      "evaluated": metrics.evaluated,
                      "coalesced": metrics.coalesced,
                      "failed": metrics.failed,
                      "retries": metrics.retries},
            )

        from ..obs.metrics import record_engine_metrics

        record_engine_metrics(metrics)
        return results

    def map(
        self, kind: str, param_sets: Sequence[dict[str, Any]]
    ) -> list[Optional[dict[str, Any]]]:
        """Convenience: build units of one kind and run them."""
        return self.run([WorkUnit.make(kind, **p) for p in param_sets])

    def close(self) -> None:
        """Kill and reap the worker processes.

        The engine stays usable: a later :meth:`run` forks new workers,
        which also see evaluators and backends registered since the
        last ones forked.
        """
        self._workers.close()

    def __enter__(self) -> "CorpusEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- execution core ------------------------------------------------

    def _evaluate_pending(
        self,
        pending: list[tuple[int, WorkUnit, Optional[str]]],
        followers: dict[int, list[tuple[int, WorkUnit]]],
        metrics: EngineMetrics,
        attempts: list[AttemptRecord],
        total: int,
    ) -> tuple[dict[int, tuple[dict, float, Optional[dict]]], dict[int, UnitFailure]]:
        """Evaluate the distinct cache misses — inline or on the
        workers — with retries; ``followers`` only receive progress
        events."""
        from .. import faults
        from ..obs.prof import active_profiler

        ctx = _RunContext(
            faults=faults.active_plan(),
            partial_results=self.error_policy != "fail_fast",
            profiling=active_profiler() is not None,
        )
        workers = self._workers
        if self.jobs == 1 and self.unit_timeout is None:
            def dispatch(tasks):
                return (_evaluate_task(t, ctx) for t in tasks)
        else:
            def dispatch(tasks):
                return workers.dispatch(tasks, ctx, self.unit_timeout)
        respawns = workers.respawns
        try:
            return self._attempt_rounds(
                pending, followers, dispatch, metrics, attempts, total
            )
        finally:
            metrics.worker_respawns += workers.respawns - respawns

    def _attempt_rounds(
        self,
        pending: list[tuple[int, WorkUnit, Optional[str]]],
        followers: dict[int, list[tuple[int, WorkUnit]]],
        dispatch: Callable[[list[tuple[int, WorkUnit, int]]], Iterator[Outcome]],
        metrics: EngineMetrics,
        attempts: list[AttemptRecord],
        total: int,
    ) -> tuple[dict[int, tuple[dict, float, Optional[dict]]], dict[int, UnitFailure]]:
        """The retry loop: dispatch rounds of attempts until every unit
        has a result or a final failure.

        Round *n* holds every unit whose attempt *n-1* failed
        transiently within the retry budget; rounds are separated by
        the policy's deterministic backoff (the maximum owed by any
        unit in the round, slept once).
        """
        state = {
            i: {"unit": u, "attempts": 0, "seconds": 0.0}
            for i, u, _ in pending
        }
        tasks: list[tuple[int, WorkUnit, int]] = [
            (i, u, 0) for i, u, _ in pending
        ]
        results: dict[int, tuple[dict, float, Optional[dict]]] = {}
        failures: dict[int, UnitFailure] = {}
        while tasks:
            retries: list[tuple[int, WorkUnit, int]] = []
            max_backoff = 0.0
            for idx, status, payload, seconds, profile in dispatch(tasks):
                st = state[idx]
                st["attempts"] += 1
                st["seconds"] += seconds
                attempt = st["attempts"] - 1
                unit = st["unit"]
                if status == "ok":
                    results[idx] = (payload, st["seconds"], profile)
                    attempts.append(
                        AttemptRecord(idx, unit, attempt, "ok", seconds)
                    )
                    self._emit_group(
                        unit, idx, followers, st["seconds"], total
                    )
                    continue
                if self.retry_policy.should_retry(attempt, payload["kind"]):
                    metrics.retries += 1
                    attempts.append(
                        AttemptRecord(
                            idx, unit, attempt, "retry", seconds,
                            payload["error_class"],
                        )
                    )
                    retries.append((idx, unit, attempt + 1))
                    max_backoff = max(
                        max_backoff, self.retry_policy.backoff_seconds(attempt)
                    )
                    continue
                attempts.append(
                    AttemptRecord(
                        idx, unit, attempt, "failure", seconds,
                        payload["error_class"],
                    )
                )
                failure = UnitFailure(
                    index=idx, unit=unit, attempts=st["attempts"],
                    error_class=payload["error_class"],
                    kind=payload["kind"], message=payload["message"],
                    traceback_repr=payload.get("traceback_repr", ""),
                    seconds=st["seconds"],
                )
                if self.error_policy == "fail_fast":
                    raise UnitEvaluationError(
                        unit,
                        f"{payload['error_class']}: {payload['message']}",
                        failure=failure,
                    )
                failures[idx] = failure
                self._emit_group(
                    unit, idx, followers, st["seconds"], total, failed=True
                )
            if retries and max_backoff > 0:
                time.sleep(max_backoff)
            tasks = retries
        return results, failures

    # -- cache + quarantine --------------------------------------------

    def _cache_put(
        self,
        unit: WorkUnit,
        key: Optional[str],
        result: dict[str, Any],
        metrics: EngineMetrics,
    ) -> None:
        """Write-back with graceful failure: a cache write that raises
        ``OSError`` is counted and logged once, never fatal — and a
        degraded (partial) result is never memoized, so a healed
        backend recomputes it fully on the next run."""
        if self.cache is None or key is None:
            return
        if isinstance(result, dict) and result.get("degraded"):
            return
        from .. import faults

        plan = faults.active_plan()
        label = unit.label or unit.kind
        try:
            if plan is not None:
                plan.fire_cache_put(label)
            self.cache.put(key, result)
        except OSError as exc:
            self.cache.stats.write_errors += 1
            metrics.cache_write_errors += 1
            if not self._warned_cache_write:
                self._warned_cache_write = True
                log.warning(
                    "result-cache write failed (%s: %s); continuing "
                    "uncached — further write failures on this engine "
                    "are absorbed silently", type(exc).__name__, exc,
                )
            return
        if plan is not None and plan.should_corrupt(label):
            with contextlib.suppress(OSError):
                self.cache._path(key).write_text('{"truncated":')

    def _quarantine_dir(self):
        if self.cache is None:
            return None
        return self.cache.root / "quarantine"

    def _load_quarantine(self) -> None:
        d = self._quarantine_dir()
        if d is None or not d.is_dir():
            return
        for p in d.glob("*.json"):
            try:
                self._quarantined[p.stem] = json.loads(p.read_text())
            except (OSError, json.JSONDecodeError):
                continue

    def _quarantine_unit(
        self, key: Optional[str], failure: UnitFailure
    ) -> None:
        if key is None:  # pragma: no cover - key always computed here
            return
        info = failure.to_json()
        self._quarantined[key] = info
        d = self._quarantine_dir()
        if d is None:
            return
        try:
            d.mkdir(parents=True, exist_ok=True)
            (d / f"{key}.json").write_text(json.dumps(info, indent=1))
        except OSError as exc:
            log.warning(
                "could not persist quarantine entry for %s (%s); "
                "quarantine remains in-memory only", failure.label, exc,
            )

    def quarantine_entries(self) -> dict[str, dict[str, Any]]:
        """The current skip-list: cache key → recorded failure info
        (a copy — mutate via :meth:`clear_quarantine`, not here).

        The CLI's ``--list-quarantine`` renders this so operators can
        see *why* units are being skipped before deciding to release
        them."""
        return {k: dict(v) for k, v in self._quarantined.items()}

    def clear_quarantine(self) -> int:
        """Forget every quarantined unit (memory and disk); returns the
        number of entries released."""
        n = len(self._quarantined)
        self._quarantined.clear()
        d = self._quarantine_dir()
        if d is not None and d.is_dir():
            for p in d.glob("*.json"):
                p.unlink(missing_ok=True)
            with contextlib.suppress(OSError):
                d.rmdir()
        return n

    # ------------------------------------------------------------------

    def _emit(
        self, unit: WorkUnit, index: int, cached: bool, seconds: float,
        total: int, failed: bool = False, coalesced: bool = False,
    ) -> None:
        self._completed += 1
        if self.progress is None:
            return
        self.progress(
            {
                "unit": unit,
                "index": index,
                "cached": cached,
                "coalesced": coalesced,
                "failed": failed,
                "seconds": seconds,
                "completed": self._completed,
                "total": total,
            }
        )

    def _emit_group(
        self, unit: WorkUnit, index: int,
        followers: dict[int, list[tuple[int, WorkUnit]]],
        seconds: float, total: int, failed: bool = False,
    ) -> None:
        """Progress for an evaluated unit and every unit that shares it."""
        self._emit(unit, index, False, seconds, total, failed=failed)
        for j, other in followers.get(index, ()):
            self._emit(other, j, False, seconds, total, failed=failed,
                       coalesced=True)


# ---------------------------------------------------------------------------
# Ambient engine: the CLI installs one; library paths pick it up without
# threading an engine argument through every render()/run() signature.
# ---------------------------------------------------------------------------

_DEFAULT_ENGINE: Optional[CorpusEngine] = None


def get_default_engine() -> CorpusEngine:
    """The ambient engine — a serial, cache-less one unless installed."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = CorpusEngine(jobs=1)
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[CorpusEngine]) -> None:
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine


@contextlib.contextmanager
def use_engine(engine: CorpusEngine):
    """Temporarily install *engine* as the ambient default."""
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    try:
        yield engine
    finally:
        _DEFAULT_ENGINE = previous


def resolve_engine(
    engine: Optional[CorpusEngine] = None,
    jobs: Optional[int] = None,
    cache: Optional[str | os.PathLike] = None,
) -> CorpusEngine:
    """Pick the engine for a library call.

    Explicit ``engine`` wins; ``jobs``/``cache`` build a one-off engine;
    otherwise the ambient default (serial unless the CLI installed one).
    """
    if engine is not None:
        return engine
    if jobs is not None or cache is not None:
        return CorpusEngine(jobs=jobs or 1, cache_dir=cache)
    return get_default_engine()
