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
3. evaluate the distinct misses — inline for ``jobs=1`` (the degenerate
   serial path, bit-identical by construction), else on a
   ``multiprocessing`` pool consumed through ``imap_unordered`` so one
   slow or dead worker never blocks the others' results,
4. write fresh results back to the cache and reassemble by index.

Failure is a first-class outcome, not an afterthought (see
``docs/robustness.md``): every attempt that raises is classified
transient/permanent (:mod:`.errors`), transient failures retry with
deterministic backoff, per-attempt deadlines cut hung units loose, a
worker that dies mid-unit is detected by watching the pool's PIDs and
its unit is retried on the respawned capacity, and the ``error_policy``
decides whether a finally-failed unit raises (``fail_fast``, the
default), is collected as a structured :class:`~.errors.UnitFailure`
(``collect``), or is additionally remembered so later batches skip it
(``quarantine``).

Metrics (per-unit wall time, cache hit rate, worker utilization,
failure/retry/degradation counters) are collected on every run; a
``progress`` hook fires once per completed unit for live reporting.
"""

from __future__ import annotations

import contextlib
import copy
import json
import logging
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Optional, Sequence

from .cache import ResultCache
from .cachekey import cache_key
from .errors import (
    ERROR_POLICIES,
    AttemptRecord,
    RetryPolicy,
    UnitFailure,
    UnitTimeoutError,
    WorkerCrashError,
    failure_payload,
)
from .evaluators import evaluate, set_partial_results
from .units import UnitOutcome, WorkUnit

log = logging.getLogger(__name__)

ProgressHook = Callable[[dict[str, Any]], None]

#: parent-side poll interval while waiting on worker results (seconds)
_POLL_SECONDS = 0.05

#: how long surviving results may keep draining after a worker death
#: before the still-missing units are declared crashed
_CRASH_DRAIN_GRACE = 2.0

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
    #: pool workers observed dead and replaced mid-batch
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
    error survives the pickle round-trip out of a worker process (an
    unpicklable cause would deadlock the pool's result handler).
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
# Worker-side machinery
# ---------------------------------------------------------------------------

#: per-attempt deadline, installed in workers by the pool initializer
#: (and set directly around the serial path)
_WORKER_TIMEOUT: Optional[float] = None

#: when True, every unit attempt runs under a fresh per-unit profiler
#: whose snapshot is shipped back with the result (set by the pool
#: initializer / serial context iff the parent has an enabled profiler)
_WORKER_PROFILING = False


def _worker_init(
    plan,
    unit_timeout: Optional[float],
    partial_results: bool,
    profiling: bool = False,
) -> None:
    """Pool-worker initializer: install the ambient engine context.

    Runs in every worker — including replacements the pool spawns after
    a crash — so fault plans, deadlines, and the degradation flag
    survive worker churn and do not depend on the fork start method.
    """
    global _WORKER_TIMEOUT, _WORKER_PROFILING
    _WORKER_TIMEOUT = unit_timeout
    _WORKER_PROFILING = bool(profiling)
    # A forked worker inherits the parent's signal state.  When the
    # parent is an asyncio daemon (repro-serve) that state is poison:
    # asyncio's no-op SIGTERM/SIGINT handlers make the worker immune to
    # ``Pool.terminate()`` (the teardown join then hangs forever), and
    # the inherited ``signal.set_wakeup_fd`` socket means any signal a
    # worker receives is *echoed into the parent's event loop*, which
    # reads it as a signal of its own (a pool teardown thus looked like
    # SIGTERM and self-drained the daemon).  Reset both.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # shutdown is coordinated by the parent (finish batch, then
    # terminate workers) — a tty Ctrl-C must not kill workers first
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from .. import faults

    faults.set_active_plan(plan)
    set_partial_results(partial_results)
    # a forked worker inherits the parent's ambient profiler object;
    # recording into that copy would be silently discarded, so clear it
    # — units profile into fresh per-attempt instances instead
    from ..obs.prof import set_active_profiler

    set_active_profiler(None)


@contextlib.contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`UnitTimeoutError` when the body outlives *seconds*.

    SIGALRM-based, so it only engages on the main thread of a POSIX
    process — pool workers qualify, and so does the serial path.  A
    hang inside uninterruptible C code escapes the alarm; the parent's
    stall watchdog (:meth:`_WorkerPool.dispatch`) is the backstop.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _alarm(signum, frame):
        raise UnitTimeoutError(seconds)

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _evaluate_task(
    task: tuple[int, WorkUnit, int],
) -> tuple[int, str, Any, float, Optional[dict]]:
    """Worker entry point: one attempt at one unit; never raises.

    Returns ``(index, status, payload, seconds, profile)`` — status
    ``"ok"`` (payload is the result dict) or ``"err"`` (payload is an
    :func:`~.errors.failure_payload` dict).  Exceptions are flattened
    to plain data *before* crossing the pickle boundary: an unpicklable
    exception in the pool's result handler would deadlock the batch.

    With ``_WORKER_PROFILING`` on, the attempt runs under a **fresh**
    :class:`~repro.obs.prof.PhaseProfiler` and its plain-dict snapshot
    rides back as ``profile`` — the parent absorbs snapshots in
    submission order, so merged attribution does not depend on which
    worker ran what (and the deterministic simulated-cycle records are
    bit-identical to a serial run).
    """
    idx, unit, attempt = task
    from .. import faults

    plan = faults.active_plan()
    t0 = time.perf_counter()
    snap: Optional[dict] = None
    try:
        with _deadline(_WORKER_TIMEOUT):
            if plan is not None:
                plan.fire_worker_site(unit.label or unit.kind, attempt)
            if _WORKER_PROFILING:
                from ..obs.prof import PhaseProfiler, use_profiler

                unit_prof = PhaseProfiler()
                with use_profiler(unit_prof):
                    result = evaluate(unit.kind, unit.params)
                snap = unit_prof.snapshot()
            else:
                result = evaluate(unit.kind, unit.params)
    except Exception as exc:
        return idx, "err", failure_payload(exc), time.perf_counter() - t0, None
    return idx, "ok", result, time.perf_counter() - t0, snap


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (workers inherit loaded models and user-registered
    kernels); fall back to the platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


class _WorkerPool:
    """A multiprocessing pool with worker-crash detection and respawn.

    ``multiprocessing.Pool`` replaces a worker that dies (SIGKILL,
    ``os._exit``, a hard native crash) — but the task that worker was
    evaluating is lost forever, and a plain ``Pool.map`` consumer hangs
    waiting for it.  This wrapper dispatches through
    ``imap_unordered`` and polls with a timeout; when the set of worker
    PIDs changes it lets the surviving results drain (``drain_grace``
    seconds of quiet) and then declares the still-missing units crashed
    so the caller can retry them on the replaced capacity.  A broken
    result transport respawns the whole pool.
    """

    drain_grace = _CRASH_DRAIN_GRACE

    def __init__(self, jobs: int, initargs: tuple):
        self.jobs = jobs
        self._initargs = initargs
        self._ctx = _pool_context()
        self.worker_deaths = 0
        self._spawn()

    def _spawn(self) -> None:
        self._pool = self._ctx.Pool(
            processes=self.jobs,
            initializer=_worker_init,
            initargs=self._initargs,
        )
        self._pids = self._worker_pids()

    def _worker_pids(self) -> set[int]:
        return {p.pid for p in self._pool._pool if p.pid is not None}

    def _check_deaths(self) -> int:
        """Workers that vanished since the last check (pool replaces
        them on its own; PIDs are never reused within the window)."""
        current = self._worker_pids()
        dead = self._pids - current
        self._pids = current
        self.worker_deaths += len(dead)
        return len(dead)

    def respawn(self) -> None:
        with contextlib.suppress(Exception):
            self._pool.terminate()
            self._pool.join()
        self._spawn()

    def close(self) -> None:
        with contextlib.suppress(Exception):
            self._pool.terminate()
            self._pool.join()

    def dispatch(
        self,
        tasks: Sequence[tuple[int, WorkUnit, int]],
        stall_timeout: Optional[float] = None,
    ) -> Iterator[tuple[int, str, Any, float, Optional[dict]]]:
        """Run one round of attempts, yielding outcomes as they land.

        Lost tasks surface as status ``"crash"`` (a worker died with
        them in flight) or ``"stall"`` (no result arrived within
        ``stall_timeout`` even though worker-side deadlines should have
        fired — the pool is wedged and gets respawned); the retry loop
        classifies both as transient.
        """
        remaining = {t[0] for t in tasks}
        it = self._pool.imap_unordered(_evaluate_task, tasks, chunksize=1)
        last_result = time.monotonic()
        crash_deadline: Optional[float] = None
        while remaining:
            try:
                rec = it.next(timeout=_POLL_SECONDS)
            except multiprocessing.TimeoutError:
                now = time.monotonic()
                if self._check_deaths():
                    crash_deadline = now + self.drain_grace
                if crash_deadline is not None and now >= crash_deadline:
                    log.warning(
                        "worker death: %d unit(s) lost in flight; "
                        "retrying on respawned capacity", len(remaining),
                    )
                    for idx in sorted(remaining):
                        yield idx, "crash", None, 0.0, None
                    return
                if (
                    stall_timeout is not None
                    and now - last_result > stall_timeout
                ):
                    log.warning(
                        "pool made no progress for %.1f s with %d unit(s) "
                        "outstanding; respawning pool", stall_timeout,
                        len(remaining),
                    )
                    self.respawn()
                    for idx in sorted(remaining):
                        yield idx, "stall", None, 0.0, None
                    return
                continue
            except (OSError, EOFError):  # pragma: no cover - torn pipe
                self.respawn()
                for idx in sorted(remaining):
                    yield idx, "crash", None, 0.0, None
                return
            remaining.discard(rec[0])
            last_result = time.monotonic()
            if crash_deadline is not None:
                # results still flowing — keep draining survivors
                crash_deadline = last_result + self.drain_grace
            yield rec


def _dispatch_serial(
    tasks: Sequence[tuple[int, WorkUnit, int]],
    stall_timeout: Optional[float] = None,
) -> Iterator[tuple[int, str, Any, float, Optional[dict]]]:
    """The inline (``jobs=1``) dispatch path — same contract, no pool."""
    for task in tasks:
        yield _evaluate_task(task)


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
        Worker-process count; ``1`` (default) runs inline with no pool,
        producing results bit-identical to any parallel run.
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
        Per-attempt deadline in seconds; a unit running past it raises
        :class:`~.errors.UnitTimeoutError` in the worker (transient,
        so it is retried within budget).  ``None`` disables deadlines.
    serial_fallback:
        With ``jobs > 1``, a batch containing a *single* cache miss is
        normally evaluated inline (default ``True`` — the pool fork
        would cost more than the unit).  Inline evaluation runs in the
        calling process: a crashing unit takes the caller down with it
        and SIGALRM deadlines cannot arm off the main thread.  Hosts
        that must contain arbitrary unit failures — the serving
        daemon — pass ``False`` to force every evaluation through
        worker processes regardless of batch size.

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
        serial_fallback: bool = True,
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
        self.serial_fallback = serial_fallback
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
        tracing = tracer is not None and tracer.enabled
        from ..obs.prof import active_profiler

        prof = active_profiler()
        profiling = prof is not None and prof.enabled
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
            # float sums identical run to run, whatever the pool's
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
                # pool's schedule otherwise (flagged in the args).
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

    # -- execution core ------------------------------------------------

    def _evaluate_pending(
        self,
        pending: list[tuple[int, WorkUnit, Optional[str]]],
        followers: dict[int, list[tuple[int, WorkUnit]]],
        metrics: EngineMetrics,
        attempts: list[AttemptRecord],
        total: int,
    ) -> tuple[dict[int, tuple[dict, float, Optional[dict]]], dict[int, UnitFailure]]:
        """Evaluate the distinct cache misses — inline or pooled — with
        retries; ``followers`` only receive progress events."""
        if self.jobs == 1 or (self.serial_fallback and len(pending) == 1):
            with self._serial_state():
                return self._attempt_rounds(
                    pending, followers, _dispatch_serial, None, metrics,
                    attempts, total,
                )
        from .. import faults
        from ..obs.prof import active_profiler

        prof = active_profiler()
        wp = _WorkerPool(
            self.jobs,
            (
                faults.active_plan(),
                self.unit_timeout,
                self.error_policy != "fail_fast",
                prof is not None and prof.enabled,
            ),
        )
        try:
            return self._attempt_rounds(
                pending, followers, wp.dispatch, self._stall_timeout(),
                metrics, attempts, total,
            )
        finally:
            metrics.worker_respawns += wp.worker_deaths
            wp.close()

    def _attempt_rounds(
        self,
        pending: list[tuple[int, WorkUnit, Optional[str]]],
        followers: dict[int, list[tuple[int, WorkUnit]]],
        dispatch: Callable[..., Iterator[tuple[int, str, Any, float]]],
        stall_timeout: Optional[float],
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
            for idx, status, payload, seconds, profile in dispatch(
                tasks, stall_timeout
            ):
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
                if status == "crash":
                    payload = {
                        "error_class": WorkerCrashError.__name__,
                        "kind": "transient",
                        "message": "worker process died with the unit "
                                   "in flight; pool capacity respawned",
                        "traceback_repr": "",
                    }
                elif status == "stall":
                    payload = {
                        "error_class": UnitTimeoutError.__name__,
                        "kind": "transient",
                        "message": "no pool progress within the stall "
                                   "deadline; pool respawned",
                        "traceback_repr": "",
                    }
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

    @contextlib.contextmanager
    def _serial_state(self) -> Iterator[None]:
        """Install worker-side context for the inline path."""
        global _WORKER_TIMEOUT, _WORKER_PROFILING
        from .evaluators import partial_results_enabled
        from ..obs.prof import active_profiler

        prev_timeout = _WORKER_TIMEOUT
        prev_partial = partial_results_enabled()
        prev_profiling = _WORKER_PROFILING
        _WORKER_TIMEOUT = self.unit_timeout
        prof = active_profiler()
        _WORKER_PROFILING = prof is not None and prof.enabled
        set_partial_results(self.error_policy != "fail_fast")
        try:
            yield
        finally:
            _WORKER_TIMEOUT = prev_timeout
            _WORKER_PROFILING = prev_profiling
            set_partial_results(prev_partial)

    def _stall_timeout(self) -> Optional[float]:
        """Parent-side no-progress deadline (backstop for hangs the
        worker alarm cannot interrupt).  With worker deadlines enabled,
        *some* result must land every ``unit_timeout`` seconds; quiet
        beyond that plus grace means the pool is wedged."""
        if self.unit_timeout is None:
            return None
        return self.unit_timeout + max(2.0, self.unit_timeout)

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
