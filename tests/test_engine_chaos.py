"""Chaos suite: the engine under injected partial failure.

Every test here provokes a failure mode through the deterministic
fault-injection harness (``repro.faults``) — evaluator exceptions at a
rate, worker kills, hangs past the unit deadline, cache write failures
— and asserts the engine's contract holds: batches complete (no
hangs), surviving results are bit-identical to a clean serial run,
failures surface as structured records, and the accounting invariant
``hits + evaluated + failed == total`` never breaks.

Marked ``chaos``: run via ``make test-chaos`` (or ``make test``);
excluded from the ``make test-fast`` developer loop because worker
kills and hangs cost real seconds.
"""

import gc
import os
import signal
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.bench import fig3
from repro.engine import CorpusEngine, WorkUnit
from repro.engine.evaluators import evaluator
from repro.faults import FaultPlan, FaultSpec

pytestmark = pytest.mark.chaos


@evaluator("chaos_work")
def _work(p):
    # deterministic, mildly non-trivial (float math must replay exactly)
    x = float(p["x"])
    return {"v": x * 1.5 + 0.125, "sq": x * x}


@evaluator("chaos_sigkill")
def _sigkill(p):
    # hard-kill the worker on the first attempt only: a marker file
    # records that the kill already happened, so the retry succeeds
    marker = p["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"v": "survived"}


@evaluator("chaos_sleep")
def _sleep(p):
    if "pidfile" in p:
        with open(p["pidfile"], "w") as fh:
            fh.write(str(os.getpid()))
    time.sleep(p["seconds"])
    if p.get("fail"):
        raise ValueError("told to fail")
    return {"slept": p["seconds"]}


@evaluator("chaos_pid")
def _pid(p):
    return {"pid": os.getpid()}


@evaluator("chaos_memo")
def _memo(p):
    from repro import lowering

    lowering.lower(p["assembly"], "zen4")
    return {"memo": lowering.memo_len()}


def _units(n):
    return [WorkUnit.make("chaos_work", label=f"w{i}", x=i) for i in range(n)]


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestFaultRateSweep:
    """The acceptance scenario: jobs=4, 10 % evaluator faults, collect."""

    RATE, SEED, N = 0.1, 1234, 40

    def _plan(self):
        return FaultPlan(
            [FaultSpec(site="evaluate", rate=self.RATE,
                       error_type="permanent")],
            seed=self.SEED,
        )

    def test_survivors_bit_identical_to_clean_serial(self):
        units = _units(self.N)
        clean = CorpusEngine(jobs=1).run(units)
        with faults.use_plan(self._plan()):
            eng = CorpusEngine(
                jobs=4, error_policy="collect", retry_backoff=0.001
            )
            chaotic = eng.run(units)
        faulted = {
            i for i, u in enumerate(units)
            if self._plan().would_fault("evaluate", u.label)
        }
        assert faulted, "seed must fault at least one unit"
        assert len(faulted) < self.N, "seed must not fault every unit"
        for i in range(self.N):
            if i in faulted:
                assert chaotic[i] is None
            else:
                assert chaotic[i] == clean[i]  # bit-identical dicts

    def test_structured_failures_with_attempt_counts(self):
        units = _units(self.N)
        with faults.use_plan(self._plan()):
            eng = CorpusEngine(
                jobs=4, error_policy="collect", max_retries=2,
                retry_backoff=0.001,
            )
            eng.run(units)
        assert eng.failures
        for f in eng.failures:
            assert f.error_class == "InjectedPermanentFault"
            assert f.kind == "permanent"
            assert f.attempts == 1  # permanent faults burn no retries
            assert f.traceback_repr  # carried across the pickle boundary
        m = eng.metrics
        assert m.cache_hits + m.evaluated + m.failed == m.total_units
        assert m.failed == len(eng.failures)

    def test_transient_rate_heals_under_retry(self):
        # same 10% schedule but transient and healing after attempt 0:
        # every unit must succeed, retries must be counted
        plan = FaultPlan(
            [FaultSpec(site="evaluate", rate=self.RATE, attempts=(0,))],
            seed=self.SEED,
        )
        units = _units(self.N)
        clean = CorpusEngine(jobs=1).run(units)
        with faults.use_plan(plan):
            eng = CorpusEngine(
                jobs=4, error_policy="collect", retry_backoff=0.001
            )
            out = eng.run(units)
        assert out == clean
        assert eng.metrics.failed == 0
        expected_retries = sum(
            plan.would_fault("evaluate", u.label, 0) for u in units
        )
        assert eng.metrics.retries == expected_retries > 0

    def test_real_corpus_slice_under_faults(self):
        """Fig. 3 work units under a 10 % fault rate: surviving corpus
        entries keep their exact clean-serial numbers and the benchmark
        layer skips the failed ones instead of crashing."""
        corpus = fig3.enumerate_corpus(
            machines=("genoa",), kernels=("striad",)
        )
        units = fig3.corpus_units(corpus, iterations=30)
        clean = CorpusEngine(jobs=1).run(units)
        plan = FaultPlan(
            [FaultSpec(site="evaluate", rate=0.25, error_type="permanent")],
            seed=7,
        )
        with faults.use_plan(plan):
            eng = CorpusEngine(
                jobs=4, error_policy="collect", retry_backoff=0.001
            )
            chaotic = eng.run(units)
        survivors = 0
        for i, u in enumerate(units):
            if plan.would_fault("evaluate", u.label):
                assert chaotic[i] is None
            else:
                assert chaotic[i] == clean[i]
                survivors += 1
        assert survivors and eng.failures


class TestWorkerKill:
    def test_os_exit_victim_retried_and_batch_completes(self):
        plan = FaultPlan(
            [FaultSpec(site="exit", match="w3", attempts=(0,))]
        )
        units = _units(10)
        clean = CorpusEngine(jobs=1).run(units)
        with faults.use_plan(plan):
            eng = CorpusEngine(
                jobs=4, error_policy="collect", retry_backoff=0.001
            )
            t0 = time.monotonic()
            out = eng.run(units)
            elapsed = time.monotonic() - t0
        assert out == clean  # victim healed on respawned capacity
        assert eng.metrics.failed == 0
        assert eng.metrics.worker_respawns >= 1
        assert eng.metrics.retries >= 1
        assert elapsed < 30, "worker kill must not stall the batch"

    def test_sigkill_victim_retried_and_batch_completes(self, tmp_path):
        marker = str(tmp_path / "killed-once")
        units = [
            WorkUnit.make("chaos_work", label=f"w{i}", x=i) for i in range(6)
        ] + [WorkUnit.make("chaos_sigkill", label="victim", marker=marker)]
        eng = CorpusEngine(jobs=4, error_policy="collect", retry_backoff=0.001)
        out = eng.run(units)
        assert out[-1] == {"v": "survived"}
        assert out[:6] == CorpusEngine(jobs=1).run(units[:6])
        assert eng.metrics.worker_respawns >= 1
        assert os.path.exists(marker)

    def test_kill_without_retry_budget_reports_crash(self):
        plan = FaultPlan([FaultSpec(site="exit", match="w2")])
        units = _units(8)
        with faults.use_plan(plan):
            eng = CorpusEngine(
                jobs=4, error_policy="collect", max_retries=0
            )
            out = eng.run(units)
        assert out[2] is None
        (f,) = eng.failures
        assert f.error_class == "WorkerCrashError"
        assert f.kind == "transient" and f.attempts == 1
        # everything else still completed
        assert sum(r is not None for r in out) == 7

    def test_fail_fast_raises_on_unrecoverable_crash(self):
        from repro.engine import UnitEvaluationError

        plan = FaultPlan([FaultSpec(site="exit", match="w1")])
        with faults.use_plan(plan):
            eng = CorpusEngine(jobs=4, max_retries=0)
            with pytest.raises(UnitEvaluationError, match="WorkerCrashError"):
                eng.run(_units(6))

    def test_fail_fast_reaps_the_abandoned_round(self, tmp_path):
        from repro.engine import UnitEvaluationError

        pidfile = tmp_path / "sleeper.pid"
        units = [
            WorkUnit.make("chaos_sleep", label="sleeper", seconds=60.0,
                          pidfile=str(pidfile)),
            # fails (permanently) once the sleeper is surely asleep
            WorkUnit.make("chaos_sleep", label="bad", seconds=0.5, fail=True),
        ]
        eng = CorpusEngine(jobs=2, max_retries=0)
        t0 = time.monotonic()
        with pytest.raises(UnitEvaluationError, match="told to fail"):
            eng.run(units)
        assert time.monotonic() - t0 < 30, "fail_fast waited for the sleeper"
        _assert_reaped([int(pidfile.read_text())])
        eng.close()

    def test_single_unit_crash_contained(self):
        # with jobs > 1 even a single-miss batch runs in a worker, so an
        # exit fault is one structured failure, not a dead host
        plan = FaultPlan([FaultSpec(site="exit", match="w0")])
        with faults.use_plan(plan):
            eng = CorpusEngine(jobs=2, error_policy="collect", max_retries=0)
            out = eng.run(_units(1))
        assert out == [None]
        (f,) = eng.failures
        assert f.error_class == "WorkerCrashError"
        # and the engine keeps working afterwards
        with faults.use_plan(FaultPlan()):
            assert eng.run(_units(1)) == CorpusEngine(jobs=1).run(_units(1))

    def test_crash_fails_only_the_victim(self):
        # the bystander is still running long after the victim's worker
        # died; it was never in the dead worker's hands
        plan = FaultPlan([FaultSpec(site="exit", match="victim")])
        units = [
            WorkUnit.make("chaos_sleep", label="bystander", seconds=3.0),
            WorkUnit.make("chaos_work", label="victim", x=1),
        ]
        with faults.use_plan(plan):
            eng = CorpusEngine(jobs=2, error_policy="collect", max_retries=0)
            out = eng.run(units)
        assert out[0] == {"slept": 3.0}
        (f,) = eng.failures
        assert f.index == 1 and f.error_class == "WorkerCrashError"
        assert eng.metrics.worker_respawns == 1


class TestHangTimeout:
    def test_hang_converts_to_timeout_failure(self):
        plan = FaultPlan(
            [FaultSpec(site="hang", match="w4", hang_seconds=60.0)]
        )
        units = _units(8)
        with faults.use_plan(plan):
            eng = CorpusEngine(
                jobs=4, error_policy="collect", max_retries=0,
                unit_timeout=0.3,
            )
            t0 = time.monotonic()
            out = eng.run(units)
            elapsed = time.monotonic() - t0
        assert out[4] is None
        (f,) = eng.failures
        assert f.error_class == "UnitTimeoutError"
        assert f.kind == "transient"
        assert elapsed < 10, "deadline must cut the hang loose"

    def test_hang_heals_on_retry(self):
        plan = FaultPlan(
            [FaultSpec(site="hang", match="w4", hang_seconds=60.0,
                       attempts=(0,))]
        )
        units = _units(8)
        clean = CorpusEngine(jobs=1).run(units)
        with faults.use_plan(plan):
            eng = CorpusEngine(
                jobs=4, error_policy="collect", retry_backoff=0.001,
                unit_timeout=0.3,
            )
            out = eng.run(units)
        assert out == clean
        assert eng.metrics.retries >= 1 and eng.metrics.failed == 0

    def test_serial_path_honors_deadline_too(self):
        plan = FaultPlan(
            [FaultSpec(site="hang", match="w1", hang_seconds=60.0)]
        )
        with faults.use_plan(plan):
            eng = CorpusEngine(
                jobs=1, error_policy="collect", max_retries=0,
                unit_timeout=0.3,
            )
            t0 = time.monotonic()
            out = eng.run(_units(3))
            elapsed = time.monotonic() - t0
        assert out[1] is None and elapsed < 10
        assert eng.failures[0].error_class == "UnitTimeoutError"

    def test_deadline_holds_off_the_main_thread(self):
        # the serving daemon runs its engine on an executor thread
        plan = FaultPlan(
            [FaultSpec(site="hang", match="w1", hang_seconds=4.0)]
        )
        box = {}
        with faults.use_plan(plan):
            eng = CorpusEngine(
                jobs=1, error_policy="collect", max_retries=0,
                unit_timeout=0.3,
            )
            thread = threading.Thread(
                target=lambda: box.update(out=eng.run(_units(3)))
            )
            t0 = time.monotonic()
            thread.start()
            thread.join(30)
            elapsed = time.monotonic() - t0
        assert not thread.is_alive()
        assert box["out"][1] is None
        assert box["out"][0] == {"v": 0.125, "sq": 0.0}
        (f,) = eng.failures
        assert f.error_class == "UnitTimeoutError"
        assert elapsed < 3, "the deadline must cut the 4 s hang short"


class TestWorkerLifecycle:
    @staticmethod
    def _pids(eng):
        units = [WorkUnit.make("chaos_pid", label=f"p{i}", i=i)
                 for i in range(2)]
        return {r["pid"] for r in eng.run(units)}

    def test_close_reaps_workers_and_a_later_run_respawns(self):
        eng = CorpusEngine(jobs=2)
        pids = self._pids(eng)
        assert pids and os.getpid() not in pids
        eng.close()
        _assert_reaped(pids)
        again = self._pids(eng)
        assert again and not again & pids
        eng.close()
        _assert_reaped(again)

    def test_with_exit_reaps_workers(self):
        with CorpusEngine(jobs=2) as eng:
            pids = self._pids(eng)
        _assert_reaped(pids)

    def test_dropped_engine_leaves_no_live_worker(self):
        eng = CorpusEngine(jobs=2)
        pids = self._pids(eng)
        del eng
        gc.collect()
        _assert_reaped(pids)

    def test_worker_dead_while_idle_is_replaced_without_charge(self):
        eng = CorpusEngine(jobs=1, unit_timeout=30.0, max_retries=0,
                           error_policy="collect")
        (pid,) = self._pids(eng)
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
        out = eng.run(_units(2))
        assert out == CorpusEngine(jobs=1).run(_units(2))
        m = eng.metrics
        assert m.failed == 0 and m.retries == 0 and m.worker_respawns == 1
        eng.close()

    def test_workers_keep_no_lowering_memo_between_tasks(self):
        units = [
            WorkUnit.make("chaos_memo", label=f"m{i}",
                          assembly=f"vaddpd %ymm{i}, %ymm1, %ymm2\n")
            for i in range(3)
        ]
        # a deadline sends jobs=1 evaluation to a worker
        out = CorpusEngine(jobs=1, unit_timeout=30.0).run(units)
        assert [r["memo"] for r in out] == [1, 1, 1]


class TestCacheFaults:
    def test_write_failures_absorbed_at_jobs_4(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="cache.put", match="w2")])
        units = _units(8)
        with faults.use_plan(plan):
            eng = CorpusEngine(jobs=4, cache_dir=tmp_path / "c")
            out = eng.run(units)
        assert out == CorpusEngine(jobs=1).run(units)
        assert eng.metrics.cache_write_errors == 1
        assert eng.cache.stats.puts == 7  # the others landed

    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="cache.corrupt", match="w5")])
        units = _units(8)
        with faults.use_plan(plan):
            CorpusEngine(jobs=1, cache_dir=tmp_path / "c").run(units)
        eng = CorpusEngine(jobs=1, cache_dir=tmp_path / "c")
        out = eng.run(units)
        assert out == CorpusEngine(jobs=1).run(units)
        assert eng.metrics.cache_corrupt == 1
        assert eng.metrics.cache_hits == 7 and eng.metrics.evaluated == 1
        assert len(eng.cache.corrupt_entries()) == 1
        m = eng.metrics
        assert m.cache_hits + m.evaluated + m.failed == m.total_units


class TestScheduleInvariants:
    """Property: *any* fault schedule preserves ordering + accounting."""

    @given(
        seed=st.integers(0, 2**16),
        rate=st.floats(0.0, 1.0),
        error_type=st.sampled_from(["transient", "permanent"]),
        n=st.integers(1, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_collect_invariants_hold(self, seed, rate, error_type, n):
        plan = FaultPlan(
            [FaultSpec(site="evaluate", rate=rate, error_type=error_type)],
            seed=seed,
        )
        units = _units(n)
        with faults.use_plan(plan):
            eng = CorpusEngine(
                jobs=1, error_policy="collect", max_retries=1,
                retry_backoff=0.0,
            )
            out = eng.run(units)
        m = eng.metrics
        # accounting
        assert m.cache_hits + m.evaluated + m.failed == m.total_units == n
        assert m.failed == len(eng.failures)
        # ordering/alignment: index i is unit i's result or a failure
        failed_idx = {f.index for f in eng.failures}
        for i, u in enumerate(units):
            if i in failed_idx:
                assert out[i] is None
            else:
                assert out[i] == {"v": i * 1.5 + 0.125, "sq": float(i * i)}
        # transient faults fire on attempts 0 AND 1 here only when the
        # draw says so; whatever happened, failures are structured
        for f in eng.failures:
            assert f.attempts >= 1 and f.error_class.startswith("Injected")

    @given(seed=st.integers(0, 2**16), rate=st.floats(0.05, 0.5))
    @settings(max_examples=10, deadline=None)
    def test_schedule_replays_identically(self, seed, rate):
        spec = FaultSpec(site="evaluate", rate=rate, error_type="permanent")
        units = _units(10)

        def run_once():
            with faults.use_plan(FaultPlan([spec], seed=seed)):
                eng = CorpusEngine(
                    jobs=1, error_policy="collect", retry_backoff=0.0
                )
                out = eng.run(units)
            return out, sorted(f.index for f in eng.failures)

        assert run_once() == run_once()
