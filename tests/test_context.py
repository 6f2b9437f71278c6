"""The run context: one frozen record of what a run observes and
injects, installed with ``use_context`` and read with
``current_context`` — inline, from other threads, and in the engine's
workers."""

import dataclasses
import os
import threading

import pytest

from repro.context import current_context, use_context
from repro.engine import CorpusEngine, UnitEvaluationError, WorkUnit
from repro.engine.evaluators import evaluator
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import PhaseProfiler
from repro.obs.trace import Tracer


# -- module-local evaluator kinds (registry is global; unique names) ----

@evaluator("ctxtest_probe")
def _probe(p):
    """Report what an attempt sees of the run context."""
    ctx = current_context()
    prof = ctx.profiler
    fresh = prof is not None and not (prof.phases or prof.counters)
    if prof is not None:
        prof.add_counter("ctxtest.attempts", 1.0)
    return {
        "pid": os.getpid(),
        "tracer": ctx.tracer is not None,
        "engine": ctx.engine is not None,
        "fresh_profiler": fresh,
    }


@evaluator("ctxtest_double")
def _double(p):
    return {"v": p["x"] * 2}


@evaluator("ctxtest_bad")
def _bad(p):
    raise ValueError(f"bad input {p['x']}")


def _units(kind, n):
    return [WorkUnit.make(kind, label=f"c{i}", x=i) for i in range(n)]


class TestUseContext:
    def test_default_holds_the_process_registry(self):
        ctx = current_context()
        assert isinstance(ctx.metrics, MetricsRegistry)
        assert ctx.tracer is ctx.profiler is ctx.faults is ctx.engine is None
        assert ctx.partial_results is False

    def test_nests_and_restores(self):
        base = current_context()
        t1, t2 = Tracer(), Tracer()
        with use_context(tracer=t1) as outer:
            assert current_context() is outer and outer.tracer is t1
            with use_context(tracer=t2, partial_results=True) as inner:
                assert current_context() is inner
                assert inner.tracer is t2 and inner.partial_results
                # fields not named carry over
                assert inner.metrics is base.metrics
            assert current_context() is outer
        assert current_context() is base

    def test_restores_when_the_body_raises(self):
        base = current_context()
        with pytest.raises(RuntimeError):
            with use_context(profiler=PhaseProfiler()):
                with use_context(faults=FaultPlan()):
                    raise RuntimeError("boom")
        assert current_context() is base

    def test_context_is_frozen_and_names_are_checked(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            current_context().tracer = Tracer()
        with pytest.raises(TypeError):
            with use_context(tracr=Tracer()):
                pass

    def test_seen_from_another_thread(self):
        # a ContextVar would give the other thread the default context
        plan = FaultPlan()
        seen = []
        with use_context(faults=plan):
            t = threading.Thread(
                target=lambda: seen.append(current_context().faults)
            )
            t.start()
            t.join(timeout=10)
        assert not t.is_alive()
        assert len(seen) == 1 and seen[0] is plan


class TestEngineLeavesTheContext:
    def test_same_object_after_inline_pooled_and_raising_batches(self):
        before = current_context()
        CorpusEngine(jobs=1, error_policy="collect", retry_backoff=0.0).run(
            _units("ctxtest_double", 2) + _units("ctxtest_bad", 3)[2:]
        )
        assert current_context() is before
        with CorpusEngine(jobs=2) as eng:
            assert eng.run(_units("ctxtest_double", 3))[2] == {"v": 4}
        assert current_context() is before
        with pytest.raises(UnitEvaluationError):
            CorpusEngine(jobs=1).run(_units("ctxtest_bad", 1))
        assert current_context() is before

    def test_worker_sees_no_tracer_only_its_own_fresh_profiler(self):
        tracer, prof = Tracer(), PhaseProfiler()
        units = _units("ctxtest_probe", 4)
        with CorpusEngine(jobs=2) as eng:
            with use_context(tracer=tracer, profiler=prof, engine=eng):
                results = eng.run(units)
        assert all(r["pid"] != os.getpid() for r in results)
        assert not any(r["tracer"] or r["engine"] for r in results)
        assert all(r["fresh_profiler"] for r in results)
        # every attempt's profile rode back and was absorbed once
        assert prof.counters["ctxtest.attempts"] == len(units)
        # the parent's tracer recorded the batch
        assert any(e.get("cat") == "batch" for e in tracer.events)

    def test_inline_attempt_keeps_the_tracer_and_gets_a_fresh_profiler(self):
        tracer, prof = Tracer(), PhaseProfiler()
        with use_context(tracer=tracer, profiler=prof):
            results = CorpusEngine(jobs=1).run(_units("ctxtest_probe", 2))
        assert all(r["pid"] == os.getpid() for r in results)
        assert all(r["tracer"] and r["fresh_profiler"] for r in results)
        assert prof.counters["ctxtest.attempts"] == 2
