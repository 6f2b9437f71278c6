"""Coalescing: units that share a content key are keyed, looked up and
evaluated once per batch.

A batch is grouped by cache key before the cache is read: each distinct
unit is keyed once, the first unit with each key leads, and every later
one receives a private copy of its leader's outcome — a cache hit (and
counts as one) or an evaluation (and counts as coalesced).  These tests
pin the contract: results identical to evaluating every unit on its
own, one key per distinct unit, one cache read and one evaluation per
key at every ``jobs``, accounting that still adds up, failures that fan
out to every unit of the group, and the two exceptions — units without
a key, and active fault plans.
"""

import os

import pytest

import repro.engine.pool
from repro.bench.fig3 import corpus_units
from repro.context import use_context
from repro.engine import CorpusEngine, UnitEvaluationError, WorkUnit, cache_key
from repro.engine.evaluators import evaluate, evaluator
from repro.faults import FaultPlan, FaultSpec
from repro.kernels import enumerate_corpus
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

# -- module-local evaluator kinds (registry is global; unique names) ----


@evaluator("coalesce_count")
def _count(p):
    # one line per evaluation, from whichever process ran it
    with open(p["log"], "a") as fh:
        fh.write(f"{os.getpid()}\n")
    if p["x"] < 0:
        raise ValueError(f"negative input {p['x']}")
    return {"v": p["x"] * 1.5, "items": [p["x"], p["x"] + 1]}


def _units(log, xs):
    return [
        WorkUnit.make("coalesce_count", label=f"u{i}", log=str(log), x=x)
        for i, x in enumerate(xs)
    ]


def _evaluations(log):
    return log.read_text().split() if log.exists() else []


XS = [1, 2, 1, 3, 2, 1]  # 6 units, 3 distinct keys


@pytest.fixture
def key_calls(monkeypatch):
    """Count the engine's ``cache_key`` calls."""
    calls = []
    original = repro.engine.pool.cache_key

    def counting(unit, *args, **kwargs):
        calls.append(unit)
        return original(unit, *args, **kwargs)

    monkeypatch.setattr(repro.engine.pool, "cache_key", counting)
    return calls


class TestOneEvaluationPerKey:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicates_evaluated_once(self, tmp_path, jobs):
        log = tmp_path / "evals.log"
        units = _units(log, XS)
        eng = CorpusEngine(jobs=jobs)
        out = eng.run(units)
        assert len(_evaluations(log)) == 3
        assert out == [evaluate(u.kind, u.params) for u in units]
        m = eng.metrics
        assert (m.evaluated, m.coalesced, m.failed) == (6, 3, 0)
        assert m.cache_hits + m.evaluated + m.failed == m.total_units
        # busy time and per-unit timings cover real evaluations only
        assert len(m.unit_seconds) == 3
        assert m.busy_seconds == pytest.approx(sum(m.unit_seconds))

    def test_results_are_private_copies(self, tmp_path):
        # a cold batch (the follower shares an evaluation), then a warm
        # one (the follower shares a cache hit)
        eng = CorpusEngine(jobs=1, cache_dir=tmp_path / "cache")
        units = _units(tmp_path / "l", [4, 4])
        for hits in (0, 2):
            out = eng.run(units)
            assert eng.metrics.cache_hits == hits
            assert out[0] == out[1] and out[0] is not out[1]
            out[0]["items"].append(99)
            assert out[1]["items"] == [4, 5]

    def test_outcomes_report_the_shared_evaluation(self, tmp_path):
        eng = CorpusEngine(jobs=1)
        eng.run(_units(tmp_path / "l", XS))
        lead, follower = eng.last_outcomes[0], eng.last_outcomes[2]
        assert follower.seconds == lead.seconds and not follower.cached
        assert follower.result == lead.result

    def test_one_cache_write_per_key(self, tmp_path):
        log = tmp_path / "evals.log"
        eng = CorpusEngine(jobs=2, cache_dir=tmp_path / "cache")
        eng.run(_units(log, XS))
        assert eng.cache.stats.puts == 3 and len(eng.cache) == 3
        eng.run(_units(log, XS))
        assert eng.metrics.cache_hits == 6 and eng.metrics.coalesced == 0
        assert eng.cache.stats.hits == 3  # one read per key
        assert len(_evaluations(log)) == 3

    @pytest.mark.parametrize("cached", [False, True])
    def test_one_key_per_distinct_unit(self, tmp_path, key_calls, cached):
        eng = CorpusEngine(
            jobs=1, cache_dir=tmp_path / "cache" if cached else None
        )
        units = _units(tmp_path / "l", XS)
        eng.run(units)
        assert len(key_calls) == len(set(units)) == 3

    def test_followers_of_a_hit_are_hits(self, tmp_path):
        log = tmp_path / "evals.log"
        eng = CorpusEngine(jobs=1, cache_dir=tmp_path / "cache")
        eng.run(_units(log, XS))
        events, tracer = [], Tracer()
        eng.progress = events.append
        with use_context(tracer=tracer):
            out = eng.run(_units(log, XS))
        assert out == [evaluate(u.kind, u.params) for u in _units(log, XS)]
        m = eng.metrics
        assert (m.cache_hits, m.evaluated, m.coalesced) == (6, 0, 0)
        assert [e["index"] for e in events] == list(range(6))
        assert all(e["cached"] and not e["coalesced"] for e in events)
        marks = [
            e["args"]["index"] for e in tracer.events
            if e.get("name", "").startswith("cache-hit:")
        ]
        assert marks == list(range(6))
        assert all(o.cached for o in eng.last_outcomes)

    def test_comment_variants_coalesce_without_a_cache(self):
        asm = "vaddpd %ymm0, %ymm1, %ymm2\nvmulpd %ymm2, %ymm3, %ymm4\n"
        noisy = "# compiler banner\n  " + asm.replace(", ", ",  ") + "\n"
        units = [
            WorkUnit.make("predict", label=label, backend="sim", uarch="zen4",
                          assembly=text, opts={"iterations": 10, "warmup": 2})
            for label, text in (("plain", asm), ("noisy", noisy))
        ]
        assert cache_key(units[0]) == cache_key(units[1])
        eng = CorpusEngine(jobs=1)
        out = eng.run(units)
        assert eng.metrics.coalesced == 1
        assert out[0] == out[1] == evaluate("predict", units[1].params)


class TestFig3Corpus:
    def test_slice_bit_identical_to_per_unit_evaluation(self):
        units = corpus_units(
            enumerate_corpus(machines=("spr", "genoa"), kernels=("striad",)),
            iterations=30,
        )
        keys = {cache_key(u) for u in units}
        assert len(keys) < len(units)  # the corpus does repeat blocks
        eng = CorpusEngine(jobs=2)
        out = eng.run(units)
        assert out == [evaluate(u.kind, u.params) for u in units]
        assert eng.metrics.coalesced == len(units) - len(keys)
        assert len(eng.metrics.unit_seconds) == len(keys)


class TestFailures:
    def test_failure_fans_out_to_every_unit_of_the_group(self, tmp_path):
        log = tmp_path / "evals.log"
        eng = CorpusEngine(jobs=2, error_policy="collect")
        out = eng.run(_units(log, [-1, 5, -1, -1]))
        assert out[0] is None and out[2] is None and out[3] is None
        assert out[1] == {"v": 7.5, "items": [5, 6]}
        assert len(_evaluations(log)) == 2
        assert [f.index for f in eng.failures] == [0, 2, 3]
        assert [f.label for f in eng.failures] == ["u0", "u2", "u3"]
        assert {f.error_class for f in eng.failures} == {"ValueError"}
        m = eng.metrics
        assert (m.evaluated, m.failed, m.coalesced) == (1, 3, 2)
        assert m.cache_hits + m.evaluated + m.failed == m.total_units

    def test_fail_fast_raises_for_the_leader(self, tmp_path):
        with pytest.raises(UnitEvaluationError, match="u0"):
            CorpusEngine(jobs=1).run(_units(tmp_path / "l", [-1, -1]))

    def test_quarantine_records_the_key_once(self, tmp_path):
        log = tmp_path / "evals.log"
        eng = CorpusEngine(
            jobs=1, cache_dir=tmp_path / "cache", error_policy="quarantine"
        )
        eng.run(_units(log, [-2, -2, -2]))
        assert len(eng.quarantine_entries()) == 1
        assert eng.metrics.failed == 3
        eng.run(_units(log, [-2, -2]))
        assert eng.metrics.failed == 2
        assert len(_evaluations(log)) == 1  # the later batch was skipped

    def test_unkeyable_units_are_evaluated_alone(self):
        # no model digest for an unknown name: no key, no coalescing,
        # and each unit fails in the worker as it did uncoalesced
        units = [
            WorkUnit.make("predict", label=f"b{i}", backend="sim",
                          uarch="no-such-cpu", assembly="nop",
                          opts={"iterations": 5, "warmup": 1})
            for i in range(2)
        ]
        eng = CorpusEngine(jobs=1, error_policy="collect")
        assert eng.run(units) == [None, None]
        assert eng.metrics.coalesced == 0 and eng.metrics.failed == 2
        assert [f.attempts for f in eng.failures] == [1, 1]

    def test_fault_plan_disables_coalescing(self, tmp_path):
        # fault draws are per unit label, so every unit must evaluate
        log = tmp_path / "evals.log"
        units = _units(log, [3, 3, 3, 3])
        plan = FaultPlan(
            [FaultSpec(site="evaluate", match="u1", error_type="permanent")],
            seed=1,
        )
        with use_context(faults=plan):
            eng = CorpusEngine(jobs=1, error_policy="collect")
            out = eng.run(units)
        assert len(_evaluations(log)) == 3  # u1 faulted before evaluating
        assert out[1] is None and out[0] == out[2] == out[3]
        assert eng.metrics.coalesced == 0

    def test_fault_plan_keys_and_reads_every_unit(self, tmp_path, key_calls):
        log = tmp_path / "evals.log"
        eng = CorpusEngine(jobs=1, cache_dir=tmp_path / "cache")
        eng.run(_units(log, XS))
        del key_calls[:]
        reads = eng.cache.stats.lookups
        # a plan that matches no unit still turns grouping off
        plan = FaultPlan(
            [FaultSpec(site="evaluate", match="no-such-unit",
                       error_type="permanent")],
            seed=1,
        )
        with use_context(faults=plan):
            eng.run(_units(log, XS))
        assert len(key_calls) == 6
        assert eng.cache.stats.lookups - reads == 6
        assert eng.metrics.cache_hits == 6


class TestReporting:
    def test_progress_fires_per_unit_with_coalesced_flag(self, tmp_path):
        events = []
        eng = CorpusEngine(jobs=2, progress=events.append)
        eng.run(_units(tmp_path / "l", XS))
        assert sorted(e["index"] for e in events) == list(range(6))
        assert [e["completed"] for e in events] == list(range(1, 7))
        assert {e["index"] for e in events if e["coalesced"]} == {2, 4, 5}
        assert not any(e["cached"] or e["failed"] for e in events)

    def test_metrics_registry_and_summary(self, tmp_path):
        reg = MetricsRegistry()
        eng = CorpusEngine(jobs=1)
        with use_context(metrics=reg):
            eng.run(_units(tmp_path / "l", XS))
        snap = reg.snapshot()
        assert snap["engine.units_coalesced"]["value"] == 3
        assert snap["engine.units_evaluated"]["value"] == 6
        assert "evaluated 6 (3 coalesced)" in eng.metrics.summary()
        assert eng.totals.coalesced == 3

    def test_tracer_annotates_coalesced_units(self, tmp_path):
        tracer = Tracer()
        eng = CorpusEngine(jobs=1)
        with use_context(tracer=tracer):
            eng.run(_units(tmp_path / "l", XS))
        spans = [e for e in tracer.events if e.get("cat") == "unit"]
        marks = [
            e for e in tracer.events
            if e.get("name", "").startswith("coalesced:")
        ]
        assert len(spans) == 3
        assert sorted(e["args"]["index"] for e in marks) == [2, 4, 5]
        batch = [e for e in tracer.events if e.get("cat") == "batch"]
        assert batch[0]["args"]["coalesced"] == 3
