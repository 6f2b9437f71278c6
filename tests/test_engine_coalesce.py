"""Coalescing: units that share a content key are evaluated once per batch.

A batch's cache misses are grouped by cache key; the first unit of each
group is evaluated and every later one receives a copy of its outcome.
These tests pin the contract: results identical to evaluating every
unit on its own, one evaluation per key at every ``jobs``, accounting
that still adds up, failures that fan out to every unit of the group,
and the two exceptions — units without a key, and active fault plans.
"""

import os

import pytest

from repro import faults
from repro.bench.fig3 import corpus_units
from repro.engine import CorpusEngine, UnitEvaluationError, WorkUnit, cache_key
from repro.engine.evaluators import evaluate, evaluator
from repro.faults import FaultPlan, FaultSpec
from repro.kernels import enumerate_corpus
from repro.obs.metrics import MetricsRegistry, use_registry
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
        out = CorpusEngine(jobs=1).run(_units(tmp_path / "l", [4, 4]))
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
        assert len(_evaluations(log)) == 3

    def test_comment_variants_coalesce_without_a_cache(self):
        asm = "vaddpd %ymm0, %ymm1, %ymm2\nvmulpd %ymm2, %ymm3, %ymm4\n"
        noisy = "# compiler banner\n  " + asm.replace(", ", ",  ") + "\n"
        units = [
            WorkUnit.make("simulate", label=label, uarch="zen4",
                          assembly=text, iterations=10, warmup=2)
            for label, text in (("plain", asm), ("noisy", noisy))
        ]
        assert cache_key(units[0]) == cache_key(units[1])
        eng = CorpusEngine(jobs=1)
        out = eng.run(units)
        assert eng.metrics.coalesced == 1
        assert out[0] == out[1] == evaluate("simulate", units[1].params)


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
            WorkUnit.make("simulate", label=f"b{i}", uarch="no-such-cpu",
                          assembly="nop", iterations=5, warmup=1)
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
        with faults.use_plan(plan):
            eng = CorpusEngine(jobs=1, error_policy="collect")
            out = eng.run(units)
        assert len(_evaluations(log)) == 3  # u1 faulted before evaluating
        assert out[1] is None and out[0] == out[2] == out[3]
        assert eng.metrics.coalesced == 0


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
        with use_registry(reg):
            eng.run(_units(tmp_path / "l", XS))
        snap = reg.snapshot()
        assert snap["engine.units_coalesced"]["value"] == 3
        assert snap["engine.units_evaluated"]["value"] == 6
        assert "evaluated 6 (3 coalesced)" in eng.metrics.summary()
        assert eng.totals.coalesced == 3

    def test_tracer_annotates_coalesced_units(self, tmp_path):
        tracer = Tracer()
        eng = CorpusEngine(jobs=1, tracer=tracer)
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
