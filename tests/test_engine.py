"""Core behavior of the corpus execution engine.

Covers the work-unit model, the on-disk content-addressed cache, the
serial/parallel executor, metrics, progress hooks, and the engine the
CLI installs in the run context.  The differential serial-vs-parallel gate and
the cache-key properties have dedicated modules
(``test_engine_differential``, ``test_engine_cachekey``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.context import current_context, use_context
from repro.engine import (
    CorpusEngine,
    ResultCache,
    UnitEvaluationError,
    WorkUnit,
    cache_key,
    resolve_engine,
)
from repro.lowering import canonicalize_assembly, machine_model_digest

SRC = Path(__file__).resolve().parent.parent / "src"

ASM_X86 = """
.L3:
    vmovupd (%rax), %ymm0
    vaddpd (%rbx), %ymm0, %ymm1
    vmovupd %ymm1, (%rcx)
    addq $32, %rax
    cmpq %rdi, %rax
    jne .L3
"""


def _unit(asm=ASM_X86, iterations=20):
    """A ``predict`` unit on the simulator backend."""
    return WorkUnit.make(
        "predict",
        backend="sim",
        uarch="zen4",
        assembly=asm,
        opts={"iterations": iterations, "warmup": 5},
    )


class TestWorkUnit:
    def test_params_roundtrip(self):
        u = WorkUnit.make("corpus", uarch="zen4", assembly="nop", iterations=3)
        assert u.params == {"uarch": "zen4", "assembly": "nop", "iterations": 3}
        assert u.get("uarch") == "zen4"
        assert u.get("missing", 7) == 7

    def test_canonical_json_is_order_insensitive(self):
        a = WorkUnit.make("corpus", x=1, y=2)
        b = WorkUnit.make("corpus", y=2, x=1)
        assert a == b and a.params_json == b.params_json

    def test_label_excluded_from_identity(self):
        assert WorkUnit.make("corpus", label="a", x=1) == WorkUnit.make(
            "corpus", label="b", x=1
        )

    def test_units_are_hashable_and_picklable(self):
        import pickle

        u = _unit()
        assert pickle.loads(pickle.dumps(u)) == u
        assert len({u, _unit()}) == 1


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        c = ResultCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        assert c.get(key) is None
        c.put(key, {"v": 1.25})
        assert c.get(key) == {"v": 1.25}
        assert c.stats.hits == 1 and c.stats.misses == 1 and c.stats.puts == 1
        assert len(c) == 1

    def test_floats_roundtrip_bit_identical(self, tmp_path):
        c = ResultCache(tmp_path)
        value = {"x": 0.1 + 0.2, "y": 1.0 / 3.0, "z": 1e-300}
        c.put("cd" + "0" * 62, value)
        back = c.get("cd" + "0" * 62)
        for k in value:
            assert back[k] == value[k]  # exact, not approx

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        c = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        c.put(key, {"v": 1})
        (tmp_path / key[:2] / f"{key}.json").write_text("{not json")
        assert c.get(key) is None

    def test_clear(self, tmp_path):
        c = ResultCache(tmp_path)
        for i in range(4):
            c.put(f"{i:02d}" + "0" * 62, {"i": i})
        assert c.clear() == 4
        assert len(c) == 0

    def test_empty_cache_is_still_enabled(self, tmp_path):
        """Regression: an empty ResultCache must not be falsy-skipped."""
        eng = CorpusEngine(jobs=1, cache_dir=tmp_path)
        eng.run([_unit()])
        assert eng.cache.stats.puts == 1
        eng.run([_unit()])
        assert eng.metrics.cache_hits == 1


class TestEngineRun:
    def test_serial_run_and_metrics(self):
        eng = CorpusEngine(jobs=1)
        out = eng.run([_unit(), _unit(iterations=30)])
        assert len(out) == 2
        assert all(o["cycles_per_iteration"] > 0 for o in out)
        m = eng.metrics
        assert m.total_units == 2 and m.evaluated == 2 and m.cache_hits == 0
        assert m.wall_seconds > 0 and len(m.unit_seconds) == 2
        assert m.cache_hit_rate == 0.0

    def test_results_in_submission_order(self):
        eng = CorpusEngine(jobs=1)
        units = [_unit(iterations=n) for n in (10, 40, 20, 30)]
        out = eng.run(units)
        # more iterations with fixed warmup -> more total cycles, so the
        # output order must track the submission order, not unit cost
        totals = [o["stats"]["total_cycles"] for o in out]
        assert totals[1] == max(totals) and totals[0] == min(totals)
        assert totals[3] > totals[2]

    def test_parallel_matches_serial(self):
        units = [_unit(iterations=n) for n in (10, 20, 30, 40)]
        serial = CorpusEngine(jobs=1).run(units)
        parallel = CorpusEngine(jobs=2).run(units)
        assert serial == parallel

    def test_cache_shared_between_engines(self, tmp_path):
        units = [_unit(), _unit(iterations=30)]
        a = CorpusEngine(jobs=1, cache_dir=tmp_path)
        b = CorpusEngine(jobs=2, cache_dir=tmp_path)
        first = a.run(units)
        second = b.run(units)
        assert first == second
        assert b.metrics.cache_hits == 2 and b.metrics.evaluated == 0

    def test_comment_variants_share_a_cache_slot(self, tmp_path):
        eng = CorpusEngine(jobs=1, cache_dir=tmp_path)
        eng.run([_unit()])
        commented = "# compiler banner\n" + ASM_X86 + "\n\n// trailing note\n"
        eng.run([_unit(asm=commented)])
        assert eng.metrics.cache_hits == 1
        assert len(eng.cache) == 1

    def test_semantic_change_misses(self, tmp_path):
        eng = CorpusEngine(jobs=1, cache_dir=tmp_path)
        eng.run([_unit()])
        eng.run([_unit(asm=ASM_X86.replace("%ymm1", "%ymm2"))])
        assert eng.metrics.cache_hits == 0
        assert len(eng.cache) == 2

    def test_totals_accumulate_across_batches(self, tmp_path):
        eng = CorpusEngine(jobs=1, cache_dir=tmp_path)
        eng.run([_unit()])
        eng.run([_unit()])
        assert eng.totals.total_units == 2
        assert eng.totals.cache_hits == 1 and eng.totals.evaluated == 1

    def test_progress_hook_fires_per_unit(self, tmp_path):
        events = []
        eng = CorpusEngine(jobs=1, cache_dir=tmp_path, progress=events.append)
        eng.run([_unit(), _unit(iterations=30)])
        assert len(events) == 2
        assert {e["completed"] for e in events} == {1, 2}
        assert all(e["total"] == 2 and not e["cached"] for e in events)
        eng.run([_unit()])
        assert events[-1]["cached"] is True

    def test_unknown_kind_raises_with_unit_context(self):
        with pytest.raises(UnitEvaluationError, match="nope"):
            CorpusEngine(jobs=1).run([WorkUnit.make("nope", label="nope", x=1)])

    def test_parallel_failure_propagates(self):
        units = [_unit(), WorkUnit.make("nope", label="bad", x=1)]
        with pytest.raises(UnitEvaluationError):
            CorpusEngine(jobs=2).run(units)


class TestAmbientEngine:
    def test_default_is_serial_and_cacheless(self):
        assert current_context().engine is None
        eng = resolve_engine()
        assert eng.jobs == 1 and eng.cache is None
        assert resolve_engine() is not eng  # a fresh one per call

    def test_use_engine_installs_and_restores(self, tmp_path):
        inner = CorpusEngine(jobs=2, cache_dir=tmp_path)
        with use_context(engine=inner):
            assert resolve_engine() is inner
        assert current_context().engine is None

    def test_resolve_explicit_wins(self, tmp_path):
        explicit = CorpusEngine(jobs=3)
        with use_context(engine=CorpusEngine(jobs=2, cache_dir=tmp_path)):
            assert resolve_engine(explicit) is explicit


class TestKeyBasics:
    def test_known_kinds_cover_the_pipelines(self):
        # a fresh interpreter: other test modules register evaluators
        probe = "from repro.engine import known_kinds; print(known_kinds())"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        ).stdout
        assert out.strip() == "['corpus', 'microbench', 'predict', 'topdown']"

    def test_canonicalize_strips_comments_and_whitespace(self):
        messy = "\n\n# banner\n  vaddpd   %ymm0,  %ymm1, %ymm2 \n; note\n"
        assert canonicalize_assembly(messy) == "vaddpd %ymm0, %ymm1, %ymm2"

    def test_hash_immediates_survive_canonicalization(self):
        # AArch64 '#' immediates are not comments
        asm = "add x0, x0, #8"
        assert canonicalize_assembly(asm) == "add x0, x0, #8"

    def test_model_digest_stable_across_aliases(self):
        assert machine_model_digest("genoa") == machine_model_digest("zen4")
        assert machine_model_digest("zen4") != machine_model_digest("spr")

    def test_key_depends_on_kind_and_params(self):
        a = cache_key(WorkUnit.make("topdown", uarch="zen4", assembly="nop",
                                    iterations=10))
        b = cache_key(WorkUnit.make("corpus", uarch="zen4", assembly="nop",
                                    iterations=10))
        c = cache_key(WorkUnit.make("topdown", uarch="zen4", assembly="nop",
                                    iterations=11))
        assert len({a, b, c}) == 3

    def test_key_is_json_safe_hex(self):
        k = cache_key(_unit())
        assert len(k) == 64 and int(k, 16) >= 0
        json.dumps(k)
