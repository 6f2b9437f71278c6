"""The shared lowering pipeline: memoization, counters, normalization.

The load-bearing guarantee is the ISSUE's "lower once" contract: a
corpus sweep parses and machine-resolves each block exactly once per
``(assembly, machine model)`` pair, however many prediction backends
fan out over it — asserted here against the real Fig. 3 evaluator via
the metrics counters.
"""

import pytest

from repro.lowering import (
    LoweredBlock,
    assembly_digest,
    cached_model_digest,
    clear_memo,
    lower,
    machine_model_digest,
    memo_len,
    memo_stats,
)
from repro.machine import get_machine_model
from repro.obs.metrics import get_registry

ASM = """
# compiler banner
vmovupd (%rax), %ymm0
vfmadd231pd (%rbx), %ymm1, %ymm0
vmovupd %ymm0, (%rcx)
"""


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _counter_delta(before: dict, name: str) -> float:
    snap = get_registry().snapshot()
    return snap.get(name, {}).get("value", 0.0) - before.get(name, {}).get(
        "value", 0.0
    )


class TestLower:
    def test_block_shape(self):
        block = lower(ASM, "zen4")
        assert isinstance(block, LoweredBlock)
        assert len(block) == 3
        assert len(block.resolved) == len(block.instructions) == 3
        assert len(block.zero_idioms) == 3
        assert block.isa == "x86"
        assert block.model is get_machine_model("zen4")
        assert block.key == (
            assembly_digest(ASM),
            cached_model_digest(block.model),
        )

    def test_accepts_model_instance_and_alias(self):
        by_name = lower(ASM, "zen4")
        by_alias = lower(ASM, "genoa")
        by_model = lower(ASM, get_machine_model("zen4"))
        assert by_name is by_alias is by_model  # one memo slot

    def test_memo_hit_returns_same_object(self):
        before = get_registry().snapshot()
        a = lower(ASM, "zen4")
        b = lower(ASM, "zen4")
        assert a is b
        assert memo_len() == 1
        assert _counter_delta(before, "lowering.requests") == 2
        assert _counter_delta(before, "lowering.memo_misses") == 1
        assert _counter_delta(before, "lowering.memo_hits") == 1

    def test_whitespace_and_comments_share_a_slot(self):
        noisy = "\n\n  " + ASM.replace("vmovupd (%rax)", "vmovupd   (%rax)")
        assert lower(ASM, "zen4") is lower(noisy, "zen4")

    def test_different_models_get_distinct_slots(self):
        a = lower(ASM, "zen4")
        b = lower(ASM, "golden_cove")
        assert a is not b
        assert memo_len() == 2

    def test_memo_false_bypasses_cache(self):
        a = lower(ASM, "zen4", memo=False)
        assert memo_len() == 0
        b = lower(ASM, "zen4", memo=False)
        assert a is not b

    def test_lru_eviction(self, monkeypatch):
        import repro.lowering.pipeline as pipeline

        monkeypatch.setattr(pipeline, "MEMO_CAP", 2)
        first = lower("addq $1, %rax", "zen4")
        lower("addq $2, %rax", "zen4")
        lower("addq $3, %rax", "zen4")
        assert memo_len() == 2
        assert lower("addq $1, %rax", "zen4") is not first  # evicted

    def test_memo_stats_shape(self):
        lower(ASM, "zen4")
        stats = memo_stats()
        assert set(stats) == {
            "requests", "memo_hits", "memo_misses", "memo_len", "hit_rate",
        }
        assert 0.0 <= stats["hit_rate"] <= 1.0


class TestNormalization:
    def test_iaca_marker_pair_is_stripped(self):
        marked = (
            "movl $111, %ebx\n"
            "vaddpd %ymm0, %ymm1, %ymm2\n"
            "movl $222, %ebx\n"
        )
        block = lower(marked, "zen4")
        assert [i.mnemonic for i in block.instructions] == ["vaddpd"]

    def test_lone_marker_mov_is_kept(self):
        # a single mov $111, %ebx could be real code
        lone = "movl $111, %ebx\nvaddpd %ymm0, %ymm1, %ymm2\n"
        block = lower(lone, "zen4")
        assert len(block) == 2

    def test_zero_idiom_annotation(self):
        block = lower("vxorps %xmm0, %xmm0, %xmm0\naddq %rax, %rbx", "zen4")
        assert block.zero_idioms == (True, False)


class TestDigests:
    def test_model_digest_matches_engine_digest(self):
        # one notion of identity shared by memo and on-disk cache
        model = get_machine_model("zen4")
        from repro.engine import machine_model_digest as engine_digest

        assert cached_model_digest(model) == engine_digest("zen4")
        assert machine_model_digest(model) == engine_digest(model)

    def test_instance_digest_is_memoized(self):
        model = get_machine_model("zen4")
        assert cached_model_digest(model) == cached_model_digest(model)

    def test_name_digest_serializes_the_model_once(self, monkeypatch):
        import repro.machine.io as io

        first = machine_model_digest("zen4")
        calls = []
        real = io.model_to_dict
        monkeypatch.setattr(
            io, "model_to_dict", lambda m: calls.append(m) or real(m)
        )
        assert machine_model_digest("zen4") == first
        assert calls == []


class TestCorpusLowersOnce:
    """The tentpole contract, measured on the real Fig. 3 evaluator."""

    def test_each_block_lowered_once_per_model_pair(self):
        from repro.bench.fig3 import corpus_units
        from repro.engine import CorpusEngine
        from repro.engine.evaluators import evaluate
        from repro.kernels import enumerate_corpus

        corpus = enumerate_corpus(machines=("spr", "genoa"), kernels=("striad",))
        units = corpus_units(corpus, iterations=50)
        unique_pairs = {
            (assembly_digest(e.assembly), e.uarch) for e in corpus
        }
        assert len(unique_pairs) < len(units)  # dedup must be observable

        before = get_registry().snapshot()
        engine = CorpusEngine(jobs=1)
        engine.run(units)
        # units sharing a cache key are evaluated once by the engine, so
        # only the distinct ones reach the lowering pipeline at all
        distinct = len(units) - engine.metrics.coalesced
        assert len(unique_pairs) <= distinct < len(units)
        assert _counter_delta(before, "lowering.requests") == distinct
        assert _counter_delta(before, "lowering.memo_misses") == len(
            unique_pairs
        )
        assert _counter_delta(before, "lowering.memo_hits") == distinct - len(
            unique_pairs
        )

        # and a repeat sweep is all hits
        before = get_registry().snapshot()
        for u in units:
            evaluate(u.kind, u.params)
        assert _counter_delta(before, "lowering.memo_misses") == 0
        assert _counter_delta(before, "lowering.memo_hits") == len(units)
