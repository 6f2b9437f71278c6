"""The shared lowering pipeline: counters, normalization, digests.

The load-bearing guarantee is the "lower once" contract: a corpus
sweep parses and machine-resolves each distinct unit once, however
many prediction backends fan out over it — the engine coalesces units
with equal cache keys, and ``lower()`` itself keeps no state.  Asserted
here against the real Fig. 3 evaluator via the metrics counters.
"""

import pytest

from repro.context import current_context
from repro.lowering import (
    LoweredBlock,
    assembly_digest,
    cached_model_digest,
    lower,
    machine_model_digest,
)
from repro.machine import get_machine_model

ASM = """
# compiler banner
vmovupd (%rax), %ymm0
vfmadd231pd (%rbx), %ymm1, %ymm0
vmovupd %ymm0, (%rcx)
"""


def _counter_delta(before: dict, name: str) -> float:
    snap = current_context().metrics.snapshot()
    return snap.get(name, {}).get("value", 0.0) - before.get(name, {}).get(
        "value", 0.0
    )


class TestLower:
    def test_block_shape(self):
        block = lower(ASM, "zen4")
        assert isinstance(block, LoweredBlock)
        assert len(block) == 3
        assert len(block.resolved) == len(block.instructions) == 3
        assert block.isa == "x86"
        assert block.model is get_machine_model("zen4")

    def test_accepts_model_instance_and_alias(self):
        by_name = lower(ASM, "zen4")
        by_alias = lower(ASM, "genoa")
        by_model = lower(ASM, get_machine_model("zen4"))
        assert by_name.model is by_alias.model is by_model.model

    def test_each_call_lowers_afresh_under_one_span(self):
        from repro.context import use_context
        from repro.obs.trace import PID_LOWER, Tracer

        tracer = Tracer()
        before = current_context().metrics.snapshot()
        with use_context(tracer=tracer):
            a = lower(ASM, "zen4")
            b = lower(ASM, "zen4")
        assert a is not b
        assert a.instructions == b.instructions
        assert _counter_delta(before, "lowering.requests") == 2
        events = [e for e in tracer.events if e["pid"] == PID_LOWER]
        assert [(e["ph"], e["name"]) for e in events] == [
            ("X", f"lower:{assembly_digest(ASM)[:12]}")
        ] * 2


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


class TestDigests:
    def test_model_digest_matches_engine_digest(self, monkeypatch):
        # the engine's cache key digests the model through
        # machine_model_digest
        import repro.engine.cachekey as cachekey
        from repro.engine import WorkUnit, cache_key

        unit = WorkUnit.make("predict", backend="sim", assembly=ASM, uarch="zen4")
        seen = []
        monkeypatch.setattr(
            cachekey, "machine_model_digest",
            lambda m: seen.append(m) or machine_model_digest(m),
        )
        before = cache_key(unit)
        assert seen == ["zen4"]
        monkeypatch.setattr(
            cachekey, "machine_model_digest", lambda m: "0" * 64
        )
        assert cache_key(unit) != before
        model = get_machine_model("zen4")
        assert machine_model_digest("zen4") == cached_model_digest(model)

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
    """The "lower once" contract, measured on the real Fig. 3 evaluator."""

    # at jobs=2 the lowerings happen in workers, whose counters reach
    # the run's registry with each outcome
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_block_lowered_once_per_model_pair(self, jobs):
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

        before = current_context().metrics.snapshot()
        with CorpusEngine(jobs=jobs) as engine:
            engine.run(units)
        # units sharing a cache key are evaluated once by the engine, so
        # only the distinct ones reach the lowering pipeline at all
        distinct = len(units) - engine.metrics.coalesced
        assert distinct == len(unique_pairs)
        assert _counter_delta(before, "lowering.requests") == distinct

        # lower() keeps nothing: evaluating the units again lowers again
        before = current_context().metrics.snapshot()
        for u in units:
            evaluate(u.kind, u.params)
        assert _counter_delta(before, "lowering.requests") == len(units)
