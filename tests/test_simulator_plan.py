"""Stage-one plan tests: one derivation, every consumer.

The staged pipeline's contract is that per-instruction tables are
derived exactly once, in :mod:`repro.simulator.plan`, and every
consumer — the cycle engine, the analytical engine, the MCA
simulator's aliasing keys — reads the same values.  These tests pin
that: the shared aliasing keys keep their shape on every corpus
instruction, and a built :class:`UopPlan`'s tables must reproduce the
shared derivations field by field.
"""

import pytest

from repro.kernels import enumerate_corpus
from repro.lowering import lower
from repro.simulator.plan import (
    PlanConfig,
    build_uop_plan,
    dependency_sets,
    effective_latency,
    key_variant,
    macro_fusion,
    mem_reads,
    mem_writes,
    plan_for_block,
)

KERNELS = ("striad", "sum", "pi")


@pytest.fixture(scope="module")
def blocks():
    out = []
    for e in enumerate_corpus(kernels=KERNELS):
        out.append((e, lower(e.assembly, e.uarch)))
    assert out, "corpus subset is empty"
    return out


class TestMemKeyTrioAgrees:
    """The plan helpers derive the aliasing keys every simulator reads
    (the MCA baseline calls them directly) — drift in their shape
    silently changes memory dependency edges."""

    def test_mem_tables_identical_across_consumers(self, blocks):
        checked = 0
        for _e, block in blocks:
            for ins in block.instructions:
                expect_r = mem_reads(ins)
                expect_w = mem_writes(ins)
                for key in expect_r + expect_w:
                    assert len(key) == 4  # (base, index, scale, disp)
                checked += len(expect_r) + len(expect_w)
        assert checked > 0, "no memory operands exercised"


class TestPlanTablesMatchSharedDerivations:
    """A built plan's tables are the shared helpers' outputs verbatim."""

    def test_dependency_and_fusion_tables(self, blocks):
        for _e, block in blocks:
            plan = plan_for_block(block)
            reads, writes = dependency_sets(
                block.instructions, block.model, merge_renaming=True
            )
            assert plan.reads == tuple(reads)
            assert plan.writes == tuple(writes)
            fused = macro_fusion(block.instructions, block.model)
            expect_slots = tuple(
                j == 0 or not fused[j - 1] for j in range(plan.n_body)
            )
            assert plan.step_of == tuple(
                plan.dispatch_step if slot else 0.0 for slot in expect_slots
            )
            assert plan.n_slots == sum(expect_slots)

    def test_latency_and_memory_tables(self, blocks):
        for _e, block in blocks:
            plan = plan_for_block(block)
            variant = set()
            for ins in block.instructions:
                variant.update(ins.register_writes())
            for j, ins in enumerate(block.instructions):
                assert plan.eff_latency[j] == effective_latency(
                    ins, block.resolved[j].latency, block.model
                )
                assert plan.mem_reads_of[j] == tuple(
                    (k, key_variant(k, variant)) for k in mem_reads(ins)
                )
                assert plan.mem_writes_of[j] == tuple(
                    (k, key_variant(k, variant)) for k in mem_writes(ins)
                )
                assert plan.mnemonic_of[j] == ins.mnemonic
                assert plan.is_branch_of[j] == ins.is_branch

    def test_divider_override_applied(self):
        # zen4 divsd carries a measured divider override in the default
        # config; the plan table must reflect it, not the raw model.
        block = lower("divsd %xmm1, %xmm0", "zen4")
        plan = plan_for_block(block)
        assert plan.divider_occ[0] == 4.0
        bare = build_uop_plan(
            block.instructions,
            block.model,
            resolved=block.resolved,
            config=PlanConfig.make(divider_overrides={}),
        )
        assert bare.divider_occ[0] != 4.0


class TestPlanMemo:
    def test_config_is_part_of_the_key(self):
        block = lower("addq %rax, %rbx", "zen4")
        a = plan_for_block(block)
        b = plan_for_block(block, PlanConfig.make(issue_efficiency=1.0))
        assert a is not b
        assert a.occupancy_scale != b.occupancy_scale
