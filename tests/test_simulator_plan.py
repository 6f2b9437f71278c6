"""Stage-one plan tests: one derivation, every consumer.

The staged pipeline's contract is that per-instruction tables are
derived exactly once and every consumer — the cycle engine, the
analytical engine, the MCA simulator's aliasing keys — reads the same
values.  Dependencies come from :func:`repro.isa.dataflow.derive_dataflow`;
these tests pin that the memory keys agree across the model, the
simulator and MCA, and that a built :class:`UopPlan`'s tables are the
derivation's and the plan helpers' outputs field by field.
"""

import pytest

from repro.analysis.depgraph import build_dependency_graph
from repro.isa.dataflow import Renaming, derive_dataflow
from repro.kernels import enumerate_corpus
from repro.lowering import lower
from repro.mca import MCASimulator
from repro.simulator.plan import (
    PlanConfig,
    build_uop_plan,
    macro_fusion,
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
    """The model, the simulator and MCA read one set of aliasing keys —
    drift in their shape silently changes memory dependency edges."""

    def test_mem_tables_identical_across_consumers(self, blocks):
        checked = 0
        for _e, block in blocks:
            plan = plan_for_block(block)
            mca = MCASimulator(block.model, assume_noalias=False).plan(
                block.instructions
            )
            static = derive_dataflow(
                block.instructions, block.resolved, Renaming.static(block.model)
            )
            for table in ("mem_reads", "mem_writes"):
                sim_keys = getattr(plan, table + "_of")
                assert getattr(static, table) == sim_keys
                assert getattr(mca, table + "_of") == tuple(
                    tuple((k, False) for k, _ in keys) for keys in sim_keys
                )
                for keys in sim_keys:
                    for key, _ in keys:
                        assert len(key) == 4  # (base, index, scale, disp)
                    checked += len(keys)
            graph = build_dependency_graph(
                block.instructions, block.resolved, block.model
            )
            mem_keys = {str(k) for keys in plan.mem_reads_of for k, _ in keys}
            assert {
                e.resource for e in graph.edges if e.kind.startswith("mem")
            } <= mem_keys
        assert checked > 0, "no memory operands exercised"


class TestPlanTablesMatchSharedDerivations:
    """A built plan's tables are the shared derivations' outputs verbatim."""

    def test_dependency_and_fusion_tables(self, blocks):
        for _e, block in blocks:
            plan = plan_for_block(block)
            flow = derive_dataflow(
                block.instructions, block.resolved, Renaming.chip(block.model)
            )
            assert plan.reads == flow.reads
            assert plan.writes == flow.writes
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
            flow = derive_dataflow(
                block.instructions, block.resolved, Renaming.chip(block.model)
            )
            assert plan.eff_latency == flow.latency
            assert plan.mem_reads_of == flow.mem_reads
            assert plan.mem_writes_of == flow.mem_writes
            # a key is loop-variant when the body writes its base or index
            variant = {r for ins in block.instructions for r in ins.register_writes()}
            for keys in plan.mem_reads_of + plan.mem_writes_of:
                for key, loop_variant in keys:
                    assert loop_variant == (key[0] in variant or key[1] in variant)
            for j, ins in enumerate(block.instructions):
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
