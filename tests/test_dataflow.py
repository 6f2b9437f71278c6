"""The dataflow derivation and its named renamer assumptions.

The model, the simulator and the MCA baseline take their dependencies
from one function, :func:`repro.isa.dataflow.derive_dataflow`, under
three renamer assumption sets.  These tests pin the differences between
the sets as the only differences: the chip set adds merge renaming and
zero-cycle moves to the static set, and the static set adds zero idioms
to none.  On Fig. 3 the first difference is exactly the paper's V2
``fmov`` family plus the SVE ``fmla`` blocks of a known bug.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.backends import get_backend
from repro.fuzz import generate_fuzz_corpus
from repro.isa import parse_kernel
from repro.isa.dataflow import (
    NO_RENAMING,
    Renaming,
    derive_dataflow,
    merge_only_reads,
)
from repro.kernels import enumerate_corpus
from repro.lowering import lower
from repro.machine import get_machine_model

#: a merging mov, the one renamed move neither corpus emits
MERGING_MOV = "fadd z1.d, z0.d, z2.d\nmov z0.d, p1/m, z1.d\nsubs x0, x0, #1\nb.ne .L\n"

#: Fig. 3 blocks whose static and chip dataflows differ
FIG3_RENAMED = {
    # fmov d, d on the Gauss-Seidel chain: the paper's V2 family
    "gcs/gs2d5pt/armclang/O1",
    "gcs/gs2d5pt/armclang/O2",
    "gcs/gs2d5pt/armclang/O3",
    "gcs/gs2d5pt/armclang/Ofast",
    # SVE fmla accumulators taken for merge-only reads (the xfail below)
    "gcs/pi/gcc-arm/Ofast",
    "gcs/sch_triad/gcc-arm/O2",
    "gcs/sch_triad/gcc-arm/O3",
    "gcs/sch_triad/gcc-arm/Ofast",
    "gcs/striad/gcc-arm/O2",
    "gcs/striad/gcc-arm/O3",
    "gcs/striad/gcc-arm/Ofast",
}


def flows(block):
    """The block's dataflow under the chip, static and no renaming."""
    args = (block.instructions, block.resolved)
    model = block.model
    return (
        derive_dataflow(*args, Renaming.chip(model)),
        derive_dataflow(*args, Renaming.static(model)),
        derive_dataflow(*args, NO_RENAMING),
    )


def predict(block, backend):
    return get_backend(backend).predict(block).cycles_per_iteration


@pytest.fixture(scope="module")
def fig3():
    """Each Fig. 3 entry's test id with its block, lowered once per text."""
    lowered = {}
    out = []
    for e in enumerate_corpus():
        key = (e.uarch, e.assembly)
        if key not in lowered:
            lowered[key] = lower(e.assembly, e.uarch)
        out.append((e.test_id, lowered[key]))
    return out


@pytest.fixture(scope="module")
def blocks(fig3):
    """Distinct Fig. 3 blocks, fuzzed kernels (zero idioms among their
    mutations) and a merging mov."""
    out = {(b.model.name, b.source): b for _, b in fig3}
    for k in generate_fuzz_corpus(7, 200):
        out.setdefault((k.uarch, k.assembly), lower(k.assembly, k.uarch))
    out["mov"] = lower(MERGING_MOV, "grace")
    return list(out.values())


class TestNamedDifference:
    def test_chip_adds_merge_renaming_and_zero_cycle_moves(self, blocks):
        dropped = moves = 0
        for block in blocks:
            chip, static, _ = flows(block)
            assert chip.zero == static.zero
            assert chip.writes == static.writes
            assert chip.mem_reads == static.mem_reads
            assert chip.mem_writes == static.mem_writes
            for j, ins in enumerate(block.instructions):
                merge = merge_only_reads(ins)
                assert chip.reads[j] == tuple(
                    r for r in static.reads[j] if r not in merge
                )
                dropped += chip.reads[j] != static.reads[j]
                if chip.latency[j] == static.latency[j]:
                    continue
                assert chip.latency[j] == 0.0
                assert (ins.mnemonic == "mov" and merge) or (
                    ins.mnemonic == "fmov"
                    and [o.name[0] for o in ins.operands] == ["d", "d"]
                )
                moves += 1
        assert dropped and moves

    def test_static_adds_zero_idioms(self, blocks):
        idioms = 0
        for block in blocks:
            _, static, none = flows(block)
            assert not any(none.zero)
            assert static.writes == none.writes
            assert static.mem_reads == none.mem_reads
            assert static.mem_writes == none.mem_writes
            assert static.latency == none.latency
            for j, ins in enumerate(block.instructions):
                assert none.reads[j] == ins.register_reads()
                if static.zero[j]:
                    assert ins.isa == "x86" and static.reads[j] == ()
                    idioms += 1
                else:
                    assert static.reads[j] == none.reads[j]
        assert idioms

    def test_zero_idiom_annotation(self):
        block = lower("vxorps %xmm0, %xmm0, %xmm0\naddq %rax, %rbx", "zen4")
        chip, static, none = flows(block)
        assert chip.zero == static.zero == (True, False)
        assert none.zero == (False, False)

    def test_fig3_blocks_where_static_and_chip_differ(self, fig3):
        differ = set()
        for test_id, block in fig3:
            chip, static, _ = flows(block)
            if chip != static:
                differ.add(test_id)
        assert differ == FIG3_RENAMED


class TestModelAssumptions:
    def test_the_models_zero_idiom_flag_reaches_the_model(self):
        # with the flag off the xor reads xmm8: a 1 + 3 cycle chain
        zen4 = get_machine_model("zen4")
        model = dataclasses.replace(
            zen4, zero_idioms=False, entries=list(zen4.entries)
        )
        block = lower(
            "vxorpd %xmm8, %xmm8, %xmm8\nvaddsd %xmm8, %xmm1, %xmm8\n", model
        )
        result = get_backend("model").predict(block)
        assert result.stats["lcd"] == result.cycles_per_iteration == 4.0
        assert result.cycles_per_iteration <= predict(block, "sim")

    @pytest.mark.xfail(
        strict=True,
        reason="the model's final-writer pass skips zero idioms, so the "
        "vaddsd chains on itself across iterations (spr 9.0 against sim "
        "1.12, zen4 10.0 against 1.02); the fix moves pinned benchmark "
        "digests",
    )
    @pytest.mark.parametrize("arch", ["spr", "zen4"])
    def test_zero_idiom_after_the_read_keeps_the_bound_below_the_sim(self, arch):
        block = lower(
            "vaddsd (%rax,%rcx,8), %xmm8, %xmm8\n"
            "vxorpd %xmm8, %xmm8, %xmm8\n"
            "addq $1, %rcx\ncmpq %rsi, %rcx\njb .L\n",
            arch,
        )
        assert predict(block, "model") <= predict(block, "sim")

    @pytest.mark.xfail(
        strict=True,
        reason="merge_only_reads takes a read-write accumulator for a "
        "merge-only read, so the simulator drops fmla's read of z1 "
        "(gcs/striad/gcc-arm/O2: sim 0.9791, 0.9781 with the fix, which "
        "moves the sim golden and a pinned benchmark digest)",
    )
    def test_chip_set_keeps_the_fmla_accumulator_read(self):
        model = get_machine_model("grace")
        instrs = parse_kernel("fmla z1.d, p0/m, z15.d, z0.d", "aarch64")
        flow = derive_dataflow(
            instrs, [model.resolve(i) for i in instrs], Renaming.chip(model)
        )
        assert "z1" in flow.reads[0]


def test_plans_derive_no_dependency_from_the_analysis_layer():
    root = Path(repro.__file__).parent
    for rel in ("simulator/plan.py", "simulator/engine.py", "mca/simulator.py"):
        for node in ast.walk(ast.parse((root / rel).read_text())):
            if isinstance(node, ast.ImportFrom):
                assert "analysis" not in (node.module or ""), rel
            elif isinstance(node, ast.Import):
                assert not any("analysis" in a.name for a in node.names), rel
