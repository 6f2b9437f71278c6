"""Cycle-level core simulator behaviour."""

import pytest

from repro.isa import parse_kernel
from repro.machine import get_machine_model
from repro.simulator.engine import CycleEngine, simulate_kernel
from repro.simulator.plan import (
    PlanConfig,
    build_uop_plan,
    macro_fusion,
    split_load_uops,
)

from .toyplan import toy_plan, traced_replay


def clean_config(**kw):
    """Plan config without harness-noise factors for exact checks."""
    defaults = dict(
        issue_efficiency=1.0, dispatch_efficiency=1.0, measurement_overhead=0.0
    )
    defaults.update(kw)
    return PlanConfig.make(**defaults)


def simulate(model, instrs, iterations, warmup, config=None):
    plan = build_uop_plan(instrs, model, config=config)
    return CycleEngine().run(plan, iterations=iterations, warmup=warmup)


def run(arch, asm, **kw):
    model = get_machine_model(arch)
    instrs = parse_kernel(asm, model.isa)
    return simulate(model, instrs, 100, 30, clean_config(**kw))


class TestLatencyChains:
    def test_fma_chain_spr(self):
        r = run("spr", "vfmadd231pd %zmm1, %zmm2, %zmm0\nsubq $1, %rax\njnz .L\n")
        assert r.cycles_per_iteration == pytest.approx(4.0)

    def test_add_chain_v2(self):
        r = run("grace", "fadd v0.2d, v0.2d, v1.2d\nsubs x0, x0, #1\nb.ne .L\n")
        assert r.cycles_per_iteration == pytest.approx(2.0)

    def test_load_to_use_in_chain(self):
        # pointer chase: load feeding its own address
        r = run("spr", "movq (%rax), %rax\n")
        assert r.cycles_per_iteration == pytest.approx(
            get_machine_model("spr").load_latency_gpr
        )


class TestThroughput:
    def test_independent_adds_two_ports(self):
        asm = "\n".join(f"vaddpd %zmm30, %zmm31, %zmm{d}" for d in range(8))
        r = run("spr", asm + "\nsubq $1, %rax\njnz .L\n")
        assert r.cycles_per_iteration == pytest.approx(4.0, rel=0.05)

    def test_divider_serializes(self):
        asm = "vdivpd %ymm14, %ymm15, %ymm0\nvdivpd %ymm14, %ymm15, %ymm1\nsubq $1, %rax\njnz .L\n"
        r = run("zen4", asm, divider_overrides={})
        assert r.cycles_per_iteration == pytest.approx(10.0, rel=0.05)

    def test_taken_branch_limits_to_one_cycle(self):
        r = run("grace", "nop\nb.ne .L\n")
        assert r.cycles_per_iteration >= 1.0 - 1e-9

    def test_gather_throughput_cap(self):
        asm = "\n".join(
            f"vgatherdpd (%rax,%zmm30,8), %zmm{d}{{%k1}}" for d in range(4)
        )
        r = run("spr", asm + "\nsubq $1, %rax\njnz .L\n")
        assert r.cycles_per_iteration == pytest.approx(12.0, rel=0.05)


class TestRenamerEffects:
    def test_zero_idiom_breaks_chain(self):
        with_idiom = run(
            "spr",
            "vxorpd %ymm0, %ymm0, %ymm0\nvfmadd231pd %ymm1, %ymm2, %ymm0\nsubq $1, %rax\njnz .L\n",
        )
        without = run(
            "spr",
            "vfmadd231pd %ymm1, %ymm2, %ymm0\nsubq $1, %rax\njnz .L\n",
        )
        assert with_idiom.cycles_per_iteration < without.cycles_per_iteration

    def test_fmov_zero_cycle_on_v2(self):
        # fadd(2) + fmov: renamed move adds nothing -> 2 cy chain
        asm = "fadd d1, d0, d2\nfmov d0, d1\nsubs x0, x0, #1\nb.ne .L\n"
        r = run("grace", asm)
        assert r.cycles_per_iteration == pytest.approx(2.0)

    def test_fmov_counts_without_move_elimination(self):
        import dataclasses

        v2 = get_machine_model("grace")
        model = dataclasses.replace(
            v2, move_elimination=False, entries=list(v2.entries)
        )
        asm = "fadd d1, d0, d2\nfmov d0, d1\nsubs x0, x0, #1\nb.ne .L\n"
        r = simulate(model, parse_kernel(asm, "aarch64"), 100, 30, clean_config())
        assert r.cycles_per_iteration == pytest.approx(4.0)  # 2 + 2

    def test_merging_mov_renamed(self):
        asm = "fadd z1.d, z0.d, z2.d\nmov z0.d, p1/m, z1.d\nsubs x0, x0, #1\nb.ne .L\n"
        r = run("grace", asm)
        assert r.cycles_per_iteration == pytest.approx(2.0)

    def test_true_sve_accumulation_keeps_chain(self):
        asm = "fadd z8.d, p0/m, z8.d, z0.d\nsubs x0, x0, #1\nb.ne .L\n"
        r = run("grace", asm)
        assert r.cycles_per_iteration == pytest.approx(2.0)

    def test_zen4_divider_override(self):
        asm = "vdivsd %xmm14, %xmm15, %xmm0\nvdivsd %xmm14, %xmm15, %xmm1\nsubq $1, %rax\njnz .L\n"
        fast = run("zen4", asm)  # default overrides: 4 cy each
        slow = run("zen4", asm, divider_overrides={})
        assert fast.cycles_per_iteration == pytest.approx(8.0, rel=0.05)
        assert slow.cycles_per_iteration == pytest.approx(10.0, rel=0.05)


class TestWindowEffects:
    def test_small_rob_serializes_long_latency(self):
        model = get_machine_model("spr")
        instrs = parse_kernel(
            "vdivpd %ymm1, %ymm2, %ymm3\n" + "addq $1, %rax\n" * 20, "x86"
        )
        import dataclasses

        small = dataclasses.replace(model, rob_size=8, entries=list(model.entries))
        big_r = simulate(model, instrs, 50, 10, clean_config())
        small_r = simulate(small, instrs, 50, 10, clean_config())
        assert small_r.cycles_per_iteration >= big_r.cycles_per_iteration

    @pytest.mark.parametrize(
        "op", ["cmpq %rax, %rbx", "subq $1, %rcx", "sub %rax, %rbx"],
        ids=["cmpq", "subq", "sub"],
    )
    def test_macro_fusion_saves_dispatch_slot(self, op):
        fused = macro_fusion(
            parse_kernel(f"{op}\njb .L\n", "x86"),
            get_machine_model("spr"),
        )
        assert fused == [True, False]

    def test_no_fusion_on_aarch64(self):
        fused = macro_fusion(
            parse_kernel("subs x0, x0, #1\nb.ne .L\n", "aarch64"),
            get_machine_model("grace"),
        )
        assert fused == [False, False]


class TestSplitLoads:
    def test_misaligned_vector_load_penalized(self):
        model = get_machine_model("zen4")
        aligned = parse_kernel("vmovupd (%rax,%rcx,8), %ymm0", "x86")[0]
        misaligned = parse_kernel("vmovupd 8(%rax,%rcx,8), %ymm0", "x86")[0]
        assert split_load_uops(aligned, model) == 0.0
        assert split_load_uops(misaligned, model) == pytest.approx(0.5)

    def test_scalar_loads_never_split(self):
        i = parse_kernel("movq 4(%rax), %rbx", "x86")[0]
        assert split_load_uops(i, get_machine_model("spr")) == 0.0


class TestHarnessFactors:
    def test_issue_efficiency_slows_port_bound(self):
        asm = "\n".join(f"vaddpd %zmm30, %zmm31, %zmm{d}" for d in range(8))
        asm += "\nsubq $1, %rax\njnz .L\n"
        model = get_machine_model("spr")
        instrs = parse_kernel(asm, "x86")
        ideal = simulate(model, instrs, 100, 30, clean_config())
        real = simulate(model, instrs, 100, 30)
        assert real.cycles_per_iteration > ideal.cycles_per_iteration

    def test_measurement_overhead_scales(self):
        asm = "addq $1, %rcx\nsubq $1, %rax\njnz .L\n"
        model = get_machine_model("spr")
        instrs = parse_kernel(asm, "x86")
        base = simulate(model, instrs, 100, 30, clean_config())
        off = simulate(
            model, instrs, 100, 30, clean_config(measurement_overhead=0.10)
        )
        assert off.cycles_per_iteration == pytest.approx(
            base.cycles_per_iteration * 1.10
        )


class TestPortIssueUnit:
    """Port placement on tiny hand-built plans replayed by the engine.

    An instruction with no µops that writes ``r`` at latency *t* makes
    every reader of ``r`` ready at *t*; dispatch steps are 0 unless a
    test needs the clock to move.
    """

    def test_backfill_into_gap(self):
        # a late-ready µop leaves a gap at the front
        plan = toy_plan(
            [
                ((), (), ("r",), 10.0, 0.0),
                (((("A",), 1.0),), ("r",), (), 1.0, 0.0),
                (((("A",), 1.0),), (), (), 1.0, 0.0),
            ],
            ("A",),
        )
        _, _, placed = traced_replay(plan)
        assert [(i, s) for _it, i, s, _d, _p in placed] == [(1, 10.0), (2, 0.0)]

    def test_gap_splitting(self):
        plan = toy_plan(
            [
                ((), (), ("r10",), 10.0, 0.0),
                ((), (), ("r4",), 4.0, 0.0),
                (((("A",), 1.0),), ("r10",), (), 1.0, 0.0),
                (((("A",), 2.0),), ("r4",), (), 1.0, 0.0),
                (((("A",), 4.0),), (), (), 1.0, 0.0),
            ],
            ("A",),
        )
        _, unit, placed = traced_replay(plan)
        assert [s for *_, s, _d, _p in placed] == [10.0, 4.0, 0.0]
        assert unit.gaps["A"] == [(6.0, 10.0)]

    def test_picks_earliest_port(self):
        plan = toy_plan(
            [
                (((("A",), 5.0),), (), (), 1.0, 0.0),
                (((("A", "B"), 1.0),), (), (), 1.0, 0.0),
            ],
            ("A", "B"),
        )
        _, _, placed = traced_replay(plan)
        assert placed[1][2:] == (0.0, 1.0, "B")

    def test_window_pruning(self):
        # gap [0, 100) on A, then the dispatch clock moves to 200
        body = [
            ((), (), ("r",), 100.0, 0.0),
            (((("A",), 1.0),), ("r",), (), 1.0, 0.0),
            ((), (), (), 0.0, 200.0),
        ]
        _, kept, _ = traced_replay(toy_plan(body, ("A",), window=1e9))
        assert kept.gaps["A"] == [(0.0, 100.0)]
        _, pruned, _ = traced_replay(toy_plan(body, ("A",), window=10.0))
        assert pruned.gaps["A"] == []

    def test_zero_duration_noop(self):
        plan = toy_plan(
            [
                ((), (), ("r",), 3.0, 0.0),
                (((("A",), 0.0),), ("r",), (), 0.0, 0.0),
            ],
            ("A",),
        )
        result, unit, placed = traced_replay(plan)
        assert placed == []
        assert unit.tail["A"] == 0.0
        assert result.total_cycles == 3.0

    def test_stores_only_gaps_a_uop_could_fill(self):
        # every µop that may use A takes 1.0 cycle; B's 0.5-cycle µop
        # does not count for A
        on_a = ((("A",), 1.0),)
        body = [
            (on_a, (), (), 0.0, 0.0),  # A busy [0, 1)
            ((), (), ("r",), 2.0, 0.0),
            (on_a, ("r",), (), 0.0, 0.0),  # [2, 3): leaves gap (1, 2)
            ((), (), ("q",), 3.6, 0.0),
            (on_a, ("q",), (), 0.0, 0.0),  # [3.6, 4.6): leaves (3, 3.6)
            (((("B",), 0.5),), (), (), 0.0, 0.0),
        ]
        _, unit, _ = traced_replay(toy_plan(body, ("A", "B")))
        # the 0.6-cycle gap is at least GAP_MIN, but no µop of A fits it
        assert unit.gaps["A"] == [(1.0, 2.0)]
        filler = (on_a, (), (), 0.0, 0.0)
        _, unit, placed = traced_replay(toy_plan(body + [filler], ("A", "B")))
        assert placed[-1][2:] == (1.0, 1.0, "A")
        assert unit.gaps["A"] == []


class TestMemoryDependences:
    """Store-to-load dependences through the engine's memory keys.

    Each loop has a store/load pair at a loop-variant address (it
    advances every iteration), with one more load of that address ahead
    of the store, and a load/store pair at a loop-invariant address.
    The variant store forwards to the load after it in the same
    iteration only, so the early load never waits; the invariant store
    feeds the next iteration's load, a loop-carried chain through
    memory.  Cycles and the memory-dependence stall are pinned bit for
    bit.
    """

    X86 = """\
.L1:
    movq 8(%rbx), %rax
    imulq %rax, %rax
    movq %rax, 8(%rbx)
    movq (%rdi), %rcx
    addq %rax, %rcx
    movq %rcx, (%rdi)
    movq (%rdi), %rdx
    addq %rdx, %rsi
    addq $8, %rdi
    cmpq %r8, %rdi
    jne .L1
"""
    AARCH64 = """\
.L1:
    ldr x1, [x2, #8]
    mul x1, x1, x1
    str x1, [x2, #8]
    ldr x3, [x0]
    add x3, x3, x1
    str x3, [x0]
    ldr x4, [x0]
    add x5, x5, x4
    add x0, x0, #8
    cmp x0, x6
    b.ne .L1
"""

    @pytest.mark.parametrize(
        "arch, source, total, mem_stall",
        [
            ("spr", X86, "0x1.d11cc0ed7303cp+7", "0x1.1b7de9bd37a70p+12"),
            ("grace", AARCH64, "0x1.6b0590b21642cp+7", "0x1.b35c2c8590b25p+11"),
        ],
        ids=["x86", "aarch64"],
    )
    def test_variant_and_invariant_keys(self, arch, source, total, mem_stall):
        r = simulate_kernel(
            source, arch, iterations=20, warmup=5, collect_stalls=True
        )
        assert r.total_cycles.hex() == total
        assert r.stall_cycles["dependency.mem"].hex() == mem_stall


class TestSimulateKernel:
    def test_wrapper(self):
        r = simulate_kernel("addq $1, %rax\n", "spr", iterations=50, warmup=10)
        assert r.cycles_per_iteration > 0
        assert r.instructions_retired == 60
        assert r.ipc > 0

    def test_requires_iterations(self):
        with pytest.raises(ValueError):
            simulate_kernel("nop\n", "spr", iterations=0)
