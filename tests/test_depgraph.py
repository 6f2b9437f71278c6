"""Dependency graph: RAW edges, critical path, loop-carried cycles."""

from repro.analysis.depgraph import build_dependency_graph
from repro.isa import parse_kernel
from repro.isa.dataflow import merge_only_reads
from repro.machine import get_machine_model
from repro.simulator.plan import build_uop_plan


def graph_for(asm, arch):
    model = get_machine_model(arch)
    instrs = parse_kernel(asm, model.isa)
    resolved = [model.resolve(i) for i in instrs]
    return build_dependency_graph(instrs, resolved, model)


class TestIntraEdges:
    def test_simple_raw(self):
        g = graph_for(
            "vmovupd (%rax), %ymm0\nvaddpd %ymm0, %ymm1, %ymm2\n", "spr"
        )
        succ = g.intra_graph().successors
        assert succ == [{1: succ[0][1]}, {}]
        # load-to-use latency on the edge
        assert succ[0][1] == get_machine_model("spr").load_latency_vec

    def test_no_war_dependency(self):
        # instr 1 overwrites ymm1 read by instr 0: renaming removes it
        g = graph_for(
            "vaddpd %ymm1, %ymm2, %ymm3\nvmovupd (%rax), %ymm1\n", "spr"
        )
        assert not g.intra_graph().has_edge(0, 1)

    def test_no_waw_dependency(self):
        g = graph_for(
            "vmovupd (%rax), %ymm0\nvmovupd (%rbx), %ymm0\n", "spr"
        )
        assert not g.intra_graph().has_edge(0, 1)

    def test_flags_dependency(self):
        g = graph_for("cmpq %rsi, %rcx\njb .L4\n", "spr")
        assert g.intra_graph().has_edge(0, 1)

    def test_memory_forwarding_same_address(self):
        g = graph_for(
            "vmovsd %xmm0, 8(%rsp)\nvmovsd 8(%rsp), %xmm1\n", "spr"
        )
        edges = [e for e in g.edges if e.kind == "mem"]
        assert len(edges) == 1

    def test_no_memory_edge_for_different_displacement(self):
        g = graph_for(
            "vmovsd %xmm0, 8(%rsp)\nvmovsd 16(%rsp), %xmm1\n", "spr"
        )
        assert not [e for e in g.edges if e.kind == "mem"]


class TestCarriedEdges:
    def test_induction_variable_carried(self):
        g = graph_for("addq $8, %rcx\ncmpq %rdx, %rcx\njb .L\n", "spr")
        carried = g.carried_edges()
        assert any(e.resource == "rcx" for e in carried)
        lcd, chain = g.loop_carried_dependency()
        assert lcd == 1.0

    def test_accumulator_chain_dominates(self):
        asm = """
        vmovupd (%rax,%rcx,8), %ymm1
        vaddpd %ymm1, %ymm8, %ymm8
        addq $4, %rcx
        cmpq %rdx, %rcx
        jb .L
        """
        g = graph_for(asm, "spr")
        lcd, chain = g.loop_carried_dependency()
        assert lcd == 2.0  # vaddpd latency on Golden Cove
        assert 1 in chain

    def test_fma_accumulator_lcd(self):
        asm = "vfmadd231pd %ymm1, %ymm2, %ymm8\nsubq $1, %rax\njnz .L\n"
        g = graph_for(asm, "spr")
        lcd, _ = g.loop_carried_dependency()
        assert lcd == 4.0

    def test_multi_instruction_cycle(self):
        # x -> y -> x across iterations: fmul then fadd back
        asm = """
        fmul d1, d0, d15
        fadd d0, d1, d14
        subs x0, x0, #1
        b.ne .L
        """
        g = graph_for(asm, "grace")
        lcd, chain = g.loop_carried_dependency()
        assert lcd == 3.0 + 2.0  # fmul + fadd latency on V2
        assert set(chain) <= {0, 1}

    def test_no_carried_dependency_in_pure_stream(self):
        asm = """
        vmovupd (%rax,%rcx,8), %ymm0
        vmovupd %ymm0, (%rdi,%rcx,8)
        addq $4, %rcx
        cmpq %rdx, %rcx
        jb .L
        """
        g = graph_for(asm, "spr")
        lcd, _ = g.loop_carried_dependency()
        assert lcd == 1.0  # only the induction variable

    def test_zero_idiom_breaks_chain(self):
        # xor starts a fresh value: no carried edge through ymm8
        asm = """
        vxorpd %ymm8, %ymm8, %ymm8
        vaddpd %ymm1, %ymm8, %ymm8
        subq $1, %rax
        jnz .L
        """
        g = graph_for(asm, "spr")
        assert all(e.resource != "zmm8" for e in g.carried_edges())


class TestCriticalPath:
    def test_chain_cp(self):
        asm = """
        vmovupd (%rax), %ymm0
        vaddpd %ymm0, %ymm1, %ymm2
        vmulpd %ymm2, %ymm3, %ymm4
        """
        g = graph_for(asm, "spr")
        # load 7 + add 2 + mul 4
        assert g.critical_path() == 13.0

    def test_independent_instructions_cp_is_max_latency(self):
        asm = "vaddpd %ymm0, %ymm1, %ymm2\nvmulpd %ymm3, %ymm4, %ymm5\n"
        g = graph_for(asm, "spr")
        assert g.critical_path() == 4.0

    def test_empty_block(self):
        g = graph_for("", "spr")
        assert g.critical_path() == 0.0
        assert g.loop_carried_dependency() == (0.0, [])


class TestMergeDependencies:
    def test_merge_only_read_detected(self):
        i = parse_kernel("mov z5.d, p1/m, z1.d", "aarch64")[0]
        assert merge_only_reads(i) == {"z5"}

    def test_true_accumulation_not_merge_only(self):
        i = parse_kernel("fadd z8.d, p0/m, z8.d, z0.d", "aarch64")[0]
        assert merge_only_reads(i) == set()

    def test_unpredicated_not_merge_only(self):
        i = parse_kernel("fadd z8.d, z1.d, z0.d", "aarch64")[0]
        assert merge_only_reads(i) == set()

    def test_x86_never_merge_only(self):
        i = parse_kernel("vaddpd %ymm0, %ymm1, %ymm2", "x86")[0]
        assert merge_only_reads(i) == set()

    def test_graph_keeps_the_merge_read_the_chip_renames(self):
        # the static set keeps the merge read; the simulator's chip set
        # renames it away
        asm = "mov z5.d, p1/m, z1.d\nsubs x0, x0, #1\nb.ne .L\n"
        assert any(e.resource == "z5" for e in graph_for(asm, "grace").carried_edges())
        plan = build_uop_plan(parse_kernel(asm, "aarch64"), get_machine_model("grace"))
        assert "z5" not in plan.reads[0]
        assert plan.eff_latency[0] == 0.0
