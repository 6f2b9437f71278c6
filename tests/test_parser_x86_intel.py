"""Intel-syntax x86 parser: canonical-form equivalence with AT&T."""

import pytest

from repro.isa import parse_kernel
from repro.isa.operands import Immediate, MemoryOperand
from repro.isa.parser_base import ParseError
from repro.isa.parser_x86_intel import ParserX86Intel


def one(line):
    instrs = parse_kernel(line, "x86_intel")
    assert len(instrs) == 1
    return instrs[0]


class TestOperands:
    def test_destination_first_converted(self):
        i = one("mov rbx, rax")
        assert i.register_reads() == ("rax",)
        assert i.register_writes() == ("rbx",)

    def test_immediate_without_dollar(self):
        i = one("add rcx, 8")
        assert isinstance(i.operands[0], Immediate)
        assert i.operands[0].value == 8

    def test_memory_full_form(self):
        i = one("vmovupd ymm0, ymmword ptr [rax+rcx*8+16]")
        m = i.operands[0]
        assert isinstance(m, MemoryOperand)
        assert m.base.root == "rax"
        assert m.index.root == "rcx"
        assert m.scale == 8
        assert m.displacement == 16

    def test_negative_displacement(self):
        m = one("vmovupd ymm0, [rax+rcx*8-8]").operands[0]
        assert m.displacement == -8

    def test_base_only(self):
        m = one("mov rax, qword ptr [rdx]").operands[0]
        assert m.base.root == "rdx" and m.index is None

    def test_index_only(self):
        m = one("mov rax, [rcx*4+8]").operands[0]
        assert m.base is None and m.index.root == "rcx" and m.scale == 4

    def test_two_plain_registers_base_then_index(self):
        m = one("lea rax, [rbx+rcx]").operands[0]
        assert m.base.root == "rbx" and m.index.root == "rcx" and m.scale == 1

    def test_rip_relative(self):
        m = one("vmovsd xmm0, [rip+.LC1]").operands[0]
        assert m.base.reg_class.name == "IP"

    def test_mask_annotation(self):
        i = one("vmovupd zmm0{k2}, [rax]")
        assert "k2" in i.implicit_reads

    def test_store_direction(self):
        i = one("vmovupd [rax], ymm1")
        assert i.is_store and not i.is_load
        assert "zmm1" in i.register_reads()

    def test_bad_memory_term_raises(self):
        with pytest.raises(ParseError):
            ParserX86Intel().parse("mov rax, [rbx+%$!]")

    def test_three_registers_rejected(self):
        with pytest.raises(ParseError):
            ParserX86Intel().parse("mov rax, [rbx+rcx+rdx]")


class TestEquivalenceWithATT:
    PAIRS = [
        ("vaddpd ymm3, ymm2, ymm1", "vaddpd %ymm1, %ymm2, %ymm3"),
        ("vfmadd231pd zmm2, zmm1, zmmword ptr [rbx+rcx*8]",
         "vfmadd231pd (%rbx,%rcx,8), %zmm1, %zmm2"),
        ("add rcx, 4", "addq $4, %rcx"),
        ("cmp rcx, rsi", "cmpq %rsi, %rcx"),
        ("vmovupd [rdx+rcx*8], ymm0", "vmovupd %ymm0, (%rdx,%rcx,8)"),
        ("vdivsd xmm3, xmm2, xmm1", "vdivsd %xmm1, %xmm2, %xmm3"),
    ]

    @pytest.mark.parametrize("intel,att", PAIRS)
    def test_same_semantics(self, intel, att):
        a = parse_kernel(intel, "x86_intel")[0]
        b = parse_kernel(att, "x86")[0]
        assert a.register_reads() == b.register_reads()
        assert a.register_writes() == b.register_writes()
        assert a.is_load == b.is_load
        assert a.is_store == b.is_store

    def test_same_analysis_result(self):
        intel = """
        .L4:
            vmovupd ymm0, [rax+rcx*8]
            vfmadd231pd ymm0, ymm1, ymmword ptr [rbx+rcx*8]
            vmovupd [rdx+rcx*8], ymm0
            add rcx, 4
            cmp rcx, rsi
            jb .L4
        """
        att = """
        .L4:
            vmovupd (%rax,%rcx,8), %ymm0
            vfmadd231pd (%rbx,%rcx,8), %ymm1, %ymm0
            vmovupd %ymm0, (%rdx,%rcx,8)
            addq $4, %rcx
            cmpq %rsi, %rcx
            jb .L4
        """
        # parse through different dialects, analyze on the same model
        from repro.isa import get_parser
        from repro.machine import get_machine_model
        from repro.analysis import analyze_instructions

        model = get_machine_model("zen4")
        ra = analyze_instructions(get_parser("x86_intel").parse(intel), model)
        rb = analyze_instructions(get_parser("x86").parse(att), model)
        assert ra.prediction == rb.prediction
        assert ra.lcd == rb.lcd
        assert ra.block_throughput == rb.block_throughput

    def test_simulation_equivalence(self):
        from repro.isa import get_parser
        from repro.machine import get_machine_model
        from repro.simulator.engine import CycleEngine
        from repro.simulator.plan import build_uop_plan

        model = get_machine_model("spr")
        intel = get_parser("x86_intel").parse(
            "vfmadd231sd xmm8, xmm2, xmm1\nsub rax, 1\njnz .L\n"
        )
        att = get_parser("x86").parse(
            "vfmadd231sd %xmm1, %xmm2, %xmm8\nsubq $1, %rax\njnz .L\n"
        )
        sa = CycleEngine().run(build_uop_plan(intel, model), 60, 20)
        sb = CycleEngine().run(build_uop_plan(att, model), 60, 20)
        assert sa.cycles_per_iteration == sb.cycles_per_iteration
