"""AT&T x86-64 parser behaviour."""

import pytest

from repro.isa import parse_kernel
from repro.isa.operands import Immediate, LabelOperand, MemoryOperand, Register
from repro.isa.parser_base import ParseError
from repro.isa.parser_x86 import ParserX86ATT


def parse_one(line: str):
    instrs = parse_kernel(line, "x86")
    assert len(instrs) == 1
    return instrs[0]


class TestOperandParsing:
    def test_register_operand(self):
        i = parse_one("movq %rax, %rbx")
        assert all(isinstance(o, Register) for o in i.operands)
        assert i.operands[0].root == "rax"

    def test_immediate_decimal_and_hex(self):
        assert parse_one("addq $8, %rax").operands[0].value == 8
        assert parse_one("addq $0x10, %rax").operands[0].value == 16
        assert parse_one("addq $-4, %rax").operands[0].value == -4

    def test_symbolic_immediate(self):
        i = parse_one("movsd $.LC0, %xmm0")
        assert isinstance(i.operands[0], Immediate)

    def test_memory_full_form(self):
        i = parse_one("vmovupd 16(%rax,%rcx,8), %ymm0")
        m = i.operands[0]
        assert isinstance(m, MemoryOperand)
        assert m.base.root == "rax"
        assert m.index.root == "rcx"
        assert m.scale == 8
        assert m.displacement == 16

    def test_memory_base_only(self):
        m = parse_one("movq (%rdx), %rax").operands[0]
        assert m.base.root == "rdx"
        assert m.index is None
        assert m.displacement == 0

    def test_memory_index_only(self):
        m = parse_one("movq 8(,%rcx,4), %rax").operands[0]
        assert m.base is None
        assert m.index.root == "rcx"
        assert m.scale == 4

    def test_rip_relative(self):
        m = parse_one("vmovsd .LC1(%rip), %xmm0").operands[0]
        assert m.base.reg_class.name == "IP"

    def test_negative_displacement(self):
        m = parse_one("vmovupd -8(%rax,%rcx,8), %ymm0").operands[0]
        assert m.displacement == -8

    def test_gather_vector_index(self):
        m = parse_one("vgatherdpd (%rax,%zmm1,8), %zmm0{%k1}").operands[0]
        assert m.index.reg_class.name == "VEC"

    def test_mask_annotation_recorded_as_read(self):
        i = parse_one("vmovupd (%rax), %zmm0{%k2}")
        assert "k2" in i.implicit_reads

    def test_label_operand(self):
        i = parse_one("jb .L4")
        assert isinstance(i.operands[0], LabelOperand)

    def test_bad_register_raises(self):
        with pytest.raises(ParseError):
            ParserX86ATT().parse("movq %nonsense, %rax")

    def test_bad_scale_raises(self):
        with pytest.raises(ParseError):
            ParserX86ATT().parse("movq (%rax,%rcx,x), %rbx")


class TestSemantics:
    def test_mov_writes_without_reading_dest(self):
        i = parse_one("movq %rax, %rbx")
        assert i.register_reads() == ("rax",)
        assert i.register_writes() == ("rbx",)

    def test_add_is_rmw(self):
        i = parse_one("addq %rax, %rbx")
        assert set(i.register_reads()) == {"rax", "rbx"}
        assert "rbx" in i.register_writes()
        assert "rflags" in i.register_writes()

    def test_vex_three_operand_writes_dest_only(self):
        i = parse_one("vaddpd %ymm1, %ymm2, %ymm3")
        assert set(i.register_reads()) == {"zmm1", "zmm2"}
        assert i.register_writes() == ("zmm3",)

    def test_fma_reads_dest(self):
        i = parse_one("vfmadd231pd %ymm1, %ymm2, %ymm3")
        assert "zmm3" in i.register_reads()
        assert i.register_writes() == ("zmm3",)

    def test_store_writes_memory_not_register(self):
        i = parse_one("vmovupd %ymm0, (%rax)")
        assert i.is_store and not i.is_load
        assert i.register_writes() == ()
        assert set(i.register_reads()) == {"zmm0", "rax"}

    def test_load_reads_address_registers(self):
        i = parse_one("vmovupd 8(%rax,%rcx,4), %ymm0")
        assert i.is_load and not i.is_store
        assert set(i.register_reads()) == {"rax", "rcx"}

    def test_cmp_writes_flags_only(self):
        i = parse_one("cmpq %rsi, %rcx")
        assert i.register_writes() == ("rflags",)

    def test_conditional_jump_reads_flags(self):
        i = parse_one("jne .L2")
        assert "rflags" in i.register_reads()
        assert i.is_branch

    def test_unconditional_jump_does_not_read_flags(self):
        i = parse_one("jmp .L2")
        assert "rflags" not in i.register_reads()

    def test_lea_is_not_a_load(self):
        i = parse_one("lea 8(%rax,%rcx,8), %rdx")
        assert not i.is_load
        assert set(i.register_reads()) == {"rax", "rcx"}
        assert i.register_writes() == ("rdx",)

    def test_rmw_memory_op_is_load_and_store(self):
        i = parse_one("addq $8, (%rax)")
        assert i.is_load and i.is_store

    def test_div_implicit_rax_rdx(self):
        i = parse_one("idivq %rcx")
        assert {"rax", "rdx"} <= set(i.register_reads())
        assert {"rax", "rdx"} <= set(i.register_writes())

    def test_push_pop_touch_rsp(self):
        assert "rsp" in parse_one("pushq %rbx").register_writes()
        assert "rsp" in parse_one("popq %rbx").register_writes()

    def test_lock_prefix_folded(self):
        i = parse_one("lock addq $1, (%rax)")
        assert i.mnemonic == "addq"

    def test_cmov_reads_flags(self):
        i = parse_one("cmovne %rax, %rbx")
        assert "rflags" in i.register_reads()


class TestListing:
    def test_labels_attach_to_next_instruction(self):
        instrs = parse_kernel(".L4:\n  addq $1, %rax\n  jb .L4\n", "x86")
        assert instrs[0].label == ".L4"
        assert instrs[1].label is None

    def test_directives_and_comments_skipped(self):
        src = """
        .text
        .align 16
        # a comment
        movq %rax, %rbx  # trailing comment
        """
        instrs = parse_kernel(src, "x86")
        assert len(instrs) == 1

    def test_line_numbers_recorded(self):
        instrs = parse_kernel("\n\nmovq %rax, %rbx\n", "x86")
        assert instrs[0].line_number == 3

    def test_empty_source(self):
        assert parse_kernel("", "x86") == []

    def test_is_vector_property(self):
        assert parse_one("vaddpd %ymm1, %ymm2, %ymm3").is_vector
        assert not parse_one("addq %rax, %rbx").is_vector
