"""Instruction dataclass helpers and the base parser machinery."""

import pytest

from repro.isa import parse_kernel
from repro.isa.instruction import OperandAccess
from repro.isa.parser_base import ParseError
from repro.isa.parser_x86 import ParserX86ATT


def one(line, isa="x86"):
    return parse_kernel(line, isa)[0]


class TestInstructionHelpers:
    def test_str_roundtrip_readable(self):
        i = one("vaddpd %ymm1, %ymm2, %ymm3")
        assert str(i) == "vaddpd ymm1, ymm2, ymm3"

    def test_memory_operands_property(self):
        i = one("vfmadd231pd (%rax), %ymm1, %ymm2")
        assert len(i.memory_operands) == 1

    def test_destination_and_source_operands(self):
        i = one("vaddpd %ymm1, %ymm2, %ymm3")
        assert [o.root for o in i.destination_operands()] == ["zmm3"]
        assert {o.root for o in i.source_operands()} == {"zmm1", "zmm2"}

    def test_rmw_operand_in_both(self):
        i = one("addq %rax, %rbx")
        dests = {o.root for o in i.destination_operands()}
        srcs = {o.root for o in i.source_operands()}
        assert "rbx" in dests and "rbx" in srcs

    def test_operand_access_flags(self):
        assert OperandAccess.READWRITE & OperandAccess.READ
        assert OperandAccess.READWRITE & OperandAccess.WRITE
        assert not (OperandAccess.READ & OperandAccess.WRITE)

    def test_is_vector_aarch64_scalar_view(self):
        assert not one("fadd d0, d1, d2", "aarch64").is_vector
        assert one("fadd v0.2d, v1.2d, v2.2d", "aarch64").is_vector
        assert one("fadd z0.d, z1.d, z2.d", "aarch64").is_vector

    def test_branch_classification_aarch64(self):
        for line in ("b .L", "b.ne .L", "cbz x0, .L", "ret"):
            assert one(line, "aarch64").is_branch
        assert not one("add x0, x1, x2", "aarch64").is_branch

    def test_duplicate_reads_deduplicated(self):
        i = one("vmulpd %ymm1, %ymm1, %ymm2")
        assert i.register_reads().count("zmm1") == 1


class TestBaseParser:
    def test_strip_comment_markers(self):
        p = ParserX86ATT()
        assert p.strip_comment("addq $1, %rax # note") == "addq $1, %rax "
        assert p.strip_comment("addq $1, %rax ; note") == "addq $1, %rax "

    def test_block_comments_removed(self):
        instrs = parse_kernel("/* header\nspanning lines */\naddq $1, %rax\n", "x86")
        assert len(instrs) == 1

    def test_label_only_line(self):
        instrs = parse_kernel(".L1:\n.L2:\naddq $1, %rax\n", "x86")
        assert len(instrs) == 1
        assert instrs[0].label == ".L2"  # nearest label wins

    def test_parse_error_carries_location(self):
        with pytest.raises(ParseError) as exc:
            ParserX86ATT().parse("\nmovq %bogus, %rax\n")
        assert "line 2" in str(exc.value)

    def test_unknown_isa_rejected(self):
        from repro.isa import get_parser

        with pytest.raises(ValueError):
            get_parser("mips")

    def test_directive_lines_skipped(self):
        src = ".align 64\n.p2align 4,,10\naddq $1, %rax\n.cfi_endproc\n"
        assert len(parse_kernel(src, "x86")) == 1
