"""AArch64 (A64) assembly parser.

Handles the GNU/LLVM assembler dialect emitted by GCC and (Arm)Clang,
including the NEON and SVE forms used by the kernel code generator:

* GPRs ``x0``/``w0``, zero registers, ``sp``
* NEON vectors with arrangement ``v3.2d``, scalar FP views ``d0``/``s1``/``q2``
* SVE vectors ``z4.d`` and predicates ``p0``, ``p1/z``, ``p2/m``
* immediates ``#16``, ``#0x10``, ``#1.0``
* memory ``[x0]``, ``[x0, #8]``, ``[x0, #8]!`` (pre-index),
  ``[x0], #8`` (post-index), ``[x0, x1, lsl #3]``, ``[x0, w1, sxtw 3]``
* shifted/extended register operands ``x2, lsl #2`` (modifier folded
  into the preceding register operand)
"""

from __future__ import annotations

import re
from typing import Optional

from .instruction import Instruction
from .operands import Immediate, LabelOperand, MemoryOperand, Operand
from .parser_base import BaseParser, ParseError, split_operands
from .registers import is_register_name, make_register
from .semantics import a64_semantics

_REG_ARR_RE = re.compile(r"^([vz]\d+)\.([0-9]*[bhsdq])$")
_PRED_RE = re.compile(r"^(p\d+)(?:\.([bhsd]))?(?:/([zm]))?$")
_SHIFT_MOD_RE = re.compile(
    r"^(lsl|lsr|asr|ror|uxtb|uxth|uxtw|uxtx|sxtb|sxth|sxtw|sxtx|mul vl)\b",
    re.I,
)
_POST_INDEX_IMM_RE = re.compile(r"^#?-?\d+$")


class ParserAArch64(BaseParser):
    """Parser for AArch64 assembly."""

    isa = "aarch64"
    comment_markers = ("//", "@", ";")

    def parse_line(self, line: str, number: int) -> Optional[Instruction]:
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""

        tokens = split_operands(operand_text)
        operands: list[Operand] = []
        i = 0
        while i < len(tokens):
            token = tokens[i]
            # Fold shift/extend modifiers into the previous register.
            if _SHIFT_MOD_RE.match(token) and operands:
                i += 1
                continue
            op = self._parse_operand(token, line, number)
            # Post-index addressing: "[x0], #8" splits into the memory
            # operand followed by a bare immediate.
            if (
                isinstance(op, MemoryOperand)
                and not op.has_writeback
                and i + 1 < len(tokens)
                and _POST_INDEX_IMM_RE.match(tokens[i + 1])
            ):
                imm = int(tokens[i + 1].lstrip("#"), 0)
                op = MemoryOperand(
                    base=op.base,
                    index=op.index,
                    scale=op.scale,
                    displacement=imm,
                    post_indexed=True,
                )
                i += 1
            operands.append(op)
            i += 1

        accesses, imp_r, imp_w = a64_semantics(mnemonic, tuple(operands))
        return Instruction(
            mnemonic=mnemonic,
            operands=tuple(operands),
            isa="aarch64",
            accesses=accesses,
            implicit_reads=imp_r,
            implicit_writes=imp_w,
            line=line,
            line_number=number,
        )

    # ------------------------------------------------------------------

    def _parse_operand(self, token: str, line: str, number: int) -> Operand:
        token = token.strip()

        if token.startswith("[") :
            return self._parse_memory(token, line, number)

        if token.startswith("#"):
            return self._parse_immediate(token[1:])

        if token.startswith("{") and token.endswith("}"):
            # Register list {v0.2d} / {z0.d}: single-register lists only
            # (multi-register structure loads are out of scope for the
            # kernel corpus).
            inner = token[1:-1].strip()
            return self._parse_operand(inner, line, number)

        low = token.lower()

        m = _REG_ARR_RE.match(low)
        if m:
            return make_register(m.group(1), "aarch64", arrangement=m.group(2))

        m = _PRED_RE.match(low)
        if m and is_register_name(m.group(1), "aarch64"):
            return make_register(
                m.group(1), "aarch64",
                arrangement=m.group(2), predication=m.group(3),
            )

        if is_register_name(low, "aarch64"):
            return make_register(low, "aarch64")

        # Bare numbers appear for e.g. "add x0, x1, 16" in some dialects.
        try:
            return Immediate(value=int(token, 0), raw=token)
        except ValueError:
            pass
        try:
            return Immediate(value=float(token), raw=token)
        except ValueError:
            pass

        return LabelOperand(token)

    @staticmethod
    def _parse_immediate(text: str) -> Immediate:
        text = text.strip()
        try:
            return Immediate(value=int(text, 0), raw=text)
        except ValueError:
            try:
                return Immediate(value=float(text), raw=text)
            except ValueError:
                return Immediate(value=0, raw=text)

    def _parse_memory(self, token: str, line: str, number: int) -> MemoryOperand:
        pre_indexed = token.endswith("!")
        if pre_indexed:
            token = token[:-1]
        if not token.endswith("]"):
            raise ParseError("unterminated memory operand", line, number)
        inner = token[1:-1]
        parts = [p.strip() for p in inner.split(",")]
        base = index = None
        displacement = 0
        scale = 1
        if not parts or not parts[0]:
            raise ParseError("empty memory operand", line, number)
        base_name = parts[0].lower()
        if not is_register_name(base_name, "aarch64"):
            raise ParseError(f"bad base register {parts[0]!r}", line, number)
        base = make_register(base_name, "aarch64")
        i = 1
        while i < len(parts):
            p = parts[i]
            if p.startswith("#"):
                body = p[1:]
                if "mul vl" in body:
                    body = body.split(",")[0].strip()
                try:
                    displacement = int(body.split()[0], 0)
                except ValueError:
                    displacement = 0
            elif _SHIFT_MOD_RE.match(p):
                m = re.search(r"#?(\d+)", p)
                if m:
                    scale = 1 << int(m.group(1))
            else:
                name = p.lower().split(".")[0]
                if is_register_name(name, "aarch64"):
                    index = make_register(name, "aarch64")
                elif p.strip():
                    raise ParseError(f"bad memory token {p!r}", line, number)
            i += 1
        return MemoryOperand(
            base=base,
            index=index,
            scale=scale,
            displacement=displacement,
            pre_indexed=pre_indexed,
        )
