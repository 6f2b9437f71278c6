"""Instruction IR.

An :class:`Instruction` is a parsed assembly line with resolved operand
read/write semantics.  The semantics are attached by the per-ISA parser
(via :mod:`repro.isa.semantics`) so that downstream consumers — the
dependency analyzer and the core simulator — never need ISA-specific
knowledge beyond what is recorded here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .operands import (
    MemoryOperand,
    Operand,
    Register,
    RegisterClass,
)


class OperandAccess(enum.Flag):
    """How an instruction touches one of its operands."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    READWRITE = READ | WRITE


@dataclass(frozen=True)
class Instruction:
    """A single parsed machine instruction.

    Attributes
    ----------
    mnemonic:
        Lowercase mnemonic, including AT&T size suffix for x86 where the
        assembler wrote one (``addq``) and without condition suffix
        splitting for AArch64 (``b.lt`` stays whole).
    operands:
        Parsed operands in source order (AT&T order for x86: sources
        first, destination last).
    accesses:
        Per-operand :class:`OperandAccess`, parallel to ``operands``.
    implicit_reads / implicit_writes:
        Root register names touched without appearing as operands
        (e.g. flags for ``cmp``, the base register of a post-indexed
        AArch64 load).
    """

    mnemonic: str
    operands: tuple[Operand, ...]
    isa: str
    accesses: tuple[OperandAccess, ...] = ()
    implicit_reads: tuple[str, ...] = ()
    implicit_writes: tuple[str, ...] = ()
    label: Optional[str] = None
    line: str = ""
    line_number: int = 0

    # -- classification ----------------------------------------------------

    @property
    def is_branch(self) -> bool:
        m = self.mnemonic
        if self.isa in ("x86", "x86_64"):
            return m.startswith(("j", "loop")) and m != "jecxz_not_real"
        return m in ("b", "br", "bl", "blr", "ret", "cbz", "cbnz", "tbz", "tbnz") or m.startswith("b.")

    @property
    def memory_operands(self) -> tuple[MemoryOperand, ...]:
        return tuple(o for o in self.operands if isinstance(o, MemoryOperand))

    @property
    def is_load(self) -> bool:
        """True if the instruction reads from memory."""
        return any(
            isinstance(o, MemoryOperand) and (a & OperandAccess.READ)
            for o, a in zip(self.operands, self.accesses)
        )

    @property
    def is_store(self) -> bool:
        """True if the instruction writes to memory."""
        return any(
            isinstance(o, MemoryOperand) and (a & OperandAccess.WRITE)
            for o, a in zip(self.operands, self.accesses)
        )

    @property
    def is_vector(self) -> bool:
        """True if any operand is a vector register used as a vector.

        AArch64 scalar FP (``d0``-style views) counts as non-vector; an
        arrangement specifier (``v0.2d``) or SVE register counts as
        vector.  For x86, any xmm/ymm/zmm operand counts (the ``pd``/
        ``ps`` packed-vs-``sd``/``ss`` scalar distinction lives in the
        mnemonic and matters only for the machine model lookup).
        """
        for o in self.operands:
            if isinstance(o, Register) and o.reg_class is RegisterClass.VEC:
                if self.isa in ("x86", "x86_64"):
                    return True
                if o.arrangement is not None or o.name.startswith("z"):
                    return True
        return False

    # -- dependency interface ----------------------------------------------

    def register_reads(self) -> tuple[str, ...]:
        """Root names of all registers read (explicit + address + implicit).

        The result only depends on frozen fields, so it is computed once
        and cached on the instance (timeline simulators ask per dynamic
        instance; ``__dict__`` storage keeps dataclass eq/hash untouched).
        """
        cached = self.__dict__.get("_register_reads")
        if cached is not None:
            return cached
        roots: list[str] = []
        for op, acc in zip(self.operands, self.accesses):
            if isinstance(op, Register):
                if (acc & OperandAccess.READ) and not op.is_zero:
                    roots.append(op.root)
            elif isinstance(op, MemoryOperand):
                # Address registers are read regardless of load/store.
                for r in op.address_registers():
                    roots.append(r.root)
        roots.extend(self.implicit_reads)
        reads = tuple(dict.fromkeys(roots))
        object.__setattr__(self, "_register_reads", reads)
        return reads

    def register_writes(self) -> tuple[str, ...]:
        """Root names of all registers written (explicit + implicit).

        Cached per instance like :meth:`register_reads`.
        """
        cached = self.__dict__.get("_register_writes")
        if cached is not None:
            return cached
        roots: list[str] = []
        for op, acc in zip(self.operands, self.accesses):
            if isinstance(op, Register) and (acc & OperandAccess.WRITE):
                if not op.is_zero:
                    roots.append(op.root)
            elif isinstance(op, MemoryOperand) and op.has_writeback:
                if op.base is not None:
                    roots.append(op.base.root)
        roots.extend(self.implicit_writes)
        writes = tuple(dict.fromkeys(roots))
        object.__setattr__(self, "_register_writes", writes)
        return writes

    def destination_operands(self) -> tuple[Operand, ...]:
        return tuple(
            o
            for o, a in zip(self.operands, self.accesses)
            if a & OperandAccess.WRITE
        )

    def source_operands(self) -> tuple[Operand, ...]:
        return tuple(
            o
            for o, a in zip(self.operands, self.accesses)
            if a & OperandAccess.READ
        )

    # -- misc ---------------------------------------------------------------

    def __str__(self) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        return f"{self.mnemonic} {ops}".strip()
