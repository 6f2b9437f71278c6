"""Operand model shared by both ISAs.

Every parsed instruction operand is one of four concrete types:

* :class:`Register` — an architectural register with width, class, and a
  *root* name used for dependency tracking across aliasing widths
  (``eax`` ↔ ``rax``, ``xmm3`` ↔ ``zmm3``, ``w5`` ↔ ``x5``, ``v7`` ↔ ``z7``).
* :class:`Immediate` — a literal constant.
* :class:`MemoryOperand` — a memory reference with base/index/scale/
  displacement and (AArch64) pre/post-increment addressing.
* :class:`LabelOperand` — a branch target or symbol reference.

All operand types are immutable value objects; equality and hashing are
structural so they can be used as dictionary keys in dependency analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class RegisterClass(enum.Enum):
    """Coarse register classes used for dependency and port analysis."""

    GPR = "gpr"  #: general-purpose integer register
    VEC = "vec"  #: SIMD/FP vector register (xmm/ymm/zmm, v, z)
    MASK = "mask"  #: x86 AVX-512 mask register (k0-k7)
    PRED = "pred"  #: SVE predicate register (p0-p15)
    FLAGS = "flags"  #: condition flags (rflags / NZCV)
    IP = "ip"  #: instruction pointer (rip-relative addressing)
    ZERO = "zero"  #: hardwired zero register (xzr/wzr) — never a dependency


@dataclass(frozen=True)
class Operand:
    """Abstract base for all operand kinds."""


@dataclass(frozen=True)
class Register(Operand):
    """An architectural register.

    Parameters
    ----------
    name:
        The register name exactly as written in the assembly (lowercase,
        without AT&T ``%`` prefix and without AArch64 arrangement
        specifiers; ``v0.2d`` parses to name ``v0`` with
        ``arrangement='2d'``).
    reg_class:
        Coarse class; see :class:`RegisterClass`.
    width:
        Access width in bits (the width *named*, e.g. ``eax`` is 32 even
        though it aliases a 64-bit root).
    root:
        Canonical name of the full-width register this one aliases, used
        as the dependency-tracking key.
    arrangement:
        AArch64 element arrangement (``2d``, ``4s``, …) or SVE element
        size suffix (``d``, ``s``); ``None`` for x86 and scalar accesses.
    predication:
        SVE predication mode of a ``pN/z`` or ``pN/m`` operand
        (``'z'`` zeroing, ``'m'`` merging), else ``None``.
    """

    name: str
    reg_class: RegisterClass
    width: int
    root: str
    arrangement: Optional[str] = None
    predication: Optional[str] = None

    def __str__(self) -> str:
        if self.arrangement:
            return f"{self.name}.{self.arrangement}"
        return self.name

    @property
    def is_vector(self) -> bool:
        return self.reg_class is RegisterClass.VEC

    @property
    def is_zero(self) -> bool:
        return self.reg_class is RegisterClass.ZERO


@dataclass(frozen=True)
class Immediate(Operand):
    """A literal integer or floating-point constant."""

    value: float
    raw: str = ""

    def __str__(self) -> str:
        return self.raw or str(self.value)


@dataclass(frozen=True)
class MemoryOperand(Operand):
    """A memory reference.

    x86 AT&T form ``disp(base, index, scale)`` and AArch64 forms
    ``[base, index, lsl #s]`` / ``[base, #imm]`` / ``[base, #imm]!``
    (pre-index) / ``[base], #imm`` (post-index) all normalize to this.

    ``base`` and ``index`` are :class:`Register` or ``None``; writeback
    addressing modes additionally *write* the base register, which the
    semantics layer accounts for.
    """

    base: Optional[Register] = None
    index: Optional[Register] = None
    scale: int = 1
    displacement: int = 0
    pre_indexed: bool = False
    post_indexed: bool = False
    segment: Optional[str] = None

    def __str__(self) -> str:
        parts = []
        if self.base is not None:
            parts.append(self.base.name)
        if self.index is not None:
            parts.append(f"{self.index.name}*{self.scale}")
        inner = "+".join(parts) if parts else "abs"
        if self.displacement:
            inner += f"{self.displacement:+d}"
        suffix = "!" if self.pre_indexed else ("++" if self.post_indexed else "")
        return f"[{inner}]{suffix}"

    @property
    def has_writeback(self) -> bool:
        return self.pre_indexed or self.post_indexed

    def address_registers(self) -> tuple[Register, ...]:
        """Registers read to compute the effective address."""
        regs = []
        if self.base is not None and not self.base.is_zero:
            regs.append(self.base)
        if self.index is not None and not self.index.is_zero:
            regs.append(self.index)
        return tuple(regs)


@dataclass(frozen=True)
class LabelOperand(Operand):
    """A branch target or symbol name."""

    name: str

    def __str__(self) -> str:
        return self.name
