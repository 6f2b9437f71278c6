"""Dependency-breaking and macro-fusion idiom recognition.

Modern renamers execute certain instruction patterns at zero cost and,
more importantly, *without* reading their nominal source operands:

* x86 ``xor %eax, %eax`` / ``pxor``/``vxorps``/``vpxor`` with identical
  source registers — recognized zeroing idioms since Sandy Bridge /
  Zen 1.
* x86 ``sub r, r`` / ``vpsubd x, x, x`` etc. with identical sources.
* AArch64 ``movi v0.2d, #0`` / ``eor``-with-self and SVE ``dup z0.d, #0``
  are regular (cheap) instructions, not renamer idioms, so they are not
  treated here.

Two places consult :func:`is_zero_idiom`: the dataflow derivation
(:mod:`repro.isa.dataflow`), so that a zeroed register starts a fresh
dependency chain where the renaming assumes zero idioms, and
:meth:`~repro.machine.model.MachineModel.resolve`, which gives such an
idiom no µops on a machine that eliminates it.

:func:`macro_fuses` is the one x86 macro-fusion rule that both the
analyzer's frontend term and the simulator's dispatch plan apply.
"""

from __future__ import annotations

from .instruction import Instruction
from .operands import Register

_X86_ZERO_STEMS = (
    "xor", "pxor", "vpxor", "xorps", "xorpd", "vxorps", "vxorpd",
    "sub", "psub", "vpsub", "sbb_not",  # sbb r,r is a *ones* idiom, excluded
)
_X86_NON_IDEMPOTENT = ("subsd", "subss", "subpd", "subps", "vsubpd", "vsubps", "vsubsd", "vsubss")


def is_zero_idiom(instr: Instruction) -> bool:
    """True if *instr* is a recognized same-register zeroing idiom."""
    if instr.isa not in ("x86", "x86_64"):
        return False
    m = instr.mnemonic
    # FP subtract is NOT an idiom (x - x != 0 for NaN/Inf semantics).
    if m.startswith(_X86_NON_IDEMPOTENT):
        return False
    stem = m.rstrip("bwlq") if m[:3] in ("xor", "sub") else m
    if not (stem.startswith(_X86_ZERO_STEMS) or m.startswith(_X86_ZERO_STEMS)):
        return False
    regs = [o for o in instr.operands if isinstance(o, Register)]
    if len(regs) < 2 or len(regs) != len(instr.operands):
        return False
    roots = {r.root for r in regs}
    return len(roots) == 1


#: flag-setting x86 ops that macro-fuse with a following conditional jump
_X86_FUSIBLE = ("cmp", "test", "add", "sub", "and", "inc", "dec")


def macro_fuses(instr: Instruction, nxt: Instruction) -> bool:
    """True if x86 *instr* macro-fuses with the conditional jump *nxt*.

    The pair decodes into one fused-domain slot.  At most one AT&T size
    suffix is stripped, so ``sub``/``subq`` fuse like ``cmp``/``cmpq``.
    """
    if instr.isa not in ("x86", "x86_64") or not nxt.is_branch or nxt.mnemonic == "jmp":
        return False
    m = instr.mnemonic
    return m in _X86_FUSIBLE or (m[-1:] in ("b", "w", "l", "q") and m[:-1] in _X86_FUSIBLE)
