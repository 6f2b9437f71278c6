"""Operand read/write semantics per ISA.

Given a mnemonic and parsed operands, decide which operands are read,
which are written, and which registers are touched implicitly (flags,
``rsp``, ``rax:rdx`` for x86 divide, …).  The rules are data-driven with
per-ISA defaults:

* **x86 (AT&T)** — destination last.  Two-operand integer arithmetic is
  read-modify-write; ``mov``-family and three-operand VEX/EVEX forms
  write the destination without reading it; FMA reads its destination.
* **AArch64** — destination first.  Loads write their first operand(s),
  stores read them; ``fmla``-family and merging-predicated SVE ops read
  the destination.

These rules intentionally cover the instruction vocabulary emitted by
:mod:`repro.kernels.codegen` plus common compiler output; unknown
mnemonics fall back to the ISA default, which is correct for the large
majority of ALU-style operations.
"""

from __future__ import annotations

from .instruction import OperandAccess
from .operands import MemoryOperand, Operand, Register, LabelOperand

R = OperandAccess.READ
W = OperandAccess.WRITE
RW = OperandAccess.READWRITE
N = OperandAccess.NONE

# ---------------------------------------------------------------------------
# x86-64 (AT&T operand order: sources first, destination last)
# ---------------------------------------------------------------------------

#: mnemonic stems whose destination is written without being read
_X86_MOV_LIKE = {
    "mov", "movzx", "movsx", "movzb", "movsb", "movabs",
    "movap", "movup", "movdq", "movq", "movd", "movs", "movh", "movl",
    "vmovap", "vmovup", "vmovdq", "vmovq", "vmovd", "vmovs", "vmovntp",
    "movntp", "movnti", "movntdq", "vmovntdq",
    "lea",
    "cvt", "vcvt",
    "set",
    "vbroadcast", "vpbroadcast", "broadcast",
    "vgather", "gather",
    "pxor_zero",  # placeholder, zero idioms resolved in analysis
}

#: stems that read all operands and only write flags
_X86_COMPARE = {"cmp", "test", "vcomis", "vucomis", "comis", "ucomis", "ptest", "vptest"}

#: stems whose destination is read-modify-write even in VEX 3-op form
_X86_FMA_STEMS = ("vfmadd", "vfmsub", "vfnmadd", "vfnmsub")

#: two-operand RMW integer/SSE arithmetic (AT&T: op src, dst)
_X86_RMW = {
    "add", "sub", "adc", "sbb", "and", "or", "xor", "imul",
    "sal", "sar", "shl", "shr", "rol", "ror",
    "addp", "subp", "mulp", "divp", "adds", "subs", "muls", "divs",
    "minp", "maxp", "mins", "maxs", "sqrtp", "sqrts",
    "pand", "pandn", "por", "pxor", "padd", "psub", "pmul",
    "unpck", "punpck", "shufp", "pshuf",
    "xorp", "andp", "orp",
}

_X86_FLAG_WRITERS = {
    "add", "sub", "adc", "sbb", "and", "or", "xor", "neg", "inc", "dec",
    "imul", "mul", "div", "idiv", "cmp", "test", "sal", "sar", "shl",
    "shr", "rol", "ror", "bt", "bsr", "bsf", "popcnt", "lzcnt", "tzcnt",
    "comis", "ucomis", "vcomis", "vucomis", "ptest", "vptest",
}

_X86_SIZE_SUFFIXES = "bwlq"

#: mnemonic stems that take AT&T size suffixes — stripping is only safe
#: when the remainder is one of these (``addq`` → ``add``), never for
#: suffix-less Intel-dialect mnemonics (``add``, ``imul``, ``bswap``)
_X86_STRIPPABLE_STEMS = frozenset({
    "mov", "movabs", "movzx", "movsx", "add", "sub", "adc", "sbb",
    "and", "or", "xor", "cmp", "test", "lea", "inc", "dec", "neg",
    "not", "shl", "sal", "sar", "shr", "rol", "ror", "push", "pop",
    "imul", "idiv", "div", "mul", "xadd", "cmpxchg", "bswap", "xchg",
    "bt", "bts", "btr", "btc", "bsf", "bsr", "popcnt", "lzcnt",
    "tzcnt", "adcx", "adox", "andn", "movnti",
})


def _x86_stem(mnemonic: str) -> str:
    """Strip a trailing AT&T size suffix from integer mnemonics.

    ``addq`` → ``add``, ``movl`` → ``mov``; mnemonics that merely *end*
    in a suffix letter (``add``, ``imul``) are left intact via the
    known-stem whitelist.
    """
    m = mnemonic
    if m[-1] in _X86_SIZE_SUFFIXES and m[:-1] in _X86_STRIPPABLE_STEMS:
        return m[:-1]
    return m


def _matches(mnemonic: str, stems) -> bool:
    return any(mnemonic.startswith(s) for s in stems)


def x86_semantics(
    mnemonic: str, operands: tuple[Operand, ...]
) -> tuple[tuple[OperandAccess, ...], tuple[str, ...], tuple[str, ...]]:
    """Return ``(accesses, implicit_reads, implicit_writes)`` for x86."""
    m = mnemonic.lower()
    stem = _x86_stem(m)
    n = len(operands)
    imp_r: list[str] = []
    imp_w: list[str] = []

    if n == 0:
        if stem in ("cdq", "cqo", "cdqe"):
            return (), ("rax",), ("rdx", "rax")
        return (), (), ()

    # Branches: read a label (and flags for conditional forms).
    if m.startswith("j"):
        if m not in ("jmp",):
            imp_r.append("rflags")
        return tuple(N for _ in operands), tuple(imp_r), ()

    if stem in ("call", "ret"):
        imp_r.append("rsp")
        imp_w.append("rsp")
        return tuple(R for _ in operands), tuple(imp_r), tuple(imp_w)

    if stem == "push":
        imp_r.append("rsp")
        imp_w.append("rsp")
        return (R,), tuple(imp_r), tuple(imp_w)
    if stem == "pop":
        imp_r.append("rsp")
        imp_w.append("rsp")
        return (W,), tuple(imp_r), tuple(imp_w)

    if stem in ("div", "idiv", "mul") and n == 1:
        # one-operand forms use rdx:rax implicitly
        imp_r += ["rax", "rdx"]
        imp_w += ["rax", "rdx", "rflags"]
        return (R,), tuple(imp_r), tuple(imp_w)

    if stem in ("inc", "dec", "neg", "not") and n == 1:
        if stem != "not":
            imp_w.append("rflags")
        return (RW,), tuple(imp_r), tuple(imp_w)

    if _matches(stem, _X86_COMPARE) or _matches(m, _X86_COMPARE):
        imp_w.append("rflags")
        return tuple(R for _ in operands), tuple(imp_r), tuple(imp_w)

    if m.startswith("cmov") or m.startswith("set"):
        imp_r.append("rflags")

    # Shift-by-cl reads rcx.
    if stem in ("sal", "sar", "shl", "shr", "rol", "ror") and n >= 1:
        first = operands[0]
        if isinstance(first, Register) and first.root == "rcx":
            pass  # explicit operand, already read

    accesses: list[OperandAccess] = [R] * n

    if _matches(m, _X86_FMA_STEMS):
        accesses[-1] = RW
    elif _matches(stem, _X86_MOV_LIKE) or _matches(m, _X86_MOV_LIKE):
        accesses[-1] = W
    elif n >= 3:
        # VEX/EVEX three-operand: dst written only.
        accesses[-1] = W
    elif n == 2:
        if _matches(stem, _X86_RMW) or _matches(m, _X86_RMW):
            accesses[-1] = RW
        else:
            accesses[-1] = W
    else:  # single operand default
        accesses[-1] = RW

    # lea computes an address: the memory operand is not an access.
    if stem == "lea":
        accesses = [N if isinstance(o, MemoryOperand) else a for o, a in zip(operands, accesses)]
        accesses[-1] = W

    if stem in _X86_FLAG_WRITERS or m in _X86_FLAG_WRITERS:
        imp_w.append("rflags")

    return tuple(accesses), tuple(imp_r), tuple(imp_w)


# ---------------------------------------------------------------------------
# AArch64 (destination-first operand order)
# ---------------------------------------------------------------------------

_A64_STORES = (
    "str", "strb", "strh", "stur", "stp", "stnp",
    "st1", "st2", "st3", "st4", "st1b", "st1h", "st1w", "st1d", "stnt1d", "stnt1w",
)
_A64_LOADS = (
    "ldr", "ldrb", "ldrh", "ldrsb", "ldrsh", "ldrsw", "ldur", "ldp", "ldnp",
    "ld1", "ld2", "ld3", "ld4", "ld1b", "ld1h", "ld1w", "ld1d", "ld1rd", "ld1rw",
    "ldnt1d", "ldnt1w", "ld1rqd",
)
_A64_COMPARES = ("cmp", "cmn", "tst", "ccmp", "fcmp", "fccmp", "fcmpe")
_A64_DEST_RMW = ("fmla", "fmls", "fnmla", "fnmls", "mla", "mls", "bsl", "fcmla", "bit", "bif")
_A64_FLAG_READ_BRANCHES = ("b.",)


def a64_semantics(
    mnemonic: str, operands: tuple[Operand, ...]
) -> tuple[tuple[OperandAccess, ...], tuple[str, ...], tuple[str, ...]]:
    """Return ``(accesses, implicit_reads, implicit_writes)`` for AArch64."""
    m = mnemonic.lower()
    n = len(operands)
    imp_r: list[str] = []
    imp_w: list[str] = []

    if n == 0:
        return (), (), ()

    if m.startswith("b.") or m in ("b", "br", "ret", "bl", "blr"):
        if m.startswith("b."):
            imp_r.append("nzcv")
        return tuple(N if isinstance(o, LabelOperand) else R for o in operands), tuple(imp_r), ()

    if m in ("cbz", "cbnz", "tbz", "tbnz"):
        return tuple(N if isinstance(o, LabelOperand) else R for o in operands), (), ()

    if m in _A64_COMPARES or (m.endswith("s") and m[:-1] in ("sub", "add", "and", "bic")):
        # cmp/…; also flag-setting arithmetic subs/adds/ands write a dest.
        if m in _A64_COMPARES:
            imp_w.append("nzcv")
            return tuple(R for _ in operands), tuple(imp_r), tuple(imp_w)
        imp_w.append("nzcv")

    exact = m.split(".")[0]
    if exact in _A64_STORES:
        accesses: list[OperandAccess] = []
        for o in operands:
            if isinstance(o, MemoryOperand):
                accesses.append(W)
            else:
                accesses.append(R)
        return tuple(accesses), tuple(imp_r), tuple(imp_w)

    if exact in _A64_LOADS:
        accesses = []
        seen_mem = False
        for o in operands:
            if isinstance(o, MemoryOperand):
                accesses.append(R)
                seen_mem = True
            elif isinstance(o, Register) and o.reg_class.name == "PRED":
                accesses.append(R)
            elif not seen_mem:
                accesses.append(W)
            else:
                accesses.append(R)
        return tuple(accesses), tuple(imp_r), tuple(imp_w)

    if m == "whilelo" or m.startswith("whilel"):
        imp_w.append("nzcv")
        return (W,) + tuple(R for _ in operands[1:]), tuple(imp_r), tuple(imp_w)

    if m == "csel" or m.startswith("cs") or m.startswith("fcsel"):
        imp_r.append("nzcv")

    accesses = [W] + [R] * (n - 1)

    if any(m.startswith(s) for s in _A64_DEST_RMW):
        accesses[0] = RW

    # Merging predication (pN/m) makes the destination a read too; the
    # predicate operand itself is always a read.
    for i, o in enumerate(operands):
        if isinstance(o, Register) and o.predication == "m" and accesses[0] == W:
            accesses[0] = RW

    return tuple(accesses), tuple(imp_r), tuple(imp_w)
