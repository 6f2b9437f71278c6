"""The machine-model core: instruction tables and µop resolution.

The model answers one question for the analyzer and the simulator alike:
*given a parsed instruction, which µops does it decompose into, on which
ports can each µop execute, what is the result latency, and does it
occupy a non-pipelined resource?*

Entries describe **register forms**; memory operands are folded
automatically: a memory *read* adds a load µop on the model's load ports
(and load-to-use latency), a memory *write* adds store-address and
store-data µops.  This mirrors how both uops.info tables and OSACA
machine files decompose micro-fused x86 operations and keeps the table
size manageable while staying faithful.

Operand signatures
------------------
Operands are classified into one-letter codes:

===========  ==================================================
code         meaning
===========  ==================================================
``r``        general-purpose register
``i``        immediate
``m``        memory reference
``l``        label / branch target
``x y z``    x86 vector register by width (xmm/ymm/zmm)
``q``        AArch64 NEON vector or 128-bit scalar view (q-reg)
``s``        AArch64 scalar FP view (b/h/s/d regs)
``v``        AArch64 SVE vector register (z-regs)
``p``        AArch64 SVE predicate
``k``        x86 AVX-512 mask register
===========  ==================================================

A table entry's signature may use ``*`` to match any operand list.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..isa.instruction import Instruction, OperandAccess
from ..isa.operands import (
    Immediate,
    LabelOperand,
    MemoryOperand,
    Operand,
    Register,
    RegisterClass,
)


class UnknownInstructionError(KeyError):
    """Raised when strict lookup fails for an instruction form."""


@dataclass(frozen=True)
class Uop:
    """One micro-operation: a unit of work issued to exactly one port.

    ``ports`` is the candidate set; ``cycles`` is how long the chosen
    port is occupied (1.0 for fully pipelined FUs).
    """

    ports: tuple[str, ...]
    cycles: float = 1.0

    def __post_init__(self):
        if not self.ports:
            raise ValueError("uop must have at least one candidate port")


def uop(ports: str | Sequence[str], cycles: float = 1.0) -> Uop:
    """Convenience constructor: ``uop("0|1|5")`` or ``uop(["0","1"])``."""
    if isinstance(ports, str):
        parts = tuple(p.strip() for p in ports.split("|") if p.strip())
    else:
        parts = tuple(ports)
    return Uop(ports=parts, cycles=cycles)


@dataclass(frozen=True)
class InstrEntry:
    """One instruction-form entry of the machine model table.

    Parameters
    ----------
    mnemonic:
        Lowercase mnemonic; may contain ``fnmatch`` wildcards
        (``vfmadd*pd``).
    signature:
        Comma-joined operand codes (see module docstring) or ``*``.
    uops:
        Execution µops of the register form, *excluding* any load/store
        µops (folded separately).
    latency:
        Result latency in cycles from last source to result.
    throughput:
        Optional explicit reciprocal throughput (cycles per instruction)
        enforced as a dedicated resource — used for divider/gather-style
        serialized operations where port occupancy alone would
        underestimate cost.
    divider:
        Cycles on the non-pipelined divide/sqrt unit.
    """

    mnemonic: str
    signature: str
    uops: tuple[Uop, ...]
    latency: float = 1.0
    throughput: Optional[float] = None
    divider: float = 0.0
    notes: str = ""

    def matches(self, mnemonic: str, signature: str) -> bool:
        if not fnmatch.fnmatchcase(mnemonic, self.mnemonic):
            return False
        if self.signature == "*":
            return True
        return self.signature == signature


@dataclass(frozen=True)
class ResolvedInstruction:
    """An instruction bound to machine resources.

    The analyzer consumes ``uops``/``throughput``/``divider``; the
    simulator additionally uses ``latency``, ``n_loads``/``n_stores``,
    and the frontend µop count.
    """

    instruction: Instruction
    uops: tuple[Uop, ...]
    latency: float
    throughput: Optional[float]
    divider: float
    n_loads: int
    n_stores: int
    load_latency: float
    from_default: bool = False
    entry: Optional[InstrEntry] = None

    @property
    def n_uops(self) -> int:
        return len(self.uops)

    @property
    def total_latency(self) -> float:
        """Dependency-edge latency including load-to-use time."""
        return self.latency + (self.load_latency if self.n_loads else 0.0)


_X86_SUFFIXES = "bwlq"


@dataclass
class MachineModel:
    """A microarchitecture description.

    See :mod:`repro.machine` for the provided instances.  All fields are
    plain data so that tests can construct synthetic models.
    """

    name: str
    isa: str
    ports: tuple[str, ...]
    entries: list[InstrEntry]

    # memory path -----------------------------------------------------------
    load_ports: tuple[str, ...] = ()
    store_agu_ports: tuple[str, ...] = ()
    store_data_ports: tuple[str, ...] = ()
    load_latency_gpr: float = 4.0
    load_latency_vec: float = 6.0
    #: maximum bytes a single load/store port moves per cycle
    load_width_bytes: int = 32
    store_width_bytes: int = 32
    #: restricted port set for loads wider than 32 B (e.g. Golden Cove
    #: serves 512-bit loads from only two of its three load AGUs); empty
    #: means "same as load_ports"
    load_ports_wide: tuple[str, ...] = ()

    # frontend / window -----------------------------------------------------
    dispatch_width: int = 6
    retire_width: int = 8
    rob_size: int = 320
    scheduler_size: int = 96
    load_buffer: int = 72
    store_buffer: int = 56
    move_elimination: bool = True
    #: hardware eliminates same-register zero idioms (xor r,r)
    zero_idioms: bool = True

    # identification / reporting --------------------------------------------
    simd_width_bytes: int = 32
    #: ports carrying general-purpose integer ALU work (Table II "Int units")
    int_alu_ports: tuple[str, ...] = ()
    #: ports carrying FP/SIMD arithmetic (Table II "FP vector units")
    fp_ports: tuple[str, ...] = ()
    branch_ports: tuple[str, ...] = ()
    description: str = ""

    _index: dict[str, list[InstrEntry]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for p in self.load_ports + self.store_agu_ports + self.store_data_ports:
            if p not in self.ports:
                raise ValueError(f"memory port {p!r} not in port set")
        self._reindex()

    def _reindex(self) -> None:
        self._index = {}
        for e in self.entries:
            if any(ch in e.mnemonic for ch in "*?["):
                self._index.setdefault("*wild*", []).append(e)
            else:
                self._index.setdefault(e.mnemonic, []).append(e)

    def add_entries(self, entries: Iterable[InstrEntry]) -> None:
        self.entries.extend(entries)
        self._reindex()

    # -- signature computation ----------------------------------------------

    def operand_code(self, op: Operand) -> str:
        if isinstance(op, Immediate):
            return "i"
        if isinstance(op, LabelOperand):
            return "l"
        if isinstance(op, MemoryOperand):
            if op.index is not None and op.index.reg_class is RegisterClass.VEC:
                return "g"  # vector-indexed (gather/scatter) address
            return "m"
        assert isinstance(op, Register)
        rc = op.reg_class
        if rc in (RegisterClass.GPR, RegisterClass.ZERO, RegisterClass.IP):
            return "r"
        if rc is RegisterClass.MASK:
            return "k"
        if rc is RegisterClass.PRED:
            return "p"
        if rc is RegisterClass.FLAGS:
            return "r"
        # vector registers
        if self.isa == "x86":
            return {128: "x", 256: "y", 512: "z"}.get(op.width, "x")
        if op.name.startswith("z"):
            return "v"
        if op.arrangement is not None or op.name.startswith(("v", "q")):
            return "q"
        return "s"

    def signature(self, instr: Instruction) -> str:
        return ",".join(self.operand_code(o) for o in instr.operands)

    # -- lookup ---------------------------------------------------------------

    def _candidate_mnemonics(self, mnemonic: str) -> list[str]:
        cands = [mnemonic]
        if self.isa == "x86" and len(mnemonic) > 2 and mnemonic[-1] in _X86_SUFFIXES:
            cands.append(mnemonic[:-1])
        return cands

    def find_entry(self, mnemonic: str, signature: str) -> Optional[InstrEntry]:
        """Find the best entry for a mnemonic/signature pair.

        Tries, in order: exact signature; signature with memory operands
        substituted by the likely register class (register-form folding);
        wildcard signature; all of the above with the x86 size suffix
        stripped; finally wildcard-mnemonic entries.
        """
        sigs = [signature]
        if "m" in signature.split(","):
            sigs.extend(self._folded_signatures(mnemonic, signature))
        # Exact-signature entries always win over wildcard-signature
        # entries, regardless of table order.
        for cand in self._candidate_mnemonics(mnemonic):
            bucket = self._index.get(cand, ())
            for sig in sigs:
                for e in bucket:
                    if e.signature == sig and e.matches(cand, sig):
                        return e
            for e in bucket:
                if e.signature == "*":
                    return e
        for cand in self._candidate_mnemonics(mnemonic):
            for e in self._index.get("*wild*", ()):
                for sig in sigs + ["*"]:
                    if e.matches(cand, sig):
                        return e
        return None

    def _folded_signatures(self, mnemonic: str, signature: str) -> list[str]:
        """Register-form signatures to try when a memory operand exists."""
        parts = signature.split(",")
        non_mem = [p for p in parts if p != "m"]
        # Guess the register class a memory operand stands for: the widest
        # vector class present, else GPR.
        guess = "r"
        for pref in ("z", "y", "x", "v", "q", "s"):
            if pref in non_mem:
                guess = pref
                break
        folded = [p if p != "m" else guess for p in parts]
        out = [",".join(folded)]
        # Pure load/store forms reduce to the register-only signature.
        out.append(",".join(non_mem))
        return out

    # -- resolution -----------------------------------------------------------

    def resolve(self, instr: Instruction, strict: bool = False) -> ResolvedInstruction:
        """Bind an instruction to µops, latency, and memory traffic.

        A recognized zero idiom (with ``zero_idioms`` on) resolves to no
        µops and no latency; everything else is :meth:`bind`.
        """
        from ..isa.idioms import is_zero_idiom

        if self.zero_idioms and is_zero_idiom(instr):
            return ResolvedInstruction(
                instruction=instr,
                uops=(),
                latency=0.0,
                throughput=None,
                divider=0.0,
                n_loads=0,
                n_stores=0,
                load_latency=0.0,
                entry=InstrEntry(
                    mnemonic=instr.mnemonic,
                    signature=self.signature(instr),
                    uops=(),
                    latency=0.0,
                    notes="zero idiom (renamer-eliminated)",
                ),
            )

        return self.bind(instr, strict)

    def bind(self, instr: Instruction, strict: bool = False) -> ResolvedInstruction:
        """Bind an instruction through the tables alone, with no renamer
        idioms.

        With ``strict=True`` an unknown form raises
        :class:`UnknownInstructionError`; otherwise a conservative
        single-µop default on all integer ports is used and flagged via
        ``from_default``.
        """
        sig = self.signature(instr)
        entry = self.find_entry(instr.mnemonic, sig)

        n_loads = sum(
            1
            for o, a in zip(instr.operands, instr.accesses)
            if isinstance(o, MemoryOperand) and (a & OperandAccess.READ)
        )
        n_stores = sum(
            1
            for o, a in zip(instr.operands, instr.accesses)
            if isinstance(o, MemoryOperand) and (a & OperandAccess.WRITE)
        )

        from_default = False
        if entry is None:
            if strict:
                raise UnknownInstructionError(
                    f"{self.name}: no entry for {instr.mnemonic!r} ({sig})"
                )
            from_default = True
            default_ports = self._default_ports(instr)
            entry = InstrEntry(
                mnemonic=instr.mnemonic,
                signature=sig,
                uops=(Uop(ports=default_ports),) if default_ports else (),
                latency=1.0,
                notes="default",
            )

        uops = list(entry.uops)
        # Fold memory µops, splitting wide accesses into port-width chunks
        # (Zen 4 double-pumps 512-bit ops; Golden Cove needs two
        # store-data slots for a zmm store).
        load_lat = 0.0
        mem_bytes = self._access_bytes(instr)
        gather_like = "gather" in (entry.notes or "") or "scatter" in (entry.notes or "")
        if n_loads:
            wants_vec = any(
                isinstance(o, Register) and o.reg_class is RegisterClass.VEC
                for o in instr.operands
            )
            load_lat = self.load_latency_vec if wants_vec else self.load_latency_gpr
            if gather_like:
                # gather entries carry the full measured load-to-use
                # latency already
                load_lat = 0.0
            chunks = max(1, -(-mem_bytes // self.load_width_bytes))
            ports = self.load_ports
            if mem_bytes > 32 and self.load_ports_wide:
                ports = self.load_ports_wide
            for _ in range(n_loads * chunks):
                uops.append(Uop(ports=ports))
        if n_stores:
            chunks = max(1, -(-mem_bytes // self.store_width_bytes))
            for _ in range(n_stores * chunks):
                if self.store_agu_ports:
                    uops.append(Uop(ports=self.store_agu_ports))
                if self.store_data_ports:
                    uops.append(Uop(ports=self.store_data_ports))
        # AArch64 writeback addressing adds a trivial int µop.
        for o in instr.memory_operands:
            if o.has_writeback:
                uops.append(Uop(ports=self._int_alu_ports()))

        return ResolvedInstruction(
            instruction=instr,
            uops=tuple(uops),
            latency=entry.latency,
            throughput=entry.throughput,
            divider=entry.divider,
            n_loads=n_loads,
            n_stores=n_stores,
            load_latency=load_lat,
            from_default=from_default,
            entry=entry,
        )

    def _access_bytes(self, instr: Instruction) -> int:
        """Width in bytes of a memory access made by *instr*.

        Uses the widest register operand as a proxy — correct for the
        mov/arithmetic/ld/st vocabulary this model targets.
        """
        widest = 0
        for o in instr.operands:
            if isinstance(o, Register) and o.reg_class in (
                RegisterClass.VEC,
                RegisterClass.GPR,
                RegisterClass.ZERO,
            ):
                widest = max(widest, o.width)
        return max(1, widest // 8) if widest else 8

    def _int_alu_ports(self) -> tuple[str, ...]:
        """Ports carrying simple integer ALU work (model-specific hint)."""
        hint = [p for p in self.ports if p.startswith(("i", "alu"))]
        if hint:
            return tuple(hint)
        # Intel-style numeric ports: assume 0/1/5/6-style ALU set exists;
        # fall back to every non-memory port.
        mem = set(self.load_ports) | set(self.store_agu_ports) | set(
            self.store_data_ports
        )
        return tuple(p for p in self.ports if p not in mem) or self.ports

    def _default_ports(self, instr: Instruction) -> tuple[str, ...]:
        if instr.is_branch:
            branch = [p for p in self.ports if p.startswith(("b", "br"))]
            if branch:
                return tuple(branch)
        return self._int_alu_ports()

    # -- reporting helpers ----------------------------------------------------

    def coverage(self, instructions: Iterable[Instruction]) -> dict:
        """Fraction of instructions with real (non-default) entries."""
        total = known = 0
        missing: list[str] = []
        for ins in instructions:
            total += 1
            r = self.resolve(ins)
            if r.from_default:
                missing.append(f"{ins.mnemonic} ({self.signature(ins)})")
            else:
                known += 1
        return {
            "total": total,
            "known": known,
            "coverage": known / total if total else 1.0,
            "missing": missing,
        }
