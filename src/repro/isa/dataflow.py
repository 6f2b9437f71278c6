"""Dataflow of a loop body under named renamer assumptions.

The model's dependency graph, the simulator's µop plan and the MCA
baseline's plan all read their dependencies from
:func:`derive_dataflow`: for each instruction, the register roots read
and written, the memory keys loaded and stored with their loop
variance, and the result latency after renaming.  They differ only in
the :class:`Renaming` they pass, which names what the renamer may do:

* **zero idioms** — a same-register zeroing idiom (``xor r, r``) reads
  nothing, so it starts a fresh chain;
* **merge reads** — the read a merging predicate adds to an SVE
  destination is renamed away (the all-true-predicate fast path), and
  a merging ``mov`` becomes a zero-latency rename;
* **move elimination** — a register-to-register vector ``fmov`` is a
  zero-latency rename.

The simulator passes the chip's set (:meth:`Renaming.chip`), the model
what a static analyzer may assume (:meth:`Renaming.static`), and MCA
none (:data:`NO_RENAMING`).  The paper's Neoverse V2 over-prediction
(``fmov d, d`` on the Gauss-Seidel chain) is the difference between the
first two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .idioms import is_zero_idiom
from .instruction import Instruction, OperandAccess
from .operands import MemoryOperand, Register, RegisterClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.model import MachineModel, ResolvedInstruction

_READS = (OperandAccess.READ, OperandAccess.READWRITE)
_WRITES = (OperandAccess.WRITE, OperandAccess.READWRITE)


@dataclass(frozen=True)
class Renaming:
    """The renamer features a dependency derivation assumes."""

    zero_idioms: bool = False
    merge_reads: bool = False
    move_elimination: bool = False

    @classmethod
    def chip(cls, model: "MachineModel") -> "Renaming":
        """Everything the chip's renamer does (the simulator's set)."""
        return cls(model.zero_idioms, True, model.move_elimination)

    @classmethod
    def static(cls, model: "MachineModel") -> "Renaming":
        """Zero idioms only: an all-true predicate and a free move are
        not visible in the code, so a static analyzer may not assume
        them."""
        return cls(zero_idioms=model.zero_idioms)


#: the verbatim semantics: every nominal read is a dependency
NO_RENAMING = Renaming()


@dataclass(frozen=True)
class Dataflow:
    """Per-instruction dataflow tables of one loop body, index-aligned."""

    #: the instruction is a zero idiom under the renaming
    zero: tuple[bool, ...]
    #: register roots read / written
    reads: tuple[tuple[str, ...], ...]
    writes: tuple[tuple[str, ...], ...]
    #: memory keys loaded / stored as ((key, loop_variant), ...); a key
    #: whose address registers advance every iteration aliases only
    #: within an iteration
    mem_reads: tuple[tuple[tuple[tuple, bool], ...], ...]
    mem_writes: tuple[tuple[tuple[tuple, bool], ...], ...]
    #: result latency after renaming
    latency: tuple[float, ...]


def merge_only_reads(ins: Instruction) -> set[str]:
    """Destination roots read *only* through a merging predicate.

    For ``mov z5.d, p1/m, z1.d`` the old value of ``z5`` is read purely
    to merge inactive lanes.  For ``fadd z8.d, p0/m, z8.d, z0.d`` the
    destination also appears as an explicit source and the dependency
    is real.
    """
    if ins.isa != "aarch64" or not any(
        isinstance(o, Register) and o.predication == "m" for o in ins.operands
    ):
        return set()
    dest_roots = set()
    source_roots = set()
    for o, a in zip(ins.operands, ins.accesses):
        if isinstance(o, Register):
            if a in _WRITES:
                dest_roots.add(o.root)
            elif a in _READS:
                source_roots.add(o.root)
    return dest_roots - source_roots


def _is_vector_move(ins: Instruction) -> bool:
    return len(ins.operands) == 2 and all(
        isinstance(o, Register) and o.reg_class is RegisterClass.VEC
        for o in ins.operands
    )


def derive_dataflow(
    instructions: Sequence[Instruction],
    resolved: Sequence["ResolvedInstruction"],
    renaming: Renaming,
) -> Dataflow:
    """The dataflow of a loop body under ``renaming``.

    ``resolved`` supplies each instruction's table latency.
    """
    zero_idioms = renaming.zero_idioms
    merge_reads = renaming.merge_reads
    move_elimination = renaming.move_elimination
    zero: list[bool] = []
    reads: list[tuple[str, ...]] = []
    writes: list[tuple[str, ...]] = []
    latency: list[float] = []
    loads: list[tuple] = []
    stores: list[tuple] = []
    for ins, r in zip(instructions, resolved):
        rd = ins.register_reads()
        lat = r.latency
        is_zero = zero_idioms and is_zero_idiom(ins)
        if is_zero:
            rd = ()
        elif ins.isa == "aarch64":
            if merge_reads:
                drop = merge_only_reads(ins)
                if drop:
                    rd = tuple(x for x in rd if x not in drop)
                    if ins.mnemonic == "mov":
                        lat = 0.0
            if move_elimination and ins.mnemonic == "fmov" and _is_vector_move(ins):
                lat = 0.0
        zero.append(is_zero)
        reads.append(rd)
        writes.append(ins.register_writes())
        latency.append(lat)
        ld = st = ()
        for o, a in zip(ins.operands, ins.accesses):
            if isinstance(o, MemoryOperand):
                # the aliasing key: the address expression's structure
                key = (
                    o.base.root if o.base else None,
                    o.index.root if o.index else None,
                    o.scale,
                    o.displacement,
                )
                if a in _READS:
                    ld += (key,)
                if a in _WRITES:
                    st += (key,)
        loads.append(ld)
        stores.append(st)

    # registers written anywhere in the body advance every iteration
    variant = {root for w in writes for root in w}

    def keyed(keys: tuple) -> tuple[tuple[tuple, bool], ...]:
        if not keys:
            return ()
        return tuple((k, k[0] in variant or k[1] in variant) for k in keys)

    return Dataflow(
        zero=tuple(zero),
        reads=tuple(reads),
        writes=tuple(writes),
        mem_reads=tuple(map(keyed, loads)),
        mem_writes=tuple(map(keyed, stores)),
        latency=tuple(latency),
    )
