"""The shared lowering pipeline: one ISA front-end for every predictor.

The paper's whole methodology is "one assembly block, three views" —
simulator measurement, OSACA-style model, MCA baseline over the same
corpus blocks.  Every view needs the same front half first:

1. **parse** — turn assembly text into
   :class:`~repro.isa.instruction.Instruction` IR (AT&T/Intel x86 or
   AArch64, chosen by the machine model's ISA);
2. **normalize** — strip residual IACA byte-marker instructions (the
   ``mov $111/$222, %ebx`` pair survives naive extraction as
   real-looking ``mov``\\ s);
3. **resolve** — bind every instruction to machine resources
   (µops, candidate ports, latency; a zero idiom the renamer
   eliminates gets none) via
   :meth:`~repro.machine.model.MachineModel.resolve`.

:func:`lower` runs that front half on every call and keeps no state:
the engine coalesces work units with equal cache keys and its on-disk
cache answers repeats, so a corpus sweep still lowers each distinct
``(assembly, machine model)`` pair at most once.  A caller that needs one block
in several views lowers it once and hands the same
:class:`LoweredBlock` to each prediction backend (:mod:`repro.backends`).
Each call counts ``lowering.requests`` in the run context's
:class:`~repro.obs.metrics.MetricsRegistry` (:mod:`repro.context`) and
records its parse/resolve work as tracer spans and profiler phases.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator, Union

from ..context import current_context
from ..isa import parse_kernel
from ..isa.instruction import Instruction
from ..isa.operands import Immediate, Register
from ..machine import MachineModel, coerce_model
from ..machine.model import ResolvedInstruction
from .digests import assembly_digest


@dataclass(frozen=True)
class LoweredBlock:
    """One assembly block, fully lowered against one machine model.

    This is the hand-off object between the shared front-end and the
    prediction backends: backends never re-parse or re-resolve.  The
    ``resolved`` entries are shared across consumers and must be
    treated as read-only.
    """

    source: str
    model: MachineModel
    isa: str
    instructions: tuple[Instruction, ...]
    resolved: tuple[ResolvedInstruction, ...]

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)


def _is_iaca_marker(ins: Instruction) -> bool:
    """True for the IACA marker ``mov``: ``mov{l} $111|$222, %ebx``."""
    if not ins.mnemonic.startswith("mov") or len(ins.operands) != 2:
        return False
    imm, dst = ins.operands
    return (
        isinstance(imm, Immediate)
        and imm.value in (111, 222)
        and isinstance(dst, Register)
        and dst.root == "rbx"
    )


def normalize_instructions(
    instructions: list[Instruction], isa: str
) -> tuple[Instruction, ...]:
    """Marker normalization: drop residual IACA byte-marker movs.

    Only the *pair* is stripped — a lone ``mov $111, %ebx`` could be
    real code, but start and end marker together are unambiguous (the
    ``.byte`` payload lines are directives the parser already drops).
    """
    if isa.startswith("x86"):
        markers = [i for i, ins in enumerate(instructions) if _is_iaca_marker(ins)]
        if len(markers) >= 2:
            drop = set(markers)
            instructions = [
                ins for i, ins in enumerate(instructions) if i not in drop
            ]
    return tuple(instructions)


def _lower(source: str, model: MachineModel, prof) -> LoweredBlock:
    if prof is not None:
        # the profiler mirrors the pipeline's published stage names:
        # parse -> normalize -> resolve (docs/observability.md)
        with prof.phase("parse"):
            parsed = parse_kernel(source, model.isa)
        with prof.phase("normalize"):
            instructions = normalize_instructions(parsed, model.isa)
        with prof.phase("resolve"):
            resolved = tuple(model.resolve(i) for i in instructions)
    else:
        parsed = parse_kernel(source, model.isa)
        instructions = normalize_instructions(parsed, model.isa)
        resolved = tuple(model.resolve(i) for i in instructions)
    return LoweredBlock(
        source=source,
        model=model,
        isa=model.isa,
        instructions=instructions,
        resolved=resolved,
    )


def lower(source: str, arch: Union[str, MachineModel]) -> LoweredBlock:
    """Lower an assembly block against a machine model.

    ``arch`` is a model name/chip alias (``zen4``, ``spr``, ``grace``
    …) or a :class:`~repro.machine.MachineModel` instance.
    """
    model = coerce_model(arch)
    ctx = current_context()
    ctx.metrics.counter("lowering.requests", "lower() calls").inc()
    prof = ctx.profiler
    prof_cm = (
        prof.phase("lower")
        if prof is not None
        else contextlib.nullcontext()
    )
    tracer = ctx.tracer
    if tracer is None:
        with prof_cm:
            return _lower(source, model, prof)
    from ..obs.trace import PID_LOWER, TID_LOWER

    tracer.process(PID_LOWER, "lowering")
    tracer.lane(PID_LOWER, TID_LOWER, "lower")
    with prof_cm, tracer.span(
        f"lower:{assembly_digest(source)[:12]}",
        PID_LOWER,
        TID_LOWER,
        cat="lowering",
        args={"model": model.name},
    ):
        return _lower(source, model, prof)


def clear_memo() -> None:
    """Do nothing: :func:`lower` keeps no memo.

    Kept only for the benchmark harness (``perfbench/workloads.py``),
    which still calls it before each operation.
    """
