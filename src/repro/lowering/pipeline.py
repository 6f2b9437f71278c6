"""The shared lowering pipeline: one ISA front-end for every predictor.

The paper's whole methodology is "one assembly block, three views" —
simulator measurement, OSACA-style model, MCA baseline over the same
corpus blocks.  Every view needs the same front half first:

1. **parse** — turn assembly text into
   :class:`~repro.isa.instruction.Instruction` IR (AT&T/Intel x86 or
   AArch64, chosen by the machine model's ISA);
2. **normalize** — strip residual IACA byte-marker instructions (the
   ``mov $111/$222, %ebx`` pair survives naive extraction as
   real-looking ``mov``\\ s) and annotate dependency-breaking zero
   idioms;
3. **resolve** — bind every instruction to machine resources
   (µops, candidate ports, latency) via
   :meth:`~repro.machine.model.MachineModel.resolve`.

:func:`lower` runs that front half exactly once per ``(assembly,
machine model)`` pair: results are memoized in-process, keyed by the
canonical assembly digest × the machine-model digest (the same
identities the engine's on-disk cache uses).  Prediction backends
(:mod:`repro.backends`) consume the resulting :class:`LoweredBlock`;
hit/miss counters are published to the run context's
:class:`~repro.obs.metrics.MetricsRegistry` (:mod:`repro.context`) and
parse/resolve work is recorded as tracer spans.

The memo assumes machine models are immutable after construction
(what-if studies build new instances via ``dataclasses.replace``); a
model edited in place must be re-created instead.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Union

from ..context import current_context
from ..isa import parse_kernel
from ..isa.idioms import is_zero_idiom
from ..isa.instruction import Instruction
from ..isa.operands import Immediate, Register
from ..machine import MachineModel, coerce_model
from ..machine.model import ResolvedInstruction
from .digests import assembly_digest, cached_model_digest

#: memo capacity; far above a full corpus sweep (416 blocks × 3 models)
MEMO_CAP = 4096

_MEMO: "OrderedDict[tuple[str, str], LoweredBlock]" = OrderedDict()


@dataclass(frozen=True)
class LoweredBlock:
    """One assembly block, fully lowered against one machine model.

    This is the hand-off object between the shared front-end and the
    prediction backends: backends never re-parse or re-resolve.  The
    ``resolved`` entries are shared across consumers and must be
    treated as read-only.
    """

    source: str
    asm_digest: str
    model_digest: str
    model: MachineModel
    isa: str
    instructions: tuple[Instruction, ...]
    resolved: tuple[ResolvedInstruction, ...]
    #: per-instruction flag: recognized dependency-breaking zero idiom
    zero_idioms: tuple[bool, ...]

    @property
    def key(self) -> tuple[str, str]:
        """The memo key: (assembly digest, machine-model digest)."""
        return (self.asm_digest, self.model_digest)

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


def _lower_uncached(
    source: str, model: MachineModel, asm_digest: str, model_digest: str,
    prof,
) -> LoweredBlock:
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
    zero = tuple(is_zero_idiom(i) for i in instructions)
    return LoweredBlock(
        source=source,
        asm_digest=asm_digest,
        model_digest=model_digest,
        model=model,
        isa=model.isa,
        instructions=instructions,
        resolved=resolved,
        zero_idioms=zero,
    )


def lower(
    source: str, arch: Union[str, MachineModel], *, memo: bool = True
) -> LoweredBlock:
    """Lower an assembly block against a machine model (memoized).

    ``arch`` is a model name/chip alias (``zen4``, ``spr``, ``grace``
    …) or a :class:`~repro.machine.MachineModel` instance.  With
    ``memo=False`` the pipeline runs unconditionally and the result is
    not retained (useful for models mutated under test).
    """
    from ..obs.trace import PID_LOWER, TID_LOWER

    model = coerce_model(arch)
    key = (assembly_digest(source), cached_model_digest(model))

    ctx = current_context()
    reg = ctx.metrics
    tracer = ctx.tracer
    reg.counter("lowering.requests", "lower() calls").inc()

    if memo:
        block = _MEMO.get(key)
        if block is not None:
            _MEMO.move_to_end(key)
            reg.counter(
                "lowering.memo_hits", "blocks served from the lowering memo"
            ).inc()
            if tracer is not None:
                tracer.process(PID_LOWER, "lowering")
                tracer.lane(PID_LOWER, TID_LOWER, "lower")
                tracer.instant(
                    f"lower-hit:{key[0][:12]}",
                    tracer.now_us(),
                    PID_LOWER,
                    TID_LOWER,
                    cat="lowering",
                )
            return block

    reg.counter(
        "lowering.memo_misses", "blocks parsed and resolved from scratch"
    ).inc()
    prof = ctx.profiler
    prof_cm = (
        prof.phase("lower")
        if prof is not None
        else contextlib.nullcontext()
    )
    if tracer is not None:
        tracer.process(PID_LOWER, "lowering")
        tracer.lane(PID_LOWER, TID_LOWER, "lower")
        with prof_cm, tracer.span(
            f"lower:{key[0][:12]}",
            PID_LOWER,
            TID_LOWER,
            cat="lowering",
            args={"model": model.name},
        ):
            block = _lower_uncached(source, model, *key, prof)
    else:
        with prof_cm:
            block = _lower_uncached(source, model, *key, prof)

    if memo:
        _MEMO[key] = block
        while len(_MEMO) > MEMO_CAP:
            _MEMO.popitem(last=False)
    return block


def clear_memo() -> None:
    """Drop every memoized block (tests; model-mutation escape hatch)."""
    _MEMO.clear()


def memo_len() -> int:
    """Number of blocks currently memoized."""
    return len(_MEMO)


def memo_stats() -> dict[str, float]:
    """Current lowering counters from the run context's metrics registry."""
    snap = current_context().metrics.snapshot()

    def val(name: str) -> float:
        return snap.get(name, {}).get("value", 0.0)

    requests = val("lowering.requests")
    hits = val("lowering.memo_hits")
    return {
        "requests": requests,
        "memo_hits": hits,
        "memo_misses": val("lowering.memo_misses"),
        "memo_len": float(len(_MEMO)),
        "hit_rate": hits / requests if requests else 0.0,
    }
