"""The µop plan: everything iteration-invariant about one loop body.

Stage one of the staged simulator pipeline.  A :class:`UopPlan` is the
per-body-index precomputation PR 7 first hoisted out of the cycle loop
— µop schedules with pre-scaled port occupancies, divider/latency/
branch tables, register and memory dependency edges, per-instruction
dispatch steps — promoted to a first-class IR that every consumer
builds once per run:

* :class:`~repro.simulator.engine.CycleEngine` — the cycle-accurate
  engine replays the plan iteration by iteration,
* :mod:`~repro.simulator.timeline` / :mod:`~repro.simulator.coupled` —
  build the plan once and run the engine against it (so do the
  backends, microbenchmarks, and counterfactual studies),
* :class:`~repro.mca.simulator.MCASimulator` — builds its own plan from
  MCA scheduling data.

Both plans take their register and memory dependencies from
:func:`~repro.isa.dataflow.derive_dataflow`, this one under the chip's
renaming and MCA's under none, so aliasing semantics can never drift
between the measurement and the baseline.

Every precomputed float reproduces the exact value the old inline
expression produced (same operations, same order), so the
cycle-accurate path downstream of a plan is bit-identical to the
monolithic simulator it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..isa.dataflow import Renaming, derive_dataflow
from ..isa.idioms import macro_fuses
from ..isa.instruction import Instruction, OperandAccess
from ..isa.operands import MemoryOperand
from ..machine import MachineModel
from ..machine.model import ResolvedInstruction, Uop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..lowering import LoweredBlock

#: measured divider occupancies that beat the machine-model value
#: (uarch name, mnemonic) -> cycles.  The paper: "the π kernel for
#: Zen 4, where our model assumes a lower throughput for the scalar
#: divide than we measure".
DEFAULT_DIVIDER_OVERRIDES: dict[tuple[str, str], float] = {
    ("zen4", "divsd"): 4.0,
    ("zen4", "vdivsd"): 4.0,
}


@dataclass(frozen=True)
class PlanConfig:
    """Simulation knobs that shape a plan.

    ``divider_overrides`` is stored as a sorted tuple so configs hash
    and compare structurally (:meth:`make` accepts a dict).

    ``issue_efficiency`` is the fraction of the ideal per-port issue
    bandwidth real schedulers sustain (picker conflicts,
    writeback-port sharing, replays): µop occupancies are scaled by
    its inverse, and 1.0 reproduces the analytical bound exactly.
    ``dispatch_efficiency`` is the same for the frontend: sustained
    rename/dispatch bandwidth as a fraction of the nominal width.
    ``measurement_overhead`` is the relative overhead of a real
    measurement harness (warm-up remainder iterations, counter reads)
    folded into the measured cycles.
    """

    divider_overrides: tuple[tuple[tuple[str, str], float], ...] = tuple(
        sorted(DEFAULT_DIVIDER_OVERRIDES.items())
    )
    taken_branch_interval: float = 1.0
    issue_efficiency: float = 0.88
    dispatch_efficiency: float = 0.92
    measurement_overhead: float = 0.02

    @classmethod
    def make(
        cls,
        *,
        divider_overrides: Optional[dict[tuple[str, str], float]] = None,
        **fields: Any,
    ) -> "PlanConfig":
        """Normalize simulator-style kwargs (dict overrides, None=default);
        the other fields pass through unchanged."""
        if divider_overrides is not None:
            if isinstance(divider_overrides, dict):
                divider_overrides = sorted(divider_overrides.items())
            fields["divider_overrides"] = tuple(divider_overrides)
        return cls(**fields)

    @property
    def overrides_dict(self) -> dict[tuple[str, str], float]:
        return dict(self.divider_overrides)


#: the careful-microbenchmark configuration: full issue and dispatch
#: efficiency, no harness overhead, and no divider overrides — the Zen 4
#: scalar divider only beats its documented occupancy under mixed-loop
#: conditions (the π-kernel discrepancy), not in a pure back-to-back
#: divide microbenchmark (used by Table III, ibench, and port inference)
IDEALIZED_CONFIG = PlanConfig(
    divider_overrides=(),
    issue_efficiency=1.0,
    dispatch_efficiency=1.0,
    measurement_overhead=0.0,
)


@dataclass(frozen=True)
class UopPlan:
    """Iteration-invariant schedule tables for one loop body.

    All per-instruction sequences are index-aligned tuples of length
    ``n_body``; the engine's cycle loop reads them and nothing else.
    """

    model: MachineModel
    config: PlanConfig
    instructions: tuple[Instruction, ...]
    n_body: int
    #: frontend time index j's dispatch adds: ``dispatch_step`` when it
    #: takes a fused-domain slot, 0.0 when fused into its predecessor
    step_of: tuple[float, ...]
    n_slots: int
    #: per instruction: ((ports, cycles, cycles*occupancy_scale), ...)
    #: including the synthesized cache-line-split replay µop
    uop_plans: tuple[tuple[tuple, ...], ...]
    #: non-pipelined divider occupancy (0.0 = not a divide), overrides applied
    divider_occ: tuple[float, ...]
    #: result latency after renaming (:mod:`repro.isa.dataflow`)
    eff_latency: tuple[float, ...]
    #: load-to-use latency, or None when the instruction loads nothing
    load_lat: tuple[Optional[float], ...]
    is_branch_of: tuple[bool, ...]
    #: serialized special-op reciprocal throughput (gathers), or None
    special_of: tuple[Optional[float], ...]
    mnemonic_of: tuple[str, ...]
    #: register RAW roots read / written after renaming
    reads: tuple[tuple[str, ...], ...]
    writes: tuple[tuple[str, ...], ...]
    #: memory keys read / written: ((key, loop_variant), ...) per index
    mem_reads_of: tuple[tuple[tuple, ...], ...]
    mem_writes_of: tuple[tuple[tuple, ...], ...]
    #: derived scalars of the configured machine (exact simulator floats)
    dispatch_step: float
    retire_step: float
    occupancy_scale: float
    rob_size: int
    scheduler_window: float
    ports: tuple[str, ...]


# ---------------------------------------------------------------------------
# per-instruction table derivations
# ---------------------------------------------------------------------------


def split_load_uops(ins: Instruction, model: MachineModel) -> float:
    """Average cache-line-split replay occupancy for this load.

    A vector load stream whose displacement is not a multiple of the
    access width crosses a 64-byte boundary on a ``bytes/64``
    fraction of its iterations, each split costing one extra L1
    access.  Stencil kernels with ±1-element offsets hit this
    regularly — one of the structural reasons measurements exceed
    the static lower bound, which charges a single load µop.
    """
    line = 64.0
    extra = 0.0
    bytes_ = model._access_bytes(ins)
    if bytes_ < 16:
        return 0.0
    for o, a in zip(ins.operands, ins.accesses):
        if isinstance(o, MemoryOperand) and (a & OperandAccess.READ):
            if o.displacement % bytes_ != 0:
                extra += bytes_ / line
    return extra


def macro_fusion(
    instructions: Sequence[Instruction], model: MachineModel
) -> list[bool]:
    """``fused_with_next[i]`` — instruction i fuses with i+1."""
    out = [False] * len(instructions)
    if model.isa != "x86":
        return out
    for i in range(len(instructions) - 1):
        out[i] = macro_fuses(instructions[i], instructions[i + 1])
    return out


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


def build_uop_plan(
    instructions: Sequence[Instruction],
    model: MachineModel,
    *,
    resolved: Optional[Sequence[ResolvedInstruction]] = None,
    config: Optional[PlanConfig] = None,
) -> UopPlan:
    """Derive every iteration-invariant table for one loop body.

    ``resolved`` accepts the lowering pipeline's pre-resolved bindings
    (treated read-only); without it, instructions are resolved here.
    """
    cfg = config or PlanConfig()
    resolved = (
        [model.resolve(i) for i in instructions]
        if resolved is None
        else list(resolved)
    )
    instructions = tuple(instructions)
    n_body = len(instructions)

    flow = derive_dataflow(instructions, resolved, Renaming.chip(model))
    split_extra = [split_load_uops(i, model) for i in instructions]

    dispatch_step = 1.0 / (model.dispatch_width * cfg.dispatch_efficiency)
    fused_with_next = macro_fusion(instructions, model)
    step_of = tuple(
        dispatch_step if j == 0 or not fused_with_next[j - 1] else 0.0
        for j in range(n_body)
    )
    retire_step = 1.0 / model.retire_width
    occupancy_scale = 1.0 / cfg.issue_efficiency

    load_ports = model.load_ports
    model_name = model.name
    divider_get = cfg.overrides_dict.get
    uop_plans: list[tuple[tuple, ...]] = []
    divider_occ: list[float] = []
    load_lat: list[Optional[float]] = []
    is_branch_of: list[bool] = []
    special_of: list[Optional[float]] = []
    mnemonic_of: list[str] = []
    for j in range(n_body):
        ins = instructions[j]
        r = resolved[j]
        extra = split_extra[j]
        uops = r.uops
        if extra > 0:
            uops = r.uops + (Uop(ports=load_ports, cycles=extra),)
        uop_plans.append(
            tuple((u.ports, u.cycles, u.cycles * occupancy_scale) for u in uops)
        )
        div = r.divider
        if div:
            override = divider_get((model_name, ins.mnemonic))
            if override is not None:
                div = override
        divider_occ.append(div)
        load_lat.append(r.load_latency if r.n_loads else None)
        is_branch_of.append(ins.is_branch)
        special_of.append(r.throughput)
        mnemonic_of.append(ins.mnemonic)

    return UopPlan(
        model=model,
        config=cfg,
        instructions=instructions,
        n_body=n_body,
        step_of=step_of,
        n_slots=sum(1 for step in step_of if step),
        uop_plans=tuple(uop_plans),
        divider_occ=tuple(divider_occ),
        eff_latency=flow.latency,
        load_lat=tuple(load_lat),
        is_branch_of=tuple(is_branch_of),
        special_of=tuple(special_of),
        mnemonic_of=tuple(mnemonic_of),
        reads=flow.reads,
        writes=flow.writes,
        mem_reads_of=flow.mem_reads,
        mem_writes_of=flow.mem_writes,
        dispatch_step=dispatch_step,
        retire_step=retire_step,
        occupancy_scale=occupancy_scale,
        rob_size=model.rob_size,
        scheduler_window=float(model.scheduler_size),
        ports=model.ports,
    )


def plan_for_block(
    block: "LoweredBlock", config: Optional[PlanConfig] = None
) -> UopPlan:
    """The plan for a lowered block under ``config``."""
    return build_uop_plan(
        block.instructions, block.model, resolved=block.resolved, config=config
    )

