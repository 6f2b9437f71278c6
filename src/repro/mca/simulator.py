"""MCA's dispatch/issue/retire timeline, replayed on the cycle engine.

:class:`MCASimulator` builds a :class:`~repro.simulator.plan.UopPlan`
from :class:`~repro.mca.scheddata.MCASchedData` and replays it on the
same :class:`~repro.simulator.engine.CycleEngine` that makes the
measurement, so the baseline and the measurement share one timeline
and differ only in plan data.  The plan carries the behaviours of the
LLVM tool:

* dispatch counts **unfused µops** (no macro-fusion, memory operands
  cost their own slots): each instruction's dispatch step is
  ``max(1, n_uops) / dispatch_width``,
* µops occupy their ports for their unscaled cycles (no issue
  inefficiency), and there is no harness overhead,
* all register dependencies are honored verbatim (the dataflow under
  :data:`~repro.isa.dataflow.NO_RENAMING`: zero idioms, move
  elimination, and SVE merge renaming do not exist),
* no reorder buffer, no in-order retire bandwidth, no taken-branch or
  special-op limits — so window effects never bite, another reason
  latency-heavy loops come out slower than hardware,
* no memory dependencies under llvm-mca's ``-noalias`` default;
  otherwise every address key aliases across iterations.

The headline number mirrors ``llvm-mca``'s *Block RThroughput* /
cycles-per-iteration from its summary view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..isa.dataflow import NO_RENAMING, derive_dataflow
from ..isa.instruction import Instruction
from ..machine import MachineModel
from ..simulator.plan import PlanConfig, UopPlan
from .scheddata import MCASchedData

#: MCA's plan knobs: no divider overrides, unscaled occupancies and
#: dispatch, no harness overhead
_MCA_CONFIG = PlanConfig(
    divider_overrides=(),
    issue_efficiency=1.0,
    dispatch_efficiency=1.0,
    measurement_overhead=0.0,
)


@dataclass
class MCAResult:
    """Prediction summary (mirrors llvm-mca's summary view)."""

    cycles_per_iteration: float
    total_cycles: float
    iterations: int
    uops_per_iteration: int
    resource_pressure: dict[str, float]

    def summary(self) -> str:
        lines = [
            "llvm-mca-style summary",
            f"Iterations:        {self.iterations}",
            f"Total Cycles:      {self.total_cycles:.0f}",
            f"uOps Per Cycle:    "
            f"{self.uops_per_iteration * self.iterations / max(self.total_cycles, 1e-9):.2f}",
            f"Block RThroughput: {self.cycles_per_iteration:.2f}",
            "",
            "Resource pressure per iteration:",
        ]
        for p, v in sorted(self.resource_pressure.items()):
            if v > 1e-9:
                lines.append(f"  [{p:>5}] {v:6.2f}")
        return "\n".join(lines)


class MCASimulator:
    """Timeline simulation over generic scheduling data."""

    def __init__(
        self,
        model: MachineModel,
        sched: MCASchedData | None = None,
        assume_noalias: bool = True,
    ):
        self.model = model
        self.sched = sched or MCASchedData(model)
        #: mirror llvm-mca's -noalias default (no memory dependencies)
        self.assume_noalias = assume_noalias

    def run(
        self,
        instructions: Sequence[Instruction],
        iterations: int = 100,
        warmup: int = 20,
    ) -> MCAResult:
        """Replay :meth:`plan` on the cycle engine, publishing nothing."""
        from ..simulator.engine import CycleEngine

        plan = self.plan(instructions)
        r, _ = CycleEngine().replay(plan, iterations, warmup)
        return MCAResult(
            cycles_per_iteration=r.cycles_per_iteration,
            total_cycles=r.total_cycles,
            iterations=iterations,
            uops_per_iteration=plan.n_slots,
            resource_pressure={
                p: busy / (warmup + iterations)
                for p, busy in r.port_busy.items()
            },
        )

    def plan(self, instructions: Sequence[Instruction]) -> UopPlan:
        """The MCA plan: scheduling-data tables the engine replays."""
        model = self.model
        instructions = tuple(instructions)
        n = len(instructions)
        resolved = [self.sched.resolve(i) for i in instructions]
        dispatch_width = float(model.dispatch_width)
        slots = [max(1, r.n_uops) for r in resolved]
        flow = derive_dataflow(instructions, resolved, NO_RENAMING)
        if self.assume_noalias:
            mem_reads_of = mem_writes_of = ((),) * n
        else:
            # every key aliases across iterations (none is loop-variant)
            mem_reads_of = tuple(
                tuple((k, False) for k, _ in keys) for keys in flow.mem_reads
            )
            mem_writes_of = tuple(
                tuple((k, False) for k, _ in keys) for keys in flow.mem_writes
            )
        return UopPlan(
            model=model,
            config=_MCA_CONFIG,
            instructions=instructions,
            n_body=n,
            step_of=tuple(n / dispatch_width for n in slots),
            n_slots=sum(slots),
            uop_plans=tuple(
                tuple((u.ports, u.cycles, u.cycles) for u in r.uops)
                for r in resolved
            ),
            divider_occ=tuple(r.divider for r in resolved),
            eff_latency=flow.latency,
            load_lat=tuple(
                r.load_latency if r.n_loads else None for r in resolved
            ),
            is_branch_of=(False,) * n,
            special_of=(None,) * n,
            mnemonic_of=tuple(i.mnemonic for i in instructions),
            reads=flow.reads,
            writes=flow.writes,
            mem_reads_of=mem_reads_of,
            mem_writes_of=mem_writes_of,
            dispatch_step=1.0 / dispatch_width,
            retire_step=0.0,
            occupancy_scale=1.0,
            rob_size=0,
            scheduler_window=float(model.scheduler_size),
            ports=model.ports,
        )


def mca_predict(
    source: str,
    arch: str | MachineModel,
    *,
    iterations: int = 100,
    **kwargs,
) -> MCAResult:
    """Parse a loop body and produce the MCA-baseline prediction."""
    from ..lowering import lower

    block = lower(source, arch)
    return MCASimulator(block.model, **kwargs).run(
        block.instructions, iterations=iterations
    )
