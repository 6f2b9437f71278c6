"""MCA's dispatch/issue/retire timeline.

Structurally like :class:`~repro.simulator.engine.CycleEngine`, but with
the behaviours of the LLVM tool:

* dispatch counts **unfused µops** (no macro-fusion, memory operands
  cost their own slots),
* all register dependencies are honored verbatim (no renamer tricks:
  zero idioms, move elimination, and SVE merge renaming do not exist),
* scheduling data comes from :class:`~repro.mca.scheddata.MCASchedData`,
* default micro-op buffer is generous (MCA's ``--micro-op-queue``), so
  window effects rarely bite — another reason latency-heavy loops come
  out slower than hardware.

The headline number mirrors ``llvm-mca``'s *Block RThroughput* /
cycles-per-iteration from its summary view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..isa.instruction import Instruction
from ..machine import MachineModel
from .scheddata import MCASchedData


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
        from ..simulator.engine import _PortIssueUnit
        from ..simulator.plan import mem_reads, mem_writes

        resolved = [self.sched.resolve(i) for i in instructions]
        n_body = len(instructions)

        issue_unit = _PortIssueUnit(
            self.model.ports, window=float(self.model.scheduler_size)
        )
        port_busy = {p: 0.0 for p in self.model.ports}
        divider_free = 0.0
        reg_ready: dict[str, float] = {}
        mem_ready: dict[tuple, float] = {}

        dispatch_width = float(self.model.dispatch_width)
        frontend_time = 0.0
        last_retire = 0.0
        mark = 0.0
        uops_per_iter = sum(max(1, r.n_uops) for r in resolved)

        # Per-instruction dependency sets are loop-invariant; computing
        # them per dynamic instance dominated corpus-sweep wall time.
        reg_reads = [ins.register_reads() for ins in instructions]
        reg_writes = [ins.register_writes() for ins in instructions]
        if not self.assume_noalias:
            # memory aliasing keys are shared with the core pipeline
            mem_reads_of = [mem_reads(ins) for ins in instructions]
            mem_writes_of = [mem_writes(ins) for ins in instructions]

        for it in range(warmup + iterations):
            for j in range(n_body):
                r = resolved[j]

                # unfused dispatch accounting
                slots = max(1, r.n_uops)
                frontend_time += slots / dispatch_width
                dispatch = frontend_time

                ready = dispatch
                for root in reg_reads[j]:
                    ready = max(ready, reg_ready.get(root, 0.0))
                # llvm-mca's default is -noalias=true: no memory
                # dependencies are modeled at all
                if not self.assume_noalias:
                    for key in mem_reads_of[j]:
                        ready = max(ready, mem_ready.get(key, 0.0))

                finish = ready
                for u in r.uops:
                    start, chosen = issue_unit.issue(u.ports, ready, u.cycles)
                    port_busy[chosen] += u.cycles
                    finish = max(finish, start)
                if r.divider:
                    start = max(divider_free, ready)
                    divider_free = start + r.divider
                    finish = max(finish, start)

                complete = finish + r.latency
                if r.n_loads:
                    complete += r.load_latency

                last_retire = max(last_retire, complete)
                for root in reg_writes[j]:
                    reg_ready[root] = complete
                if not self.assume_noalias:
                    for key in mem_writes_of[j]:
                        mem_ready[key] = complete
            issue_unit.advance(frontend_time)
            if it == warmup - 1:
                mark = max(frontend_time, last_retire)

        total = max(frontend_time, last_retire)
        per_iter = (total - mark) / iterations
        pressure = {p: port_busy[p] / (warmup + iterations) for p in self.model.ports}
        return MCAResult(
            cycles_per_iteration=per_iter,
            total_cycles=total,
            iterations=iterations,
            uops_per_iteration=uops_per_iter,
            resource_pressure=pressure,
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
