"""Top-down cycle attribution by counterfactual simulation.

Intel's Top-down Microarchitecture Analysis answers "where did the
cycles go?" with slot-accounting counters.  With a simulator the same
question can be answered more directly: re-run the block with one
constraint idealized at a time and attribute the cycle delta to that
constraint.

Categories (mutually comparable, not additive — each delta is "cycles
recovered if only this limiter were removed"):

* ``retiring``      — the resource-bound floor (ideal everything)
* ``frontend``      — delta from an infinitely wide dispatch
* ``dependencies``  — delta from zero-latency results
* ``memory``        — delta from zero load-to-use latency
* ``divider``       — delta from a fully pipelined divider
* ``ports``         — floor attributable to execution-port pressure

The dominant category matches
:attr:`repro.analysis.throughput.AnalysisResult.bottleneck` for
clear-cut kernels — asserted in the test suite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from ..isa.instruction import Instruction
from ..machine import MachineModel, coerce_model
from ..simulator.engine import CycleEngine
from ..simulator.plan import PlanConfig, build_uop_plan


@dataclass
class TopdownReport:
    cycles_per_iteration: float
    floor_cycles: float  #: resource floor with every limiter idealized
    deltas: dict[str, float]

    @property
    def dominant(self) -> str:
        if not self.deltas or max(self.deltas.values()) <= 1e-9:
            return "ports"
        return max(self.deltas, key=lambda k: self.deltas[k])

    def render(self) -> str:
        lines = [
            f"measured:            {self.cycles_per_iteration:8.2f} cy/iter",
            f"resource floor:      {self.floor_cycles:8.2f} cy/iter",
            "cycles recovered by idealizing, one at a time:",
        ]
        for k, v in sorted(self.deltas.items(), key=lambda kv: -kv[1]):
            mark = "  <-- dominant" if k == self.dominant and v > 1e-9 else ""
            lines.append(f"  {k:14s} {v:8.2f}{mark}")
        return "\n".join(lines)


def _run(
    model: MachineModel,
    instrs,
    iterations=100,
    warmup=40,
    *,
    no_latency: bool = False,
    divider_overrides=None,
) -> float:
    """Cycles/iteration of a clean run (no efficiency loss or harness
    overhead); ``no_latency`` zeroes every result latency."""
    plan = build_uop_plan(
        instrs,
        model,
        config=PlanConfig.make(
            issue_efficiency=1.0,
            dispatch_efficiency=1.0,
            measurement_overhead=0.0,
            divider_overrides=divider_overrides,
        ),
    )
    if no_latency:
        plan = dataclasses.replace(plan, eff_latency=(0.0,) * plan.n_body)
    return CycleEngine().run(
        plan, iterations=iterations, warmup=warmup
    ).cycles_per_iteration


class _NoLoadLatencyModelWrapper:
    """Model proxy with zero load-to-use latency."""

    def __new__(cls, model: MachineModel) -> MachineModel:
        return dataclasses.replace(
            model,
            load_latency_gpr=0.0,
            load_latency_vec=0.0,
            entries=list(model.entries),
        )


def analyze_topdown(
    source_or_instrs: str | Sequence[Instruction],
    arch: str | MachineModel,
    iterations: int = 100,
) -> TopdownReport:
    """Attribute a loop body's cycles by counterfactual simulation."""
    model = coerce_model(arch)
    if isinstance(source_or_instrs, str):
        # Counterfactual runs perturb the model, so only the parsed
        # (not resolved) form of the lowered block is reusable here.
        from ..lowering import lower

        instrs = list(lower(source_or_instrs, model).instructions)
    else:
        instrs = list(source_or_instrs)

    measured = _run(model, instrs, iterations)

    # frontend idealized: absurdly wide dispatch
    wide = dataclasses.replace(
        model, dispatch_width=512, retire_width=512, entries=list(model.entries)
    )
    no_frontend = _run(wide, instrs, iterations)

    # dependencies idealized: all results in zero cycles
    no_deps = _run(model, instrs, iterations, no_latency=True)

    # memory idealized: zero load-to-use latency (ports still busy)
    no_mem = _run(_NoLoadLatencyModelWrapper(model), instrs, iterations)

    # divider idealized: fully pipelined divide
    no_div = _run(
        model,
        instrs,
        iterations,
        divider_overrides={(model.name, i.mnemonic): 1.0 for i in instrs},
    )

    # floor: everything idealized at once
    floor = _run(
        wide,
        instrs,
        iterations,
        no_latency=True,
        divider_overrides={(wide.name, i.mnemonic): 1.0 for i in instrs},
    )

    deltas = {
        "frontend": max(0.0, measured - no_frontend),
        "dependencies": max(0.0, measured - no_deps),
        "memory": max(0.0, measured - no_mem),
        "divider": max(0.0, measured - no_div),
    }
    return TopdownReport(
        cycles_per_iteration=measured,
        floor_cycles=floor,
        deltas=deltas,
    )
