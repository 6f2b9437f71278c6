"""Block throughput prediction — the OSACA-style lower bound.

For a loop body the predicted cycles per iteration is

.. math::

    T = \\max(T_{ports}, T_{div}, T_{special}, T_{front}, T_{LCD})

where

* ``T_ports`` — the highest port load of the most balanced binding,
  the exact minimax bound (see :mod:`~repro.analysis.portbinding`),
* ``T_div`` — accumulated occupancy of the non-pipelined divide/sqrt
  unit,
* ``T_special`` — explicit reciprocal-throughput caps (gathers,
  horizontal reductions) summed per mnemonic class,
* ``T_front`` — µop count divided by the dispatch width,
* ``T_LCD`` — the heaviest loop-carried dependency cycle.

All components are kept in the result so reports and experiments can
attribute the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..isa.idioms import macro_fuses
from ..isa.instruction import Instruction
from ..machine import MachineModel
from ..machine.model import ResolvedInstruction
from .depgraph import DependencyGraph, build_dependency_graph
from .portbinding import (
    PortPressure,
    assign_ports_heuristic,
    assign_ports_optimal,
)


def _fused_domain_uops(instructions: Sequence[Instruction]) -> float:
    """Frontend slots per iteration in the fused domain.

    x86 decoders micro-fuse memory operands into their consuming µop and
    macro-fuse ``cmp``/``test`` (and flag-setting ALU ops) with a
    directly following conditional jump; AArch64 dispatches one µop per
    instruction for this vocabulary.  Counting fused-domain slots keeps
    the frontend component a true lower bound.
    """
    n = 0.0
    skip_next_fuse = False
    for i, ins in enumerate(instructions):
        if skip_next_fuse:
            skip_next_fuse = False
            continue
        if i + 1 < len(instructions) and macro_fuses(ins, instructions[i + 1]):
            skip_next_fuse = True  # macro-fused pair: one slot
        n += 1
    return n


@dataclass
class AnalysisResult:
    """Outcome of a static kernel analysis."""

    model_name: str
    instructions: Sequence[Instruction]
    resolved: Sequence[ResolvedInstruction]
    pressure: PortPressure
    depgraph: DependencyGraph

    block_throughput: float  #: T_ports — minimax port pressure
    divider_cycles: float  #: T_div
    special_cycles: float  #: T_special (explicit throughput caps)
    frontend_cycles: float  #: T_front
    critical_path: float  #: CP of one iteration
    lcd: float  #: heaviest loop-carried cycle
    lcd_chain: list[int] = field(default_factory=list)

    @property
    def throughput_bound(self) -> float:
        """Steady-state resource bound, ignoring dependencies."""
        return max(
            self.block_throughput,
            self.divider_cycles,
            self.special_cycles,
            self.frontend_cycles,
        )

    @property
    def prediction(self) -> float:
        """Predicted cycles per loop iteration (lower bound)."""
        return max(self.throughput_bound, self.lcd)

    @property
    def bottleneck(self) -> str:
        """Human-readable dominant constraint."""
        candidates = {
            "port pressure": self.block_throughput,
            "divider": self.divider_cycles,
            "serialized op": self.special_cycles,
            "frontend": self.frontend_cycles,
            "loop-carried dependency": self.lcd,
        }
        return max(candidates, key=lambda k: candidates[k])

    def report(self, **kwargs) -> str:
        from .report import render_report

        return render_report(self, **kwargs)


def analyze_instructions(
    instructions: Sequence[Instruction],
    model: MachineModel,
    *,
    optimal_binding: bool = True,
    resolved: Optional[Sequence[ResolvedInstruction]] = None,
) -> AnalysisResult:
    """Analyze a parsed loop body against a machine model.

    ``resolved`` accepts pre-resolved instructions (from a
    :class:`~repro.lowering.LoweredBlock`) so callers that already ran
    the lowering pipeline never resolve twice.
    """
    resolved = (
        [model.resolve(i) for i in instructions]
        if resolved is None
        else list(resolved)
    )

    pressure = (
        assign_ports_optimal(model, resolved)
        if optimal_binding
        else assign_ports_heuristic(model, resolved)
    )

    divider = sum(r.divider for r in resolved)
    special: dict[str, float] = {}
    for r in resolved:
        if r.throughput is not None:
            key = r.instruction.mnemonic
            special[key] = special.get(key, 0.0) + r.throughput
    special_cycles = max(special.values()) if special else 0.0

    frontend = _fused_domain_uops(instructions) / model.dispatch_width

    graph = build_dependency_graph(instructions, resolved, model)
    lcd, chain = graph.loop_carried_dependency()
    cp = graph.critical_path()

    return AnalysisResult(
        model_name=model.name,
        instructions=instructions,
        resolved=resolved,
        pressure=pressure,
        depgraph=graph,
        block_throughput=pressure.max_pressure,
        divider_cycles=divider,
        special_cycles=special_cycles,
        frontend_cycles=frontend,
        critical_path=cp,
        lcd=lcd,
        lcd_chain=chain,
    )


def analyze_kernel(
    source: str,
    arch: str | MachineModel,
    *,
    optimal_binding: bool = True,
) -> AnalysisResult:
    """Parse and analyze an assembly loop body.

    Parameters
    ----------
    source:
        Assembly text of the innermost loop body (markers and
        directives are ignored).
    arch:
        Model name/alias (``zen4``, ``spr``, ``grace`` …) or a
        :class:`MachineModel` instance.
    optimal_binding:
        Use the most balanced port binding (default; its highest load is
        the exact minimax bound) instead of the equal-split heuristic.
    """
    from ..lowering import lower

    block = lower(source, arch)
    return analyze_instructions(
        block.instructions,
        block.model,
        optimal_binding=optimal_binding,
        resolved=block.resolved,
    )
