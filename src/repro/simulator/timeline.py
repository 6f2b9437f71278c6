"""llvm-mca-style timeline rendering of a simulation trace.

Renders per-instance pipeline occupancy like the tool's ``-timeline``
view::

    [0,0]  DeeeeeeeE-R   vmovupd [rax+rcx*8], ymm0
    [0,1]  .DeeeeeeeeeeeE-R   vfmadd231pd ...

Legend: ``D`` dispatch, ``e`` executing, ``E`` execute complete,
``R`` retired, ``.`` waiting before dispatch, ``-`` waiting to retire.
The view makes dependency stalls, divider serialization, and the steady
state of a software-pipelined loop directly visible.
"""

from __future__ import annotations

from typing import Sequence

from ..machine import MachineModel
from .engine import CycleEngine, TraceEvent
from .plan import PlanConfig, plan_for_block


def render_timeline(
    trace: Sequence[TraceEvent],
    max_cycles: int = 120,
) -> str:
    """Render trace events as a character timeline."""
    if not trace:
        return "(empty trace)"
    t0 = min(e.dispatch for e in trace)
    lines = []
    width = min(
        max_cycles, int(max(e.retire for e in trace) - t0) + 2
    )
    header = " " * 8 + "".join(str(i // 10 % 10) for i in range(width))
    header2 = " " * 8 + "".join(str(i % 10) for i in range(width))
    lines.append(header)
    lines.append(header2)
    for e in trace:
        d = int(e.dispatch - t0)
        x = int(e.exec_start - t0)
        c = int(e.complete - t0)
        r = int(e.retire - t0)
        if d >= width:
            continue
        row = ["."] * min(d, width)
        pos = len(row)

        def put(char: str, at: int):
            nonlocal row
            at = min(at, width - 1)
            while len(row) < at:
                row.append("-" if char in ("E", "R") else "=")
            if len(row) <= at:
                row.append(char)
            else:
                row[at] = char

        put("D", d)
        for k in range(max(x, d + 1), min(c, width - 1)):
            put("e", k)
        put("E", c)
        put("R", r)
        label = f"[{e.iteration},{e.index}]"
        lines.append(f"{label:>7} {''.join(row[:width])}   {e.text}")
    return "\n".join(lines)


def timeline(
    source: str,
    arch: str | MachineModel,
    iterations: int = 4,
    **sim_kwargs,
) -> str:
    """Parse, simulate, and render the timeline of the first iterations.

    Plans the lowered block under ``PlanConfig.make(**sim_kwargs)``
    and renders the engine's trace of its first ``iterations``.
    """
    from ..lowering import lower

    block = lower(source, arch)
    plan = plan_for_block(block, PlanConfig.make(**sim_kwargs))
    result = CycleEngine().run(
        plan,
        iterations=max(iterations, 10),
        warmup=0,
        trace_iterations=iterations,
    )
    return render_timeline(result.trace)
