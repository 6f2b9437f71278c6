"""OSACA-style plain-text analysis report."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .throughput import AnalysisResult


def render_report(result: "AnalysisResult", max_width: int = 120) -> str:
    """Render a per-instruction port-pressure table plus the summary.

    Mirrors OSACA's combined view: one row per instruction with its
    pressure on each port, markers for loads/stores, and the bottom
    summary lines for throughput, critical path, and LCD.
    """
    ports = result.pressure.ports
    lcd_nodes = set(result.lcd_chain)

    col_w = max(5, max((len(p) for p in ports), default=3) + 2)
    header = "| " + " ".join(f"{p:>{col_w}}" for p in ports) + " |"
    lines = []
    lines.append(f"In-core analysis for machine model: {result.model_name}")
    lines.append("")
    lines.append(" " * 6 + header)
    lines.append("-" * min(max_width, 6 + len(header)))

    for i, (ins, per) in enumerate(
        zip(result.instructions, result.pressure.per_instruction)
    ):
        cells = []
        for p in ports:
            v = per.get(p, 0.0)
            cells.append(f"{v:>{col_w}.2f}" if v > 1e-9 else " " * col_w)
        marks = ""
        if result.resolved[i].n_loads:
            marks += "L"
        if result.resolved[i].n_stores:
            marks += "S"
        if i in lcd_nodes:
            marks += "*"
        text = str(ins)
        lines.append(f"{i:>4}  | {' '.join(cells)} | {marks:<3} {text}")

    lines.append("-" * min(max_width, 6 + len(header)))
    totals = "| " + " ".join(
        f"{result.pressure.totals[p]:>{col_w}.2f}" for p in ports
    ) + " |"
    lines.append(" " * 6 + totals)
    lines.append("")
    lines.append(f"Port binding method:        {result.pressure.method}")
    binding = result.pressure.bottleneck_ports
    lines.append(f"Port pressure bound:        {result.block_throughput:8.2f} cy/iter"
                 + (f"  (port{'s' * (len(binding) > 1)} {', '.join(binding)})"
                    if binding else ""))
    if result.divider_cycles:
        lines.append(f"Divider occupancy:          {result.divider_cycles:8.2f} cy/iter")
    if result.special_cycles:
        lines.append(f"Serialized-op bound:        {result.special_cycles:8.2f} cy/iter")
    lines.append(f"Frontend bound:             {result.frontend_cycles:8.2f} cy/iter")
    lines.append(f"Critical path (1 iter):     {result.critical_path:8.2f} cy")
    lines.append(f"Loop-carried dependency:    {result.lcd:8.2f} cy/iter")
    lines.append(f"Predicted runtime:          {result.prediction:8.2f} cy/iter"
                 f"  (bottleneck: {result.bottleneck})")
    unknown = [
        str(r.instruction)
        for r in result.resolved
        if r.from_default
    ]
    if unknown:
        lines.append("")
        lines.append("WARNING: default port assignment used for:")
        for u in unknown:
            lines.append(f"  {u}")
    return "\n".join(lines)
