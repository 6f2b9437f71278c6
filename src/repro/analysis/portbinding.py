"""µop → port assignment.

The throughput bound of a loop body is the highest per-port occupancy
achievable by the *best possible* schedule.  Two assignment strategies
are provided:

* :func:`assign_ports_heuristic` — the OSACA default: every µop spreads
  its occupancy equally over all candidate ports.  Fast, and exact
  whenever candidate sets are nested or disjoint (the common case).
* :func:`assign_ports_optimal` — the most balanced binding: the
  lexicographically optimal base of the port polymatroid (Fujishige,
  Math. Oper. Res. 5(2), 1980).  Its highest load is the exact minimax
  bound the hardware scheduler is measured against; below that it
  loads every other port as evenly as the candidate sets allow.  The
  binding is unique, so each port's load depends on the block's
  multiset of µops and never on instruction order.

Both return a :class:`PortPressure` with per-port totals and the
per-instruction breakdown used in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..machine.model import MachineModel, ResolvedInstruction


@dataclass
class PortPressure:
    """Result of a port-assignment pass."""

    ports: tuple[str, ...]
    #: total occupancy per port (cycles per iteration)
    totals: dict[str, float]
    #: per-instruction, per-port occupancy: one dict per instruction
    per_instruction: list[dict[str, float]]
    method: str = "heuristic"
    #: the ports that bind the bound: the densest port set for the
    #: optimal binding, the most loaded ports for the equal split
    bottleneck_ports: tuple[str, ...] = ()

    @property
    def max_pressure(self) -> float:
        return max(self.totals.values()) if self.totals else 0.0


def assign_ports_heuristic(
    model: MachineModel, resolved: Sequence[ResolvedInstruction]
) -> PortPressure:
    """Equal-split assignment (OSACA's default scheme)."""
    totals = {p: 0.0 for p in model.ports}
    per_instr = [dict() for _ in resolved]  # type: list[dict[str, float]]
    for i, r in enumerate(resolved):
        for u in r.uops:
            share = u.cycles / len(u.ports)
            for p in u.ports:
                totals[p] += share
                per_instr[i][p] = per_instr[i].get(p, 0.0) + share
    top = max(totals.values(), default=0.0)
    return PortPressure(
        ports=model.ports, totals=totals, per_instruction=per_instr,
        method="heuristic",
        bottleneck_ports=tuple(p for p in model.ports if top and totals[p] == top),
    )


def assign_ports_optimal(
    model: MachineModel, resolved: Sequence[ResolvedInstruction]
) -> PortPressure:
    """The unique most balanced port binding, level by level.

    A set ``S`` of ports must absorb every µop whose candidates all lie
    in ``S``, so no binding loads ``S`` below its *density*
    ``work(S) / |S|`` (Gale–Hoffman: the densest set's density is the
    minimax bound).  The densest set is a union of candidate sets, so
    each level scans the unions of the distinct candidate masks, keeps
    the largest set of the highest density, loads each of its ports
    with exactly that density, and restricts the remaining µops to the
    other ports.  Densities strictly fall from level to level.

    Work is summed exactly, as integers in units of the finest binary
    fraction among the µop cycles, so densities compare exactly and
    every total is a correctly rounded quotient.  A per-level max-flow
    over the groups of µops that share a candidate mask fills the
    per-instruction table; each µop takes its group's flow to a port in
    proportion to its cycles.
    """
    port_bit = {p: 1 << k for k, p in enumerate(model.ports)}
    uops = [
        (i, sum(port_bit[p] for p in set(u.ports)), u.cycles.as_integer_ratio())
        for i, r in enumerate(resolved)
        for u in r.uops
        if u.cycles > 0
    ]
    scale = max((den for _, _, (_, den) in uops), default=1)
    work = [num * (scale // den) for _, _, (num, den) in uops]
    masks = [mask for _, mask, _ in uops]
    totals = {p: 0.0 for p in model.ports}
    per_instr = [dict() for _ in resolved]  # type: list[dict[str, float]]
    bottleneck = 0
    live = list(range(len(uops)))
    while live:
        weight: dict[int, int] = {}
        for k in live:
            weight[masks[k]] = weight.get(masks[k], 0) + work[k]
        level, load = _densest(weight)
        bottleneck = bottleneck or level
        size = level.bit_count()
        level_ports = [p for p in model.ports if port_bit[p] & level]
        for p in level_ports:
            totals[p] = load / (scale * size)

        groups = {m: w for m, w in weight.items() if m & ~level == 0}
        flow = _route(groups, size, load, [port_bit[p] for p in level_ports])
        rest = []
        for k in live:
            m = masks[k]
            if m not in groups:
                masks[k] = m & ~level
                rest.append(k)
                continue
            # an instruction's row sums its µops level by level, each
            # level in the instruction's own µop order: independent of
            # where the instruction sits in the body
            row = per_instr[uops[k][0]]
            denom = groups[m] * size * scale
            for p, f in zip(level_ports, flow[m]):
                if f:
                    row[p] = row.get(p, 0.0) + f * work[k] / denom
        live = rest
    return PortPressure(
        ports=model.ports, totals=totals, per_instruction=per_instr,
        method="optimal",
        bottleneck_ports=tuple(p for p in model.ports if port_bit[p] & bottleneck),
    )


def _densest(weight: dict[int, int]) -> tuple[int, int]:
    """The largest port mask of the highest ``work / ports`` density.

    ``weight`` maps candidate masks to their summed (integer) work.
    Returns ``(mask, work inside mask)``.  The maximizers are closed
    under union, so the largest one is unique and scan order is moot.
    """
    unions = {0}
    for m in weight:
        unions |= {u | m for u in unions}
    best, best_load, best_size = 0, 0, 1
    for u in unions:
        if not u:
            continue
        load = sum(w for m, w in weight.items() if m & ~u == 0)
        size = u.bit_count()
        lhs, rhs = load * best_size, best_load * size
        if lhs > rhs or (lhs == rhs and size > best_size):
            best, best_load, best_size = u, load, size
    return best, best_load


def _route(
    groups: dict[int, int], size: int, load: int, bits: list[int]
) -> dict[int, list[int]]:
    """Exact max-flow of one level: every port of it receives ``load``.

    Group ``m`` supplies ``size * groups[m]`` (work scaled by the
    level's port count, so port capacities are integers too) over the
    ports in ``m``; ``bits`` are the level's ports in model order.
    Shortest augmenting paths in a fixed scan order keep the flow
    deterministic.  Returns each group's flow per port of ``bits``.
    """
    order = sorted(groups)
    supply = {m: w * size for m, w in groups.items()}
    room = [load] * len(bits)
    flow = {m: [0] * len(bits) for m in order}
    reach = {m: [j for j, b in enumerate(bits) if m & b] for m in order}
    while True:
        via_port: dict[int, int] = {}  # group -> port it was reached by
        via_group: dict[int, int] = {}  # port -> group it was reached by
        queue = [m for m in order if supply[m]]
        for m in queue:
            via_port[m] = -1
        end = -1
        for m in queue:  # grows while scanned: breadth first
            for j in reach[m]:
                if j in via_group:
                    continue
                via_group[j] = m
                if room[j]:
                    end = j
                    break
                for g in order:
                    if g not in via_port and flow[g][j]:
                        via_port[g] = j
                        queue.append(g)
            if end >= 0:
                break
        if end < 0:
            return flow
        amount, j = room[end], end
        while True:
            m = via_group[j]
            j = via_port[m]
            if j < 0:
                amount = min(amount, supply[m])
                break
            amount = min(amount, flow[m][j])
        room[end] -= amount
        j = end
        while True:
            m = via_group[j]
            flow[m][j] += amount
            j = via_port[m]
            if j < 0:
                supply[m] -= amount
                break
            flow[m][j] -= amount
