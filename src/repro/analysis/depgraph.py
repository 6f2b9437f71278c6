"""Dependency analysis: RAW chains, critical path, loop-carried cycles.

The block under analysis is the body of an innermost loop, executed many
times.  Out-of-order hardware renames away WAR/WAW hazards, so only true
(read-after-write) dependencies matter:

* **register RAW** — a consumer reading root register ``R`` depends on
  the most recent program-order producer of ``R``; if none precedes it
  in the block, the *last* producer of ``R`` in the block feeds it from
  the **previous iteration** (a cross-iteration edge).
* **memory RAW** — a load whose address expression *textually matches*
  an earlier store's (same base/index/scale/displacement roots) depends
  on that store (store-to-load forwarding).  Matching is exact, which is
  the right conservatism for compiler-generated streaming kernels where
  aliasing loads use distinct displacements.

Edge weight is the producer's result latency (including load-to-use
latency for loads).  Two metrics are derived:

* **critical path (CP)** — longest node-weighted path through one
  iteration, a latency bound for straight-line execution;
* **loop-carried dependency (LCD)** — the heaviest dependency *cycle*
  crossing the iteration boundary; at steady state, one iteration
  cannot take fewer cycles than the heaviest cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..isa.dataflow import Renaming, derive_dataflow
from ..isa.instruction import Instruction
from ..machine.model import MachineModel, ResolvedInstruction


@dataclass
class DepEdge:
    src: int
    dst: int
    latency: float
    kind: str  #: "reg" | "mem" | "reg-carried" | "mem-carried"
    resource: str  #: register root or memory key string


@dataclass
class DependencyGraph:
    """Dependency structure of one loop-body iteration."""

    instructions: Sequence[Instruction]
    #: each node's result latency after renaming, plus load-to-use time
    #: when it loads: the weight of every edge out of it
    weights: Sequence[float]
    edges: list[DepEdge] = field(default_factory=list)

    # ------------------------------------------------------------------

    def intra_graph(self) -> "IntraGraph":
        """Intra-iteration edges, heaviest per node pair."""
        return IntraGraph(len(self.instructions), self.edges)

    def carried_edges(self) -> list[DepEdge]:
        return [e for e in self.edges if e.kind.endswith("carried")]

    # ------------------------------------------------------------------

    def critical_path(self) -> float:
        """Longest latency chain through one iteration (cycles)."""
        succ = self.intra_graph().successors
        if not succ:
            return 0.0
        # Node-weighted longest path: dp[j] = max over preds of
        # dp[i] + edge latency, plus the node's own latency at the end.
        # Every edge points forward, so program order is topological.
        dp = [0.0] * len(succ)
        for n, out in enumerate(succ):
            for m, latency in out.items():
                dp[m] = max(dp[m], dp[n] + latency)
        # Add the terminal node's latency so a single long-latency
        # instruction shows its full cost.
        return max(d + w for d, w in zip(dp, self.weights))

    def loop_carried_dependency(self) -> tuple[float, list[int]]:
        """Heaviest dependency cycle per iteration.

        Returns ``(cycles, node_chain)`` where ``node_chain`` is the
        intra-iteration path of the heaviest cycle (empty if none).
        """
        carried = self.carried_edges()
        if not carried:
            return 0.0, []
        succ = self.intra_graph().successors
        best = 0.0
        best_chain: list[int] = []
        # Longest path dst -> src for each carried edge (src written this
        # iteration, consumed by dst next iteration); the path lies
        # between the two in program order.
        for e in carried:
            start, end = e.dst, e.src
            if start == end:
                total = e.latency
                if total > best:
                    best, best_chain = total, [end]
                continue
            dist = [float("-inf")] * len(succ)
            prev: list[Optional[int]] = [None] * len(succ)
            dist[start] = 0.0
            for n in range(start, end):
                if dist[n] == float("-inf"):
                    continue
                for m, latency in succ[n].items():
                    cand = dist[n] + latency
                    if cand > dist[m]:
                        dist[m] = cand
                        prev[m] = n
            if dist[end] == float("-inf"):
                continue
            total = dist[end] + e.latency
            if total > best:
                best = total
                chain = [end]
                while prev[chain[-1]] is not None:
                    chain.append(prev[chain[-1]])  # type: ignore[arg-type]
                best_chain = list(reversed(chain))
        return best, best_chain


class IntraGraph:
    """Intra-iteration RAW edges as per-node successor dicts.

    ``successors[i]`` maps each consumer of instruction *i* to the
    heaviest edge latency between the two.  Every intra-iteration edge
    runs from an earlier instruction to a later one, so program order
    is a topological order.
    """

    __slots__ = ("successors",)

    def __init__(self, n: int, edges: Sequence[DepEdge]):
        self.successors: list[dict[int, float]] = [{} for _ in range(n)]
        for e in edges:
            if e.kind in ("reg", "mem"):
                out = self.successors[e.src]
                if out.get(e.dst, float("-inf")) < e.latency:
                    out[e.dst] = e.latency

    def has_edge(self, src: int, dst: int) -> bool:
        return dst in self.successors[src]


def build_dependency_graph(
    instructions: Sequence[Instruction],
    resolved: Sequence[ResolvedInstruction],
    model: MachineModel,
) -> DependencyGraph:
    """Construct the dependency graph of a loop body.

    Dependencies come from :func:`~repro.isa.dataflow.derive_dataflow`
    under what a static analyzer may assume
    (:meth:`~repro.isa.dataflow.Renaming.static`): the model's zero
    idioms, but neither merge renaming nor move elimination.  Hardware
    with them (Neoverse V2 on Gauss-Seidel) beats the bound.
    """
    flow = derive_dataflow(instructions, resolved, Renaming.static(model))
    weights = tuple(
        lat + (r.load_latency if r.n_loads else 0.0)
        for lat, r in zip(flow.latency, resolved)
    )

    # The final writer of each register root and memory key feeds the
    # next iteration.  A zero idiom is never one: a known over-estimate,
    # kept because published outputs pin it (a read ahead of the idiom
    # chains to an earlier writer of the previous iteration instead).
    final_reg_writer: dict[str, int] = {}
    final_mem_writer: dict[tuple, int] = {}
    for i, zero in enumerate(flow.zero):
        if zero:
            continue
        for root in flow.writes[i]:
            final_reg_writer[root] = i
        for key, _ in flow.mem_writes[i]:
            final_mem_writer[key] = i

    edges: list[DepEdge] = []
    last_reg_writer: dict[str, int] = {}
    last_mem_writer: dict[tuple, int] = {}
    for i in range(len(weights)):
        for root in flow.reads[i]:
            src = last_reg_writer.get(root)
            if src is not None:
                edges.append(DepEdge(src, i, weights[src], "reg", root))
            elif final_reg_writer.get(root, -1) >= i:
                src = final_reg_writer[root]
                edges.append(DepEdge(src, i, weights[src], "reg-carried", root))
        # store-to-load forwarding; a loop-variant key aliases only
        # within an iteration (the in-place UPDATE kernel must not chain
        # on its own store)
        for key, variant in flow.mem_reads[i]:
            src = last_mem_writer.get(key)
            if src is not None:
                edges.append(DepEdge(src, i, weights[src], "mem", str(key)))
            elif not variant and final_mem_writer.get(key, -1) >= i:
                src = final_mem_writer[key]
                edges.append(DepEdge(src, i, weights[src], "mem-carried", str(key)))
        for root in flow.writes[i]:
            last_reg_writer[root] = i
        for key, _ in flow.mem_writes[i]:
            last_mem_writer[key] = i

    return DependencyGraph(instructions, weights, edges)
