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

from ..isa.idioms import is_zero_idiom
from ..isa.instruction import Instruction, OperandAccess
from ..isa.operands import MemoryOperand, Register
from ..machine.model import ResolvedInstruction


def _memory_key(op: MemoryOperand) -> tuple:
    """Structural identity of an address expression."""
    return (
        op.base.root if op.base else None,
        op.index.root if op.index else None,
        op.scale,
        op.displacement,
    )


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
    resolved: Sequence[ResolvedInstruction]
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
        return max(d + r.total_latency for d, r in zip(dp, self.resolved))

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


def _merge_only_reads(ins: Instruction) -> set[str]:
    """Destination roots read *only* through a merging predicate.

    For ``mov z5.d, p1/m, z1.d`` the old value of ``z5`` is read purely
    to merge inactive lanes — with an all-true predicate the renamer can
    satisfy it without waiting.  For a true accumulation like
    ``fadd z8.d, p0/m, z8.d, z0.d`` the destination also appears as an
    explicit source and the dependency is real.
    """
    from ..isa.instruction import OperandAccess

    if ins.isa != "aarch64":
        return set()
    merging = any(
        isinstance(o, Register) and o.predication == "m" for o in ins.operands
    )
    if not merging:
        return set()
    dest_roots = set()
    source_roots = set()
    for k, (o, a) in enumerate(zip(ins.operands, ins.accesses)):
        if not isinstance(o, Register):
            continue
        if a & OperandAccess.WRITE:
            dest_roots.add(o.root)
        if (a & OperandAccess.READ) and not (a & OperandAccess.WRITE):
            source_roots.add(o.root)
    return dest_roots - source_roots


def build_dependency_graph(
    instructions: Sequence[Instruction],
    resolved: Sequence[ResolvedInstruction],
    *,
    respect_merge_dependency: bool = True,
) -> DependencyGraph:
    """Construct the dependency graph of a loop body.

    ``respect_merge_dependency=False`` drops read-modify-write
    dependencies on *merging-predicated SVE destinations* — hardware with
    sufficiently aggressive renaming (the paper observes this on
    Neoverse V2 for the Gauss-Seidel kernel) can overcome them when the
    predicate is all-true; the static model keeps them by default.
    """
    n = len(instructions)
    edges: list[DepEdge] = []

    # Track last writer per register root and per memory key.
    last_reg_writer: dict[str, int] = {}
    last_mem_writer: dict[tuple, int] = {}

    # Registers written anywhere in the block (loop-variant): a memory
    # operand whose address uses one advances every iteration, so its
    # key aliases only *within* an iteration, never across (the
    # in-place UPDATE kernel must not chain on its own store).
    variant_regs: set[str] = set()
    for ins in instructions:
        variant_regs.update(ins.register_writes())

    def _loop_variant(op: MemoryOperand) -> bool:
        return any(r.root in variant_regs for r in op.address_registers())

    def producer_latency(i: int) -> float:
        return resolved[i].total_latency

    # First pass: record final writers for cross-iteration edges.
    final_reg_writer: dict[str, int] = {}
    final_mem_writer: dict[tuple, int] = {}
    for i, ins in enumerate(instructions):
        if is_zero_idiom(ins):
            continue
        for root in ins.register_writes():
            final_reg_writer[root] = i
        for op, acc in zip(ins.operands, ins.accesses):
            if isinstance(op, MemoryOperand) and (acc & OperandAccess.WRITE):
                final_mem_writer[_memory_key(op)] = i

    def reads_of(ins: Instruction, i: int) -> list[str]:
        reads = list(ins.register_reads())
        if not respect_merge_dependency and ins.isa == "aarch64":
            # Drop the RMW dependency a merging predicate adds to the
            # destination — but only when the destination is *not* also
            # an explicit source (true accumulations must keep their
            # chain; only the implicit merge-read is renameable).
            reads = [r for r in reads if r not in _merge_only_reads(ins)]
        return reads

    for i, ins in enumerate(instructions):
        zero = is_zero_idiom(ins)
        # -- register reads
        if not zero:
            for root in reads_of(ins, i):
                if root in last_reg_writer:
                    src = last_reg_writer[root]
                    edges.append(
                        DepEdge(src, i, producer_latency(src), "reg", root)
                    )
                elif root in final_reg_writer and final_reg_writer[root] >= i:
                    src = final_reg_writer[root]
                    edges.append(
                        DepEdge(src, i, producer_latency(src), "reg-carried", root)
                    )
            # -- memory reads (store-to-load forwarding)
            for op, acc in zip(ins.operands, ins.accesses):
                if isinstance(op, MemoryOperand) and (acc & OperandAccess.READ):
                    key = _memory_key(op)
                    if key in last_mem_writer:
                        src = last_mem_writer[key]
                        edges.append(
                            DepEdge(src, i, producer_latency(src), "mem", str(key))
                        )
                    elif (
                        key in final_mem_writer
                        and final_mem_writer[key] >= i
                        and not _loop_variant(op)
                    ):
                        src = final_mem_writer[key]
                        edges.append(
                            DepEdge(
                                src, i, producer_latency(src), "mem-carried", str(key)
                            )
                        )

        # -- update writers
        for root in ins.register_writes():
            last_reg_writer[root] = i
        for op, acc in zip(ins.operands, ins.accesses):
            if isinstance(op, MemoryOperand) and (acc & OperandAccess.WRITE):
                last_mem_writer[_memory_key(op)] = i

    return DependencyGraph(instructions=instructions, resolved=resolved, edges=edges)
