"""The cycle-accurate engine: replays a :class:`~repro.simulator.plan.UopPlan`.

This is the stand-in for the physical CPUs: it executes a loop body
repeatedly under the same port model the analyzer uses, but with the
*mechanisms* of a real core rather than an idealized bound:

* in-order dispatch at ``dispatch_width`` fused-domain slots/cycle
  (cmp+jcc macro-fusion on x86),
* register renaming — only true (RAW) dependencies stall; recognized
  zero idioms and eliminated moves neither execute nor depend,
* **greedy** µop→port binding: each µop picks the candidate port that
  is free earliest at issue time (hardware schedulers are greedy, the
  analyzer's balanced binding is clairvoyant — this is one structural
  reason measurements exceed predictions), with gap backfill (the
  scheduler window only bounds the idle gaps kept; see
  :class:`_PortIssueUnit`),
* non-pipelined divide/sqrt unit and serialized special ops (gathers),
* finite reorder buffer with in-order retirement,
* at most one taken branch per cycle.

Hardware-specific behaviours the static model deliberately does *not*
track (the paper's two documented over-prediction cases):

* merge reads of predicated SVE destinations are renamed away and
  ``fmov d, d`` is an eliminated move (the plan assumes the chip's
  renaming, :meth:`~repro.isa.dataflow.Renaming.chip`, and the model
  only the static set; Neoverse V2 Gauss-Seidel),
* the Zen 4 scalar divider sustains a better reciprocal throughput than
  its documented occupancy (``divider_overrides``; π kernel).

Stage two of the staged simulator pipeline.  The engine owns only the
*dynamic* state — port timelines, divider/special availability,
register and memory readiness, the reorder buffer — and walks the
plan's precomputed tables, compiled once per replay into records over
small integers, iteration by iteration.  It is the only copy
of the out-of-order step: a measurement is :meth:`CycleEngine.run`
over a :func:`~repro.simulator.plan.build_uop_plan` plan, and the MCA
baseline is :meth:`CycleEngine.replay` over the plan
:class:`~repro.mca.simulator.MCASimulator` builds from its scheduling
data (per-µop dispatch steps, no ROB, no branch or special-op limits).
The arithmetic is that of the historical monolithic simulator (same
operations, same order), so results are bit-identical to every
committed golden: cycles, stall attribution, and the profiler's
deterministic cycle attribution.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..context import current_context
from ..machine import MachineModel
from .plan import UopPlan


@dataclass
class TraceEvent:
    """Timing of one dynamic instruction instance (timeline view)."""

    iteration: int
    index: int
    text: str
    dispatch: float
    exec_start: float
    complete: float
    retire: float


@dataclass
class SimulationResult:
    """Steady-state outcome of simulating a loop body."""

    cycles_per_iteration: float
    total_cycles: float
    iterations: int
    warmup_iterations: int
    port_busy: dict[str, float]
    instructions_retired: int
    trace: list[TraceEvent] = None  # type: ignore[assignment]
    #: per-cause stall attribution in cycles, populated when the run
    #: collects stats (``collect_stalls=True`` or a tracer)
    stall_cycles: Optional[dict[str, float]] = None

    @property
    def ipc(self) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return self.instructions_retired / self.total_cycles


class _PortIssueUnit:
    """Port availability with gap backfill.

    Real OoO schedulers are greedy *per cycle*: an older µop with a
    far-future ready time does not reserve the port — younger ready µops
    backfill the idle cycles.  We model each port as a busy timeline
    with explicit gaps; :meth:`CycleEngine.replay` issues a µop into
    the earliest gap (or at the tail) no earlier than its ready time.

    The state is held per port position (the index into ``ports``):
    ``tails`` ends each busy timeline, and ``gap_starts`` /
    ``gap_ends`` hold each port's disjoint ``[start, end)`` gaps as two
    index-aligned columns sorted by end (appended at the tail, split
    in place, pruned from the front), so the first-fit search bisects
    the ends to the first gap ending no earlier than ``ready + dur`` —
    no gap before it can hold the µop.  Once per iteration the engine
    drops gaps that end more than the plan's ``scheduler_window``
    cycles before the dispatch clock.  Every later µop is ready no
    earlier than that clock, so a dropped gap could never be filled:
    the window bounds the gap lists, it never changes a placement.
    :attr:`tail` and :attr:`gaps` read the same state by port name.
    """

    #: gaps shorter than this are not stored.  A gap ``(g0, g1)`` is
    #: also stored only if ``g0 + shortest[port] <= g1``, where
    #: ``shortest`` is the least occupancy of any µop that may issue on
    #: the port (see :func:`_compile`).  A µop of occupancy ``d``
    #: starts at some ``s >= g0`` and fits only if ``s + d <= g1``;
    #: rounding is monotone, so ``s + d >= g0 + shortest``, and a gap
    #: that fails the test (the same float addition as the fit test)
    #: can never be filled.  Neither rule moves a placement.
    GAP_MIN = 0.5

    def __init__(self, ports):
        self.ports = tuple(ports)
        self.tails = [0.0] * len(self.ports)
        self.gap_starts: list[list[float]] = [[] for _ in self.ports]
        self.gap_ends: list[list[float]] = [[] for _ in self.ports]

    @property
    def tail(self) -> dict[str, float]:
        """Each port's busy-timeline end, by port name."""
        return dict(zip(self.ports, self.tails))

    @property
    def gaps(self) -> dict[str, list[tuple[float, float]]]:
        """Each port's stored gaps, by port name."""
        return {
            p: list(zip(starts, ends))
            for p, starts, ends in zip(self.ports, self.gap_starts, self.gap_ends)
        }


def _compile(plan: UopPlan) -> tuple[list[tuple], int, int, list[float]]:
    """The plan's per-instruction tables as one record per instruction.

    Each record indexes small integers instead of names: µop candidate
    ports by position in ``plan.ports``, and register roots and memory
    keys by id in one readiness table laid out as registers, then
    loop-invariant keys, then loop-variant keys.  A loop-variant key
    aliases only within an iteration, so the engine resets its part of
    the table at each iteration.  A record is ``(step, reads, uops,
    divider, special, is_branch, latency, load_latency, writes,
    reg_reads)``: ``reads`` and ``writes`` hold table ids, ``reg_reads``
    the register ids alone (for stall attribution), ``uops`` holds
    ``(positions, cycles, dur)`` and ``special`` is ``None`` or
    ``(special-op id, reciprocal throughput)``.

    Returns ``(records, table_size, variant_lo, shortest)``, where the
    loop-variant keys take ids ``variant_lo`` and up, and ``shortest``
    is each port's least positive µop occupancy (``inf`` for a port no
    µop may use).
    """
    port_at = {p: k for k, p in enumerate(plan.ports)}
    regs: dict[str, int] = {}
    invariant: dict[tuple, int] = {}
    variant: dict[tuple, int] = {}
    for j in range(plan.n_body):
        for root in (*plan.reads[j], *plan.writes[j]):
            regs.setdefault(root, len(regs))
        for key, loop_variant in (*plan.mem_reads_of[j], *plan.mem_writes_of[j]):
            ids = variant if loop_variant else invariant
            ids.setdefault(key, len(ids))
    invariant_lo = len(regs)
    variant_lo = invariant_lo + len(invariant)

    def mem_ids(keys) -> tuple[int, ...]:
        return tuple(
            variant_lo + variant[key] if loop_variant
            else invariant_lo + invariant[key]
            for key, loop_variant in keys
        )

    shortest = [math.inf] * len(plan.ports)
    specials: dict[str, int] = {}
    records = []
    for j in range(plan.n_body):
        uops = []
        for ports, cycles, dur in plan.uop_plans[j]:
            positions = tuple(port_at[p] for p in ports)
            if dur > 0:
                for k in positions:
                    if dur < shortest[k]:
                        shortest[k] = dur
            uops.append((positions, cycles, dur))
        special = plan.special_of[j]
        if special is not None:
            mnemonic = plan.mnemonic_of[j]
            special = (specials.setdefault(mnemonic, len(specials)), special)
        reg_reads = tuple(regs[root] for root in plan.reads[j])
        records.append((
            plan.step_of[j],
            reg_reads + mem_ids(plan.mem_reads_of[j]),
            tuple(uops),
            plan.divider_occ[j],
            special,
            plan.is_branch_of[j],
            plan.eff_latency[j],
            plan.load_lat[j],
            tuple(regs[root] for root in plan.writes[j])
            + mem_ids(plan.mem_writes_of[j]),
            reg_reads,
        ))
    return records, variant_lo + len(variant), variant_lo, shortest


class CycleEngine:
    """Cycle-accurate execution of a prepared :class:`UopPlan`."""

    def run(
        self,
        plan: UopPlan,
        iterations: int = 200,
        warmup: int = 50,
        trace_iterations: int = 0,
        *,
        tracer=None,
        collect_stalls: bool = False,
    ) -> SimulationResult:
        """Measure ``plan``: :meth:`replay` it and publish the profile.

        ``tracer`` (a :class:`repro.obs.Tracer`) records every dynamic
        instruction as Chrome trace events: dispatch slots on the
        frontend lane, µop slices on per-port lanes, retire instants,
        and cause-attributed stall events.  ``collect_stalls`` fills
        :attr:`SimulationResult.stall_cycles` without tracing.
        The run context's profiler (:mod:`repro.context`), when one is
        installed, receives deterministic sub-phase cycle attribution —
        frontend dispatch, ROB backpressure, issue/port waits, retire —
        plus per-mnemonic µop cycles, per-port occupancy, and
        ROB/scheduler-window accounting.  All three default off and then
        cost nothing: the hot loop only tests hoisted booleans.
        """
        prof = current_context().profiler
        keep_stalls = collect_stalls or tracer is not None
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        result, issue_unit = self.replay(
            plan, iterations, warmup, trace_iterations,
            tracer=tracer, collect=keep_stalls or prof is not None,
        )
        if prof is not None:
            _publish_profile(
                prof,
                wall=time.perf_counter() - wall0,
                cpu=time.process_time() - cpu0,
                result=result,
                plan=plan,
                issue_unit=issue_unit,
            )
            if not keep_stalls:
                result.stall_cycles = None
        return result

    def replay(
        self,
        plan: UopPlan,
        iterations: int,
        warmup: int,
        trace_iterations: int = 0,
        *,
        tracer=None,
        collect: bool = False,
    ) -> tuple[SimulationResult, _PortIssueUnit]:
        """Execute ``warmup + iterations`` iterations; measure the tail.

        Steady-state cycles/iteration is the slope between the retire
        time of the last warmup iteration and the final iteration.
        With ``trace_iterations > 0``, per-instance timing events for
        the first iterations are collected (the llvm-mca-style
        timeline; see :mod:`repro.simulator.timeline`).  ``collect``
        (implied by a ``tracer``) fills
        :attr:`SimulationResult.stall_cycles`.  A plan with
        ``rob_size == 0`` has no reorder buffer: nothing is kept per
        dynamic instruction and dispatch never waits on retirement.

        The plan is first compiled (:func:`_compile`, once per replay)
        into one record per instruction over port positions and
        register / memory-key ids, so the loop indexes lists instead of
        hashing names.  Port placement stores only gaps that some µop
        of the port could fill (:attr:`_PortIssueUnit.GAP_MIN`), takes
        a candidate port that is free at the ready time at once, and
        stops searching a later candidate's gaps at the first gap that
        starts no earlier than the best start found so far.  None of
        this moves a placement.

        Publishes nothing; returns the result and the final port
        timelines.
        """
        if iterations < 1:
            raise ValueError("need at least one measured iteration")

        total_iters = warmup + iterations
        records, table_size, variant_lo, shortest = _compile(plan)

        issue_unit = _PortIssueUnit(plan.ports)
        port_tail = issue_unit.tails
        gap_starts = issue_unit.gap_starts
        gap_ends = issue_unit.gap_ends
        port_busy = [0.0] * len(plan.ports)
        divider_free = 0.0
        special_free = [0.0] * plan.n_body  # special-op ids < n_body
        # register and memory readiness by table id; the loop-variant
        # keys' slice is reset at each iteration
        ready_at = [0.0] * table_size
        variant_reset = ready_at[variant_lo:]
        last_branch = -1e9

        frontend_time = 0.0
        rob_retire: deque[float] = deque(maxlen=plan.rob_size)
        # rob_size 0 is "no ROB": the deque keeps nothing, and no length
        # equals -1, so dispatch never waits on retirement
        rob_full = plan.rob_size or -1
        retire_time_prev = 0.0
        retire_step = plan.retire_step
        mnemonic_of = plan.mnemonic_of

        # Observability is opt-in and hoisted: with all flags off the
        # loop below pays only local boolean tests per instruction.
        tracing = tracer is not None
        collect = collect or tracing
        stalls: Optional[dict[str, float]] = None
        if collect:
            stalls = {
                "rob": 0.0, "dependency.reg": 0.0, "dependency.mem": 0.0,
                "port": 0.0, "divider": 0.0, "special": 0.0,
                "branch": 0.0, "retire": 0.0,
            }
        if tracing:
            from ..obs.trace import (
                PID_SIM,
                TID_FRONTEND,
                TID_RETIRE,
                TID_STALL,
            )

            lanes = tracer.sim_lanes(plan.ports)
            port_tid = [lanes[p] for p in plan.ports]

        # hoisted bound methods / scalars of the cycle loop
        rob_append = rob_retire.append
        tb_interval = plan.config.taken_branch_interval
        gap_min = _PortIssueUnit.GAP_MIN
        window = plan.scheduler_window
        inf = math.inf

        mark_cycle = 0.0
        trace: list[TraceEvent] = []
        for it in range(total_iters):
            record = it < trace_iterations
            if variant_reset:
                ready_at[variant_lo:] = variant_reset
            for j, (
                step, reads, uops, divider, special, is_branch, latency,
                load_latency, writes, reg_reads,
            ) in enumerate(records):
                # -- frontend: in-order dispatch
                if step:
                    frontend_time += step
                dispatch = frontend_time

                # -- ROB backpressure: the slot of the instruction
                # rob_size back must have retired
                if len(rob_retire) == rob_full:
                    head = rob_retire[0]
                    if head > dispatch:
                        if collect:
                            stalls["rob"] += head - dispatch
                            if tracing:
                                tracer.instant(
                                    "stall:rob", dispatch, PID_SIM,
                                    TID_STALL, cat="stall",
                                    args={"cycles": head - dispatch,
                                          "i": j},
                                )
                        dispatch = frontend_time = head

                # -- operand readiness (registers, then memory keys)
                ready = dispatch
                for r in reads:
                    r = ready_at[r]
                    if r > ready:
                        ready = r
                if collect and ready > dispatch:
                    # attribute the wait: register bound first, any rest
                    # is memory (store-forwarding) dependences
                    reg_t = dispatch
                    for r in reg_reads:
                        r = ready_at[r]
                        if r > reg_t:
                            reg_t = r
                    if reg_t > dispatch:
                        stalls["dependency.reg"] += reg_t - dispatch
                    if ready > reg_t:
                        stalls["dependency.mem"] += ready - reg_t
                    if tracing:
                        tracer.instant(
                            "stall:dependency", dispatch, PID_SIM, TID_STALL,
                            cat="stall",
                            args={"cycles": ready - dispatch,
                                  "registers": reg_t - dispatch,
                                  "memory": ready - reg_t, "i": j},
                        )

                # -- issue µops greedily (plus split-load replays).
                # Port availability with gap backfill (see
                # _PortIssueUnit): a µop issues into the earliest gap
                # (or at the tail) no earlier than its ready time, on
                # the candidate port where that start is earliest.
                finish_exec = ready
                for cands, cycles, dur in uops:
                    if dur <= 0:
                        port_busy[cands[0]] += cycles
                        continue
                    fit_end = ready + dur
                    start = inf
                    for cand in cands:
                        tail = port_tail[cand]
                        if tail <= ready:
                            # no start is earlier than ready
                            start, gap_idx, pt = ready, -1, cand
                            break
                        s = tail
                        gi = -1
                        ends = gap_ends[cand]
                        # gaps are sorted by end, and one ending before
                        # ready + dur cannot hold the µop
                        if ends and ends[-1] >= fit_end:
                            starts = gap_starts[cand]
                            for gidx in range(
                                bisect_left(ends, fit_end), len(ends)
                            ):
                                g0 = starts[gidx]
                                if g0 >= start:
                                    # neither this gap, a later one nor
                                    # the tail beats an earlier port
                                    break
                                st = g0 if g0 > ready else ready
                                if st + dur <= ends[gidx]:
                                    s = st
                                    gi = gidx
                                    break
                        if s < start:
                            start, gap_idx, pt = s, gi, cand
                            if s <= ready:
                                break
                    # a new gap is stored only if some µop of the port
                    # could fill it (see _PortIssueUnit.GAP_MIN)
                    end = start + dur
                    if gap_idx < 0:
                        tail = port_tail[pt]
                        if (
                            start - tail >= gap_min
                            and tail + shortest[pt] <= start
                        ):
                            gap_starts[pt].append(tail)
                            gap_ends[pt].append(start)
                        port_tail[pt] = end
                    else:
                        starts = gap_starts[pt]
                        ends = gap_ends[pt]
                        g0 = starts[gap_idx]
                        g1 = ends[gap_idx]
                        fill = shortest[pt]
                        front = start - g0 >= gap_min and g0 + fill <= start
                        back = g1 - end >= gap_min and end + fill <= g1
                        if front:
                            ends[gap_idx] = start
                            if back:
                                starts.insert(gap_idx + 1, end)
                                ends.insert(gap_idx + 1, g1)
                        elif back:
                            starts[gap_idx] = end
                        else:
                            del starts[gap_idx]
                            del ends[gap_idx]
                    port_busy[pt] += cycles
                    if start > finish_exec:
                        finish_exec = start
                    if tracing:
                        tracer.complete(
                            mnemonic_of[j], start, dur, PID_SIM,
                            port_tid[pt], cat="uop",
                            args={"iter": it, "i": j},
                        )
                if collect and finish_exec > ready:
                    stalls["port"] += finish_exec - ready
                    if tracing:
                        tracer.instant(
                            "stall:port", ready, PID_SIM, TID_STALL,
                            cat="stall",
                            args={"cycles": finish_exec - ready, "i": j},
                        )

                if divider:
                    start = divider_free if divider_free > ready else ready
                    if collect and start > ready:
                        stalls["divider"] += start - ready
                        if tracing:
                            tracer.instant(
                                "stall:divider", ready, PID_SIM, TID_STALL,
                                cat="stall",
                                args={"cycles": start - ready, "i": j},
                            )
                    divider_free = start + divider
                    if start > finish_exec:
                        finish_exec = start

                if special is not None:
                    sid, throughput = special
                    start = special_free[sid]
                    if start < ready:
                        start = ready
                    elif collect and start > ready:
                        stalls["special"] += start - ready
                    special_free[sid] = start + throughput
                    if start > finish_exec:
                        finish_exec = start

                if is_branch:
                    start = last_branch + tb_interval
                    if start > finish_exec:
                        if collect:
                            stalls["branch"] += start - finish_exec
                    else:
                        start = finish_exec
                    last_branch = start
                    finish_exec = start

                complete = finish_exec + latency
                if load_latency is not None:
                    complete += load_latency

                # -- retire in order
                retire = retire_time_prev + retire_step
                if retire > complete:
                    if collect:
                        stalls["retire"] += retire - complete
                else:
                    retire = complete
                retire_time_prev = retire
                rob_append(retire)

                if tracing:
                    if step:
                        tracer.complete(
                            mnemonic_of[j], dispatch, step, PID_SIM,
                            TID_FRONTEND, cat="dispatch",
                            args={"iter": it, "i": j},
                        )
                    tracer.instant(
                        mnemonic_of[j], retire, PID_SIM, TID_RETIRE,
                        cat="retire",
                        args={"iter": it, "i": j, "dispatch": dispatch,
                              "exec": finish_exec, "complete": complete,
                              "retire": retire},
                    )

                if record:
                    trace.append(
                        TraceEvent(
                            iteration=it,
                            index=j,
                            text=str(plan.instructions[j]),
                            dispatch=dispatch,
                            exec_start=finish_exec,
                            complete=complete,
                            retire=retire,
                        )
                    )

                # -- architectural effects
                for w in writes:
                    ready_at[w] = complete

            # prune gaps no later µop can fill: every later µop is ready
            # no earlier than the dispatch clock, so one prune per
            # iteration suffices
            horizon = frontend_time - window
            if horizon > 0:
                for starts, ends in zip(gap_starts, gap_ends):
                    if ends and ends[0] < horizon:
                        k = bisect_left(ends, horizon)
                        del starts[:k]
                        del ends[:k]
            if it == warmup - 1:
                mark_cycle = retire_time_prev

        total = retire_time_prev
        measured = total - mark_cycle if warmup > 0 else total
        measured *= 1.0 + plan.config.measurement_overhead
        return SimulationResult(
            cycles_per_iteration=measured / iterations,
            total_cycles=total,
            iterations=iterations,
            warmup_iterations=warmup,
            port_busy=dict(zip(plan.ports, port_busy)),
            instructions_retired=total_iters * plan.n_body,
            trace=trace,
            stall_cycles=stalls,
        ), issue_unit


def _publish_profile(
    prof,
    *,
    wall: float,
    cpu: float,
    result: SimulationResult,
    plan: UopPlan,
    issue_unit: _PortIssueUnit,
) -> None:
    """Publish one run's deterministic attribution to the profiler.

    Everything here is a pure function of the simulated schedule
    (no wall-clock except the ``simulate`` phase timer), so serial
    and worker-pool runs produce bit-identical records.  Per-
    mnemonic µop cycles and ROB occupancy are derived here in
    closed form — every iteration issues the same per-index µop
    cycles, and the retire deque is append-only and bounded — so
    the simulated hot loop carries no profiling branches at all.
    """
    stalls = result.stall_cycles
    total = result.total_cycles
    total_iters = result.warmup_iterations + result.iterations
    n_body = plan.n_body
    rob_size = plan.rob_size
    prof.record_phase("simulate", wall, cpu)
    prof.add_cycles(
        {
            "frontend.dispatch": total_iters * plan.n_slots * plan.dispatch_step,
            "frontend.rob_stall": stalls["rob"],
            "issue.dependency_reg": stalls["dependency.reg"],
            "issue.dependency_mem": stalls["dependency.mem"],
            "issue.port_wait": stalls["port"],
            "issue.divider": stalls["divider"],
            "issue.special": stalls["special"],
            "issue.branch": stalls["branch"],
            "retire.inorder_wait": stalls["retire"],
            "total": total,
        }
    )
    mnem_cycles: dict[str, float] = {}
    for j in range(n_body):
        m = plan.mnemonic_of[j]
        per_iter = sum(cycles for _ports, cycles, _dur in plan.uop_plans[j])
        mnem_cycles[m] = mnem_cycles.get(m, 0.0) + per_iter * total_iters
    prof.add_instruction_cycles(mnem_cycles)
    prof.add_port_cycles(result.port_busy)
    n_instr = total_iters * n_body
    # occupancy before the k-th dynamic instruction is min(k, rob_size)
    cap = min(n_instr, rob_size)
    rob_occ_sum = cap * (cap - 1) // 2 + (n_instr - cap) * rob_size
    prof.add_counter("sim.cycles.total", total)
    prof.add_counter("sim.instructions", n_instr)
    prof.add_counter("sim.rob_occupancy_sum", float(rob_occ_sum))
    prof.add_counter("sim.rob_occupancy_samples", float(n_instr))
    gap_cycles = sum(
        g1 - g0 for gaps in issue_unit.gaps.values() for g0, g1 in gaps
    )
    prof.add_counter("sim.sched_window_gap_cycles", gap_cycles)


def simulate_kernel(
    source: str,
    arch: str | MachineModel,
    *,
    iterations: int = 200,
    warmup: int = 50,
    tracer=None,
    collect_stalls: bool = False,
    **kwargs,
) -> SimulationResult:
    """Parse and simulate an assembly loop body (the one-call entry).

    Lowers ``source`` for ``arch``, plans it under
    ``PlanConfig.make(**kwargs)``, and replays the plan on a
    :class:`CycleEngine`.  The returned
    :attr:`SimulationResult.cycles_per_iteration` plays the role of the
    paper's hardware measurement.  ``tracer`` / ``collect_stalls``
    forward to :meth:`CycleEngine.run` for pipeline tracing and stall
    attribution (see :mod:`repro.obs`).
    """
    from ..lowering import lower
    from .plan import PlanConfig, plan_for_block

    block = lower(source, arch)
    plan = plan_for_block(block, PlanConfig.make(**kwargs))
    return CycleEngine().run(
        plan,
        iterations=iterations,
        warmup=warmup,
        tracer=tracer,
        collect_stalls=collect_stalls,
    )
