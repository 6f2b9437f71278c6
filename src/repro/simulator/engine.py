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

* merging-predicated SVE destinations are renamed away when profitable
  (``merge_renaming=True``; Neoverse V2 Gauss-Seidel),
* the Zen 4 scalar divider sustains a better reciprocal throughput than
  its documented occupancy (``divider_overrides``; π kernel).

Stage two of the staged simulator pipeline.  The engine owns only the
*dynamic* state — port timelines, divider/special availability,
register and memory readiness, the reorder buffer — and walks the
plan's precomputed tables iteration by iteration.  It is the only copy
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

import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
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


#: sort key of a ``[start, end)`` gap: its end
_gap_end = itemgetter(1)


class _PortIssueUnit:
    """Port availability with gap backfill.

    Real OoO schedulers are greedy *per cycle*: an older µop with a
    far-future ready time does not reserve the port — younger ready µops
    backfill the idle cycles.  We model each port as a busy timeline
    with explicit gaps; :meth:`CycleEngine.replay` issues a µop into
    the earliest gap (or at the tail) no earlier than its ready time.

    Each port's gaps are disjoint ``(start, end)`` tuples sorted by end
    (appended at the tail, split in place, pruned from the front), so
    the first-fit search bisects to the first gap ending no earlier
    than ``ready + dur`` — no gap before it can hold the µop.
    :meth:`advance` drops gaps that end more than ``window`` cycles
    before the dispatch clock.  Every later µop is ready no earlier
    than that clock, so a dropped gap could never be filled: the
    window bounds the gap lists, it never changes a placement.
    """

    #: gaps shorter than the smallest µop occupancy can never be filled
    GAP_MIN = 0.5

    def __init__(self, ports, window: float = 128.0):
        self.tail = {p: 0.0 for p in ports}
        self.gaps: dict[str, list[tuple[float, float]]] = {p: [] for p in ports}
        self.window = window

    def advance(self, now: float) -> None:
        """Prune gaps ending more than ``window`` before dispatch clock ``now``."""
        horizon = now - self.window
        if horizon <= 0:
            return
        for gaps in self.gaps.values():
            if gaps and gaps[0][1] < horizon:
                del gaps[:bisect_left(gaps, horizon, key=_gap_end)]


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

        Publishes nothing; returns the result and the final port
        timelines.
        """
        if iterations < 1:
            raise ValueError("need at least one measured iteration")

        n_body = plan.n_body
        total_iters = warmup + iterations

        issue_unit = _PortIssueUnit(plan.ports, window=plan.scheduler_window)
        port_tail = issue_unit.tail
        port_gaps = issue_unit.gaps
        port_busy: dict[str, float] = {p: 0.0 for p in plan.ports}
        divider_free = 0.0
        special_free: dict[str, float] = {}
        reg_ready: dict[str, float] = {}
        mem_ready: dict[tuple, float] = {}
        last_branch = -1e9

        frontend_time = 0.0
        rob_retire: deque[float] = deque(maxlen=plan.rob_size)
        # rob_size 0 is "no ROB": the deque keeps nothing, and no length
        # equals -1, so dispatch never waits on retirement
        rob_full = plan.rob_size or -1
        retire_time_prev = 0.0
        retire_step = plan.retire_step

        # hoisted plan tables (locals are faster than attribute loads)
        step_of = plan.step_of
        uop_plans = plan.uop_plans
        divider_occ = plan.divider_occ
        eff_latency = plan.eff_latency
        load_lat = plan.load_lat
        is_branch_of = plan.is_branch_of
        special_of = plan.special_of
        mnemonic_of = plan.mnemonic_of
        reads = plan.reads
        writes = plan.writes
        mem_reads_of = plan.mem_reads_of
        mem_writes_of = plan.mem_writes_of

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

            port_tid = tracer.sim_lanes(plan.ports)

        # hoisted bound methods / scalars of the cycle loop
        advance = issue_unit.advance
        rob_append = rob_retire.append
        tb_interval = plan.config.taken_branch_interval
        gap_min = _PortIssueUnit.GAP_MIN

        mark_cycle = 0.0
        trace: list[TraceEvent] = []
        for it in range(total_iters):
            record = it < trace_iterations
            for j in range(n_body):
                # -- frontend: in-order dispatch
                step = step_of[j]
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

                # -- operand readiness
                ready = dispatch
                for root in reads[j]:
                    r = reg_ready.get(root, 0.0)
                    if r > ready:
                        ready = r
                for key, variant in mem_reads_of[j]:
                    m = mem_ready.get((key, it) if variant else key, 0.0)
                    if m > ready:
                        ready = m
                if collect and ready > dispatch:
                    # attribute the wait: register bound first, any rest
                    # is memory (store-forwarding) dependences
                    reg_t = dispatch
                    for root in reads[j]:
                        rr = reg_ready.get(root, 0.0)
                        if rr > reg_t:
                            reg_t = rr
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
                for ports, cycles, dur in uop_plans[j]:
                    if dur <= 0:
                        port_busy[ports[0]] += cycles
                        continue
                    start = None
                    for cand in ports:
                        tail = port_tail[cand]
                        gi = None
                        if ready >= tail:
                            s = ready
                        else:
                            s = tail
                            # a gap ending before ready + dur cannot fit
                            glist = port_gaps[cand]
                            for gidx in range(
                                bisect_left(glist, ready + dur, key=_gap_end),
                                len(glist),
                            ):
                                g0, g1 = glist[gidx]
                                st = g0 if g0 > ready else ready
                                if st + dur <= g1:
                                    s = st
                                    gi = gidx
                                    break
                        if start is None or s < start:
                            start, gap_idx, pt = s, gi, cand
                            if s <= ready:
                                break
                    if gap_idx is None:
                        tail = port_tail[pt]
                        if start - tail >= gap_min:
                            port_gaps[pt].append((tail, start))
                        port_tail[pt] = start + dur
                    else:
                        glist = port_gaps[pt]
                        g0, g1 = glist[gap_idx]
                        repl = []
                        if start - g0 >= gap_min:
                            repl.append((g0, start))
                        if g1 - (start + dur) >= gap_min:
                            repl.append((start + dur, g1))
                        glist[gap_idx:gap_idx + 1] = repl
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

                divider = divider_occ[j]
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

                throughput = special_of[j]
                if throughput is not None:
                    key2 = mnemonic_of[j]
                    start = special_free.get(key2, 0.0)
                    if start < ready:
                        start = ready
                    elif collect and start > ready:
                        stalls["special"] += start - ready
                    special_free[key2] = start + throughput
                    if start > finish_exec:
                        finish_exec = start

                if is_branch_of[j]:
                    start = last_branch + tb_interval
                    if start > finish_exec:
                        if collect:
                            stalls["branch"] += start - finish_exec
                    else:
                        start = finish_exec
                    last_branch = start
                    finish_exec = start

                complete = finish_exec + eff_latency[j]
                if load_lat[j] is not None:
                    complete += load_lat[j]

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
                for root in writes[j]:
                    reg_ready[root] = complete
                for key, variant in mem_writes_of[j]:
                    mem_ready[(key, it) if variant else key] = complete

            # every later µop is ready no earlier than the dispatch
            # clock, so one prune per iteration suffices
            advance(frontend_time)
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
            port_busy=port_busy,
            instructions_retired=total_iters * n_body,
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
        g1 - g0
        for gaps in issue_unit.gaps.values()
        for g0, g1 in gaps
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
