"""Hand-built :class:`UopPlan` tables for engine tests.

A toy plan names its instructions ``i0, i1, …`` and has no memory
keys, divides, special ops or branches: only what port placement
depends on — µops, register chains, latencies and dispatch steps.
"""

from repro.obs.trace import TID_PORT_BASE, Tracer
from repro.simulator.engine import CycleEngine
from repro.simulator.plan import PlanConfig, UopPlan


def toy_plan(body, ports, *, window=1e9):
    """A plan over ``ports`` from one ``(uops, reads, writes, latency,
    step)`` tuple per instruction, where ``uops`` holds ``(ports,
    duration)`` pairs (occupancy equals duration) and ``step`` is the
    frontend time the instruction's dispatch adds.  There is no reorder
    buffer, and retirement is never the bottleneck."""
    n = len(body)
    names = tuple(f"i{j}" for j in range(n))
    steps = tuple(float(b[4]) for b in body)
    return UopPlan(
        model=None,
        # no harness overhead: cycles read as the replay computed them
        config=PlanConfig(measurement_overhead=0.0),
        instructions=names,
        n_body=n,
        step_of=steps,
        n_slots=sum(1 for s in steps if s),
        uop_plans=tuple(
            tuple((tuple(p), float(d), float(d)) for p, d in b[0]) for b in body
        ),
        divider_occ=(0.0,) * n,
        eff_latency=tuple(float(b[3]) for b in body),
        load_lat=(None,) * n,
        is_branch_of=(False,) * n,
        special_of=(None,) * n,
        mnemonic_of=names,
        reads=tuple(tuple(b[1]) for b in body),
        writes=tuple(tuple(b[2]) for b in body),
        mem_reads_of=((),) * n,
        mem_writes_of=((),) * n,
        dispatch_step=1.0,
        retire_step=0.0,
        occupancy_scale=1.0,
        rob_size=0,
        scheduler_window=float(window),
        ports=tuple(ports),
    )


def traced_replay(plan, iterations=1, warmup=0):
    """Replay ``plan`` under a tracer.

    Returns the result, the final port timelines, and every µop the
    engine placed as ``(iteration, index, start, duration, port)`` in
    placement order.
    """
    tracer = Tracer()
    result, unit = CycleEngine().replay(plan, iterations, warmup, tracer=tracer)
    port_of = {TID_PORT_BASE + k: p for k, p in enumerate(plan.ports)}
    placed = [
        (e["args"]["iter"], e["args"]["i"], e["ts"], e["dur"], port_of[e["tid"]])
        for e in tracer.events
        if e.get("cat") == "uop"
    ]
    return result, unit, placed
