"""The measurement substrate: simulated hardware.

The paper validates its models against measurements on physical Grace,
Sapphire Rapids, and Genoa machines.  Those machines are replaced here
by simulators parameterized with the same microarchitectural data:

* the staged core pipeline (see ``docs/architecture.md``):
  :mod:`~repro.simulator.plan` builds the iteration-invariant
  :class:`UopPlan` once per lowered block,
  :mod:`~repro.simulator.engine` replays it cycle-accurately
  (dispatch, renaming, greedy port binding, finite ROB, divider
  serialization) to produce the "measured" cycles/iteration —
  :func:`simulate_kernel` is the one-call entry.  Every measurement
  is a :meth:`CycleEngine.run`.
* :mod:`~repro.simulator.memory` — line-granular cache hierarchy with
  write-allocate policy hooks (always / cache-line claim / SpecI2M) and
  non-temporal store handling (Fig. 4).
* :mod:`~repro.simulator.frequency` — package-power frequency governor
  (Fig. 2).
* :mod:`~repro.simulator.multicore` — bandwidth saturation and
  node-level scaling (Table I, Fig. 4).
* :mod:`~repro.simulator.counters` — a LIKWID-like counter facade.
"""

from .engine import CycleEngine, SimulationResult, TraceEvent, simulate_kernel
from .plan import PlanConfig, UopPlan, build_uop_plan, plan_for_block
from .timeline import render_timeline, timeline
from .frequency import FrequencyGovernor, sustained_frequency
from .memory import CacheHierarchy, CacheLevel, WritePolicyStats
from .multicore import BandwidthModel, StoreBenchmarkResult, run_store_benchmark
from .counters import PerfCounters
from .coupled import CoupledResult, simulate_with_memory

__all__ = [
    "SimulationResult",
    "TraceEvent",
    "simulate_kernel",
    "CycleEngine",
    "UopPlan",
    "PlanConfig",
    "build_uop_plan",
    "plan_for_block",
    "render_timeline",
    "timeline",
    "FrequencyGovernor",
    "sustained_frequency",
    "CacheHierarchy",
    "CacheLevel",
    "WritePolicyStats",
    "BandwidthModel",
    "StoreBenchmarkResult",
    "run_store_benchmark",
    "PerfCounters",
    "CoupledResult",
    "simulate_with_memory",
]
