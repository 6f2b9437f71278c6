"""Memory-coupled kernel simulation: in-core timing × cache traffic.

The core simulator assumes L1-resident data; the paper's validation
does too.  Real kernels stream from deeper levels, where hardware
prefetchers hide *latency* but the finite *bandwidth* of each level
does not hide itself: the memory interface becomes one more serialized
resource the loop occupies every iteration.

:func:`simulate_with_memory` couples the two models:

1. the layer-condition analysis supplies bytes/iteration crossing each
   cache boundary for the chosen residency level,
2. those bytes are converted to interface occupancy (cycles/iteration)
   using per-level bandwidths,
3. the core simulator runs with that occupancy attached as an extra
   per-iteration resource, interleaving naturally with the in-core
   schedule.

The result converges on the ECM prediction for the same level — the
test suite asserts the agreement — while remaining a *simulation* (it
honors dependency structure, windows, and all in-core mechanisms).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernels.codegen import generate_assembly
from ..kernels.personas import PERSONAS, CompilerPersona
from ..kernels.suite import KernelSpec
from ..machine import get_chip_spec
from ..machine.specs import ChipSpec
from .engine import CycleEngine
from .plan import PlanConfig, plan_for_block

#: inter-level bandwidths in bytes/cycle per core (L2 and L3 paths);
#: memory bandwidth comes from the chip spec
LEVEL_BANDWIDTH = {"L2": 64.0, "L3": 32.0}


@dataclass
class CoupledResult:
    kernel: str
    chip: str
    level: str
    cycles_per_iteration: float
    core_cycles: float  #: the same block with L1-resident data
    memory_cycles: float  #: interface occupancy per iteration
    bytes_per_iteration: float

    @property
    def memory_bound(self) -> bool:
        return self.memory_cycles > self.core_cycles


def simulate_with_memory(
    kernel: KernelSpec,
    chip: str | ChipSpec,
    level: str = "MEM",
    persona: str | CompilerPersona = "gcc",
    opt: str = "O2",
    inner_length: int = 100_000,
    iterations: int = 100,
    cores: int = 1,
) -> CoupledResult:
    """Simulate *kernel* with its data resident in *level*.

    ``level`` is ``"L1"``, ``"L2"``, ``"L3"``, or ``"MEM"``; the
    working set is assumed to stream from there (``inner_length``
    controls the layer conditions for stencils).  ``cores`` models
    co-running copies: each core gets its fair share of the saturating
    memory interface (private L2 bandwidth is unaffected), so the
    per-core memory term grows once the domain saturates.
    """
    # imported here to avoid a package-level import cycle
    # (analysis.layers itself uses the cache simulator)
    from ..analysis.layers import analyze_layer_conditions

    spec = chip if isinstance(chip, ChipSpec) else get_chip_spec(chip)
    p = PERSONAS[persona] if isinstance(persona, str) else persona
    if spec.uarch == "neoverse_v2" and p.isa != "aarch64":
        p = PERSONAS["gcc-arm"]
    elif spec.uarch != "neoverse_v2" and p.isa != "x86":
        p = PERSONAS["gcc"]

    from ..lowering import lower

    asm = generate_assembly(kernel, p, opt, spec.uarch)
    block = lower(asm, spec.uarch)

    # elements per iteration from the store/load count ratio
    cfg = p.config(opt)
    vec = (
        cfg.vectorize
        and kernel.vectorizable
        and (not kernel.needs_fast_math or cfg.fast_math)
    )
    if not vec:
        elems = 1
    elif spec.uarch == "neoverse_v2":
        elems = 2 * (1 if p.vector_style == "sve" else cfg.unroll)
    else:
        width = {"zmm": 8, "ymm": 4}[p.width_for(spec.uarch)]
        elems = width * (
            1 if kernel.uses_index or kernel.has_carried_dependency else cfg.unroll
        )

    lc = analyze_layer_conditions(kernel, spec, inner_length)
    level = level.upper()
    order = ["L1", "L2", "L3", "MEM"]
    if level not in order:
        raise ValueError(f"level must be one of {order}")

    # accumulate transfer cycles for every boundary the data crosses
    if cores < 1 or cores > spec.cores:
        raise ValueError(f"cores must be in [1, {spec.cores}]")
    mem_cycles = 0.0
    bytes_iter = 0.0
    freq = spec.freq_base
    # fair share of the saturating interface among co-running cores
    from .multicore import BandwidthModel

    bw = BandwidthModel.for_chip(spec)
    domains = spec.memory.ccnuma_domains
    cpd = spec.cores // domains
    in_domain = min(cores, cpd)
    share_gbs = bw.achieved(in_domain) / in_domain
    mem_bw_bytes_per_cycle = share_gbs * 1e9 / (freq * 1e9)
    for boundary, bw in (("L2", LEVEL_BANDWIDTH["L2"]),
                         ("L3", LEVEL_BANDWIDTH["L3"]),
                         ("MEM", mem_bw_bytes_per_cycle)):
        if order.index(level) >= order.index(boundary):
            # traffic crossing *into* this boundary's upper level is the
            # upper level's per-iteration volume
            upper = order[order.index(boundary) - 1]
            per_elem = lc.bytes_at(upper)
            mem_cycles += per_elem * elems / bw
            bytes_iter = per_elem * elems

    plan = plan_for_block(
        block,
        PlanConfig.make(
            issue_efficiency=1.0, dispatch_efficiency=1.0,
            measurement_overhead=0.0,
        ),
    )
    core = CycleEngine().run(plan, iterations=iterations, warmup=40)

    # interface and core overlap (prefetched streams): steady state is
    # the max of the two rates
    coupled_cpi = max(core.cycles_per_iteration, mem_cycles)

    return CoupledResult(
        kernel=kernel.name,
        chip=spec.chip,
        level=level,
        cycles_per_iteration=coupled_cpi,
        core_cycles=core.cycles_per_iteration,
        memory_cycles=mem_cycles,
        bytes_per_iteration=bytes_iter,
    )
