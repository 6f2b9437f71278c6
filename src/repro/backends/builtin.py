"""The three built-in prediction backends.

Each wraps one pre-existing predictor behind the :class:`.base.Backend`
protocol.  The heavy imports are deferred into ``predict`` bodies so
that importing the registry costs nothing and engine workers only pay
for the backend they actually run.

=========  ==============================================  ============
name       wraps                                           headline
=========  ==============================================  ============
``model``  :func:`repro.analysis.analyze_instructions`     lower bound
``mca``    :class:`repro.mca.MCASimulator`                 MCA baseline
``sim``    :class:`repro.simulator.CycleEngine`            measurement
=========  ==============================================  ============
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .base import BackendResult, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..lowering import LoweredBlock


@register_backend
class ModelBackend:
    """OSACA-style static throughput/latency lower bound."""

    name = "model"
    version = "2"

    def predict(
        self,
        block: "LoweredBlock",
        *,
        optimal_binding: bool = True,
        **_: Any,
    ) -> BackendResult:
        from ..analysis.throughput import analyze_instructions

        ana = analyze_instructions(
            block.instructions,
            block.model,
            optimal_binding=optimal_binding,
            resolved=block.resolved,
        )
        return BackendResult(
            backend=self.name,
            version=self.version,
            cycles_per_iteration=ana.prediction,
            bottleneck=ana.bottleneck,
            detail=ana,
            stats={
                "throughput_bound": ana.throughput_bound,
                "lcd": ana.lcd,
                "critical_path": ana.critical_path,
            },
        )


@register_backend
class MCABackend:
    """LLVM-MCA-style baseline on generic scheduling data."""

    name = "mca"
    version = "1"

    def predict(
        self,
        block: "LoweredBlock",
        *,
        iterations: int = 100,
        warmup: int = 20,
        sched: Optional[dict] = None,
        assume_noalias: bool = True,
        **_: Any,
    ) -> BackendResult:
        from ..mca import MCASchedData, MCASimulator

        data = MCASchedData(block.model, **sched) if sched else None
        r = MCASimulator(block.model, data, assume_noalias=assume_noalias).run(
            block.instructions, iterations=iterations, warmup=warmup
        )
        return BackendResult(
            backend=self.name,
            version=self.version,
            cycles_per_iteration=r.cycles_per_iteration,
            detail=r,
            stats={"uops_per_iteration": r.uops_per_iteration},
        )


@register_backend
class SimBackend:
    """Cycle-level core simulator — the hardware stand-in."""

    name = "sim"
    version = "2"

    def predict(
        self,
        block: "LoweredBlock",
        *,
        iterations: int = 200,
        warmup: int = 50,
        tracer=None,
        collect_stalls: bool = False,
        **sim_kwargs: Any,
    ) -> BackendResult:
        from ..simulator.engine import CycleEngine
        from ..simulator.plan import PlanConfig, plan_for_block

        plan = plan_for_block(block, PlanConfig.make(**sim_kwargs))
        r = CycleEngine().run(
            plan,
            iterations=iterations,
            warmup=warmup,
            tracer=tracer,
            collect_stalls=collect_stalls,
        )
        return BackendResult(
            backend=self.name,
            version=self.version,
            cycles_per_iteration=r.cycles_per_iteration,
            detail=r,
            stats={
                "total_cycles": r.total_cycles,
                "instructions_retired": r.instructions_retired,
                "ipc": r.ipc,
            },
        )
