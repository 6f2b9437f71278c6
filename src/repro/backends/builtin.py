"""The built-in prediction backends.

Each wraps one pre-existing predictor behind the :class:`.base.Backend`
protocol.  The heavy imports are deferred into ``predict`` bodies so
that importing the registry costs nothing and engine workers only pay
for the backend they actually run.

============  ==============================================  ==============
name          wraps                                           headline
============  ==============================================  ==============
``model``     :func:`repro.analysis.analyze_instructions`     lower bound
``mca``       :class:`repro.mca.MCASimulator`                 MCA baseline
``sim``       :class:`repro.simulator.CycleEngine`            measurement
``fastpath``  :func:`repro.simulator.predict_steady_state`    fast measurement
============  ==============================================  ==============

``fastpath`` answers from the analytical steady-state engine when its
confidence predicate holds and otherwise lets the probe's cycle-engine
run continue to the measurement horizon, so it is a drop-in
(within-tolerance) replacement for ``sim`` wherever only
``cycles_per_iteration`` is consumed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Optional

from .base import BackendResult, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..lowering import LoweredBlock


@register_backend
class ModelBackend:
    """OSACA-style static throughput/latency lower bound."""

    name = "model"
    version = "1"

    def predict(
        self,
        block: "LoweredBlock",
        *,
        optimal_binding: bool = True,
        respect_merge_dependency: bool = True,
        **_: Any,
    ) -> BackendResult:
        from ..analysis.throughput import analyze_instructions

        ana = analyze_instructions(
            block.instructions,
            block.model,
            optimal_binding=optimal_binding,
            respect_merge_dependency=respect_merge_dependency,
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
    version = "1"

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
        from ..simulator.plan import PlanConfig, build_uop_plan

        # a fresh plan on every call, not the plan memo: perfbench's
        # traced runs time ``build_uop_plan`` as the measurement's plan
        # layer
        plan = build_uop_plan(
            block.instructions,
            block.model,
            resolved=block.resolved,
            config=PlanConfig.make(**sim_kwargs),
        )
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


@register_backend
class FastpathBackend:
    """Analytical steady state when trusted, cycle-accurate otherwise.

    The dispatch policy of the staged simulator pipeline (see
    ``docs/architecture.md``):
    :func:`~repro.simulator.steadystate.predict_steady_state` probes
    the plan's limit cycle on the
    :class:`~repro.simulator.engine.CycleEngine` and answers when its
    confidence predicate holds; for anything it cannot vouch for, the
    same engine run continues to the measurement horizon.  Either way
    the answer tracks the ``sim`` backend within the documented tier
    tolerances (exactly, for certified/simulated/fallback units).

    Results are memoized per ``(block identity, plan config,
    measurement window)``: the prediction is a pure function of the
    plan (property-tested in ``test_steadystate.py``), and corpus
    sweeps repeat identical lowered blocks across compiler personas —
    416 fig3 units collapse to 153 distinct plans.

    ``tracer``/``collect_stalls`` requests force the cycle engine:
    observability is cycle-accurate by definition.
    """

    name = "fastpath"
    version = "1"

    _MEMO_CAP = 4096

    def __init__(self) -> None:
        self._memo: OrderedDict[tuple, BackendResult] = OrderedDict()

    def clear_memo(self) -> None:
        """Drop every memoized result (perf-case cold starts)."""
        self._memo.clear()

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
        from ..simulator.steadystate import predict_steady_state

        cfg = PlanConfig.make(**sim_kwargs)
        plan = plan_for_block(block, cfg)

        if tracer is not None or collect_stalls:
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
                    "fastpath_hit": False,
                    "reason": "observability",
                    "total_cycles": r.total_cycles,
                },
            )

        key = (block.key, cfg, iterations, warmup)
        cached = self._memo.get(key)
        if cached is not None:
            self._memo.move_to_end(key)
            return replace(cached, stats=dict(cached.stats))

        ss = predict_steady_state(plan, iterations=iterations, warmup=warmup)
        stats: dict[str, Any] = {
            "fastpath_hit": ss.confident,
            "reason": ss.reason,
            "probe_iterations": ss.probe_iterations,
        }
        if ss.confident:
            stats["period"] = ss.period
            stats["bound"] = ss.bound.bound
        else:
            # the probe's own run went on to the horizon: its number is
            # the cycle engine's measurement
            stats["total_cycles"] = ss.total_cycles
        result = BackendResult(
            backend=self.name,
            version=self.version,
            cycles_per_iteration=ss.cycles_per_iteration,
            bottleneck=ss.bound.bottleneck if ss.confident else None,
            detail=ss,
            stats=stats,
        )
        self._memo[key] = result
        while len(self._memo) > self._MEMO_CAP:
            self._memo.popitem(last=False)
        return replace(result, stats=dict(result.stats))
