"""Ablation benchmarks for the design choices called out in DESIGN.md.

* the most balanced (optimal) port binding vs OSACA's equal-split
  heuristic (accuracy and speed),
* simulator scheduler window (it never changes a measurement),
* SpecI2M bandwidth-threshold sweep,
* MCA scheduling-data ablation: how much of the Fig. 3 gap is *data*
  rather than algorithm.
"""

import dataclasses

import pytest

from repro.analysis.portbinding import (
    assign_ports_heuristic,
    assign_ports_optimal,
)
from repro.engine import CorpusEngine, WorkUnit
from repro.isa import parse_kernel
from repro.kernels import enumerate_corpus
from repro.lowering import assembly_digest, lower
from repro.machine import get_chip_spec, get_machine_model
from repro.machine.io import model_to_dict
from repro.simulator.multicore import run_store_benchmark


@pytest.fixture(scope="module")
def zen4_blocks():
    model = get_machine_model("zen4")
    entries = enumerate_corpus(machines=("genoa",), kernels=("striad", "j3d7pt", "sum"))
    return model, [parse_kernel(e.assembly, "x86") for e in entries]


@pytest.fixture(scope="module")
def fig3_blocks():
    """The distinct lowered blocks of the Fig. 3 corpus (one per key)."""
    blocks = {}
    for e in enumerate_corpus():
        key = (assembly_digest(e.assembly), e.uarch)
        if key not in blocks:
            blocks[key] = lower(e.assembly, e.uarch)
    return list(blocks.values())


class TestPortBindingAblation:
    def test_optimal_binding_speed(self, benchmark, zen4_blocks):
        model, blocks = zen4_blocks
        resolved = [[model.resolve(i) for i in b] for b in blocks]

        def run_all():
            return [assign_ports_optimal(model, r) for r in resolved]

        benchmark(run_all)

    def test_heuristic_binding_speed(self, benchmark, zen4_blocks):
        model, blocks = zen4_blocks
        resolved = [[model.resolve(i) for i in b] for b in blocks]

        def run_all():
            return [assign_ports_heuristic(model, r) for r in resolved]

        benchmark(run_all)

    def test_optimal_tightens_the_bound(self, fig3_blocks):
        """Across every distinct Fig. 3 block the optimal bound is never
        looser than equal split, and strictly tighter on some."""
        assert len(fig3_blocks) == 153
        tighter = 0
        for b in fig3_blocks:
            opt = assign_ports_optimal(b.model, b.resolved).max_pressure
            heur = assign_ports_heuristic(b.model, b.resolved).max_pressure
            assert opt <= heur + 1e-9, (b.model.name, assembly_digest(b.source))
            if opt < heur - 1e-6:
                tighter += 1
        assert tighter >= 1


class TestSchedulerWindowAblation:
    def test_window_sensitivity(self, benchmark):
        """The scheduler window never changes a measurement, even for a
        wide dependency tree: a pruned gap ends before every later µop
        is ready, so no backfill is lost — the window only bounds the
        gap lists the engine keeps.

        The what-if models go through the engine as ``predict`` units on
        the ``sim`` backend: each perturbed scheduler size yields a
        distinct model digest, so a shared cache can never confuse the
        variants."""
        model = get_machine_model("zen4")
        asm = enumerate_corpus(machines=("genoa",), kernels=("j3d27pt",))[2].assembly
        engine = CorpusEngine(jobs=1)

        def measure(window):
            m = dataclasses.replace(model, scheduler_size=window,
                                    entries=list(model.entries))
            unit = WorkUnit.make(
                "predict",
                label=f"zen4/window={window}",
                backend="sim",
                model=model_to_dict(m),
                assembly=asm,
                opts={"iterations": 80, "warmup": 20},
            )
            return engine.run([unit])[0]

        big = benchmark.pedantic(measure, args=(160,), rounds=1, iterations=1)
        tiny = measure(4)
        assert tiny["cycles_per_iteration"] == big["cycles_per_iteration"]


class TestSpecI2MThresholdAblation:
    def test_threshold_sweep(self, benchmark):
        """Lower engagement thresholds move the Fig. 4 crossover left."""
        spec = get_chip_spec("spr")

        def crossover(threshold):
            mem = dataclasses.replace(spec.memory, speci2m_threshold=threshold)
            s = dataclasses.replace(spec, memory=mem)
            for n in range(1, 14):
                r = run_store_benchmark(s, n, working_set_lines=1024)
                if r.traffic_ratio < 1.99:
                    return n
            return 14

        low = benchmark.pedantic(crossover, args=(0.3,), rounds=1, iterations=1)
        high = crossover(0.9)
        assert low < high


class TestMCADataAblation:
    def test_generic_data_is_the_error_source(self, benchmark):
        """Running the MCA *algorithm* with undegraded scheduling data
        predicts strictly faster-or-equal blocks — the slow-side bias of
        Fig. 3 is the scheduling data, not the timeline simulation."""
        entries = enumerate_corpus(machines=("gcs",), kernels=("striad", "j2d5pt", "sum"))
        engine = CorpusEngine(jobs=1)

        def predict_all(sched):
            # sched=None is the degraded default; the overrides dict is
            # part of the cache key, so the two variants never collide
            units = [
                WorkUnit.make(
                    "predict",
                    label=e.test_id,
                    backend="mca",
                    uarch="neoverse_v2",
                    assembly=e.assembly,
                    opts={"iterations": 60, "warmup": 15, "sched": sched},
                )
                for e in entries
            ]
            return engine.run(units)

        degraded = benchmark.pedantic(
            predict_all, args=(None,), rounds=1, iterations=1
        )
        clean = predict_all(
            dict(sve_pipe_limit=0, fp_port_limit=0, store_uop_inflation=0)
        )
        slower = sum(
            d["cycles_per_iteration"] >= c["cycles_per_iteration"] - 1e-9
            for d, c in zip(degraded, clean)
        )
        strictly = sum(
            d["cycles_per_iteration"] > c["cycles_per_iteration"] + 1e-6
            for d, c in zip(degraded, clean)
        )
        assert slower == len(entries)  # degradation only removes resources
        assert strictly >= len(entries) // 3  # and it bites on many blocks
