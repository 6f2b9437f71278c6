"""Benchmarks beyond the paper: extended kernels, scaling, coupled sim.

These regenerate the extension studies DESIGN.md lists (node-level
scaling crossovers, memory-coupled ECM validation, extended-suite
sweep) and double as performance benchmarks of the pipeline itself.
"""

from repro.analysis import analyze_instructions
from repro.analysis.scaling import predict_scaling
from repro.engine import CorpusEngine, WorkUnit
from repro.isa import parse_kernel
from repro.kernels import generate_assembly
from repro.kernels.extended import EXTENDED_KERNELS, all_kernels
from repro.kernels.suite import KERNELS
from repro.machine import get_machine_model
from repro.simulator.engine import CycleEngine
from repro.simulator.plan import build_uop_plan
from repro.simulator.coupled import simulate_with_memory


def test_extended_suite_sweep(benchmark):
    """Analyze + simulate every extended kernel on every machine —
    submitted through the corpus engine as one batch of ``predict``
    units, a ``model`` and a ``sim`` unit per case."""

    def sweep():
        cases = []
        units = []
        for name, k in EXTENDED_KERNELS.items():
            for uarch, persona in (
                ("golden_cove", "gcc"),
                ("zen4", "clang"),
                ("neoverse_v2", "gcc-arm"),
            ):
                asm = generate_assembly(k, persona, "O2", uarch)
                cases.append((name, uarch))
                units += [
                    WorkUnit.make("predict", label=f"{uarch}/{name}/model",
                                  backend="model", uarch=uarch, assembly=asm),
                    WorkUnit.make("predict", label=f"{uarch}/{name}/sim",
                                  backend="sim", uarch=uarch, assembly=asm,
                                  opts={"iterations": 60, "warmup": 20}),
                ]
        outputs = CorpusEngine(jobs=1).run(units)
        return [
            (name, uarch, model["cycles_per_iteration"],
             sim["cycles_per_iteration"])
            for (name, uarch), model, sim in zip(
                cases, outputs[0::2], outputs[1::2]
            )
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(rows) == len(EXTENDED_KERNELS) * 3
    # the lower-bound contract holds on the extended suite too — with
    # the one documented exception class: scalar-divide-bound kernels
    # on Zen 4, whose divider beats its documented occupancy (the
    # paper's pi-kernel effect; rel_residual divides too)
    for name, uarch, pred, meas in rows:
        if uarch == "zen4" and EXTENDED_KERNELS[name].has_division:
            assert pred <= meas * 1.3, (name, uarch)
            continue
        assert pred <= meas * 1.001, (name, uarch)


def test_scaling_crossovers(benchmark):
    """Chip-vs-chip winners per kernel class (DESIGN.md ablation)."""

    def winners():
        out = {}
        for name, opt in (("striad", "O2"), ("pi", "Ofast"), ("horner8", "O2")):
            k = all_kernels()[name]
            perf = {
                chip: predict_scaling(k, chip, opt=opt).points[-1].performance_gflops
                for chip in ("gcs", "spr", "genoa")
            }
            out[name] = max(perf, key=perf.get)
        return out

    w = benchmark.pedantic(winners, rounds=1, iterations=1)
    # memory-bound: bandwidth ordering (Table I) puts GCS first
    assert w["striad"] == "gcs"
    # divide-throughput-bound: Genoa's 96 cores x best divider wins
    assert w["pi"] == "genoa"


def test_coupled_memory_levels(benchmark):
    """Cycles grow monotonically as data moves out in the hierarchy."""

    def run_levels():
        return {
            lv: simulate_with_memory(
                KERNELS["striad"], "genoa", level=lv
            ).cycles_per_iteration
            for lv in ("L1", "L2", "L3", "MEM")
        }

    cy = benchmark.pedantic(run_levels, rounds=1, iterations=1)
    assert cy["L1"] <= cy["L2"] <= cy["L3"] <= cy["MEM"]
    # memory-resident streaming is dominated by the interface
    assert cy["MEM"] > 10 * cy["L1"]


def test_analysis_pipeline_throughput(benchmark):
    """How fast is one full analyze() call on a mid-size block?"""
    model = get_machine_model("zen4")
    asm = generate_assembly(KERNELS["j3d27pt"], "gcc", "O2", "zen4")
    instrs = parse_kernel(asm, "x86")

    benchmark(lambda: analyze_instructions(instrs, model))


def test_simulation_pipeline_throughput(benchmark):
    model = get_machine_model("zen4")
    asm = generate_assembly(KERNELS["j3d27pt"], "gcc", "O2", "zen4")
    instrs = parse_kernel(asm, "x86")
    benchmark(
        lambda: CycleEngine().run(
            build_uop_plan(instrs, model), iterations=50, warmup=15
        )
    )
