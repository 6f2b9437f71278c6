"""What-if ablation: Grace with 256-bit SVE.

SVE code is vector-length agnostic, so the corpus' SVE kernels run
unchanged on a widened model.  Expectation: compute-bound vector
kernels halve their per-element cost; frontend/latency-bound and scalar
kernels do not move.
"""

import pytest

from repro.analysis import analyze_instructions
from repro.isa import parse_kernel
from repro.kernels import generate_assembly
from repro.kernels.suite import KERNELS
from repro.machine import get_machine_model
from repro.machine.whatif import elements_per_vector, widen_neoverse_v2
from repro.simulator.engine import CycleEngine
from repro.simulator.plan import PlanConfig, build_uop_plan

#: no harness-noise factors (divider overrides kept at their defaults)
CLEAN = PlanConfig.make(
    issue_efficiency=1.0, dispatch_efficiency=1.0, measurement_overhead=0.0
)


def per_element_cycles(model, kernel, opt="O2"):
    asm = generate_assembly(KERNELS[kernel], "gcc-arm", opt, "neoverse_v2")
    instrs = parse_kernel(asm, "aarch64")
    meas = CycleEngine().run(
        build_uop_plan(instrs, model, config=CLEAN), iterations=80, warmup=25
    )
    return meas.cycles_per_iteration / elements_per_vector(model)


def test_vl256_ablation(benchmark):
    base = get_machine_model("neoverse_v2")
    wide = widen_neoverse_v2(2)
    assert elements_per_vector(wide) == 4

    def sweep():
        out = {}
        for kernel in ("striad", "j2d5pt", "sch_triad", "update"):
            out[kernel] = (
                per_element_cycles(base, kernel),
                per_element_cycles(wide, kernel),
            )
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for kernel, (narrow, wide_cy) in results.items():
        # the same SVE code processes 2x the elements per iteration at
        # unchanged per-iteration cost -> per-element cost halves
        assert wide_cy == pytest.approx(narrow / 2, rel=0.1), kernel


def test_vl256_does_not_help_scalar_code():
    base = get_machine_model("neoverse_v2")
    wide = widen_neoverse_v2(2)
    asm = generate_assembly(KERNELS["gs2d5pt"], "gcc-arm", "O2", "neoverse_v2")
    instrs = parse_kernel(asm, "aarch64")
    a = analyze_instructions(instrs, base).prediction
    b = analyze_instructions(instrs, wide).prediction
    assert a == b  # latency chain, untouched by datapath width


def test_vl256_closes_the_gap_to_genoa():
    """With VL=256 the V2's vector ADD rate matches Zen 4's 8 elem/cy
    and doubles toward Golden Cove's 16."""
    wide = widen_neoverse_v2(2)
    asm = ".L:\n" + "\n".join(
        f"    fadd z{d}.d, z30.d, z31.d" for d in range(16)
    ) + "\n    subs x15, x15, #1\n    b.ne .L\n"
    instrs = parse_kernel(asm, "aarch64")
    meas = CycleEngine().run(
        build_uop_plan(instrs, wide, config=CLEAN), iterations=80, warmup=25
    )
    elems_per_cycle = 16 * elements_per_vector(wide) / meas.cycles_per_iteration
    assert elems_per_cycle == pytest.approx(16.0, rel=0.05)


def test_factor_validation():
    with pytest.raises(ValueError):
        widen_neoverse_v2(3)
