"""Cross-module integration: the model-vs-measurement contract.

The core scientific claim of the paper — the static model is an
*optimistic lower bound* that hardware approaches — must hold across
the stack: codegen → parse → resolve → {analyze, simulate, MCA}.
"""

import pytest

from repro.analysis import analyze_instructions
from repro.isa import parse_kernel
from repro.kernels import enumerate_corpus, generate_assembly
from repro.machine import get_machine_model
from repro.mca import MCASimulator
from repro.simulator.engine import CycleEngine
from repro.simulator.plan import build_uop_plan

SAMPLE = [
    ("spr", "golden_cove", "striad", "gcc", "O2"),
    ("spr", "golden_cove", "sum", "clang", "Ofast"),
    ("spr", "golden_cove", "j2d5pt", "icx", "O3"),
    ("genoa", "zen4", "add", "gcc", "O2"),
    ("genoa", "zen4", "j3d7pt", "clang", "O2"),
    ("genoa", "zen4", "update", "icx", "Ofast"),
    ("gcs", "neoverse_v2", "striad", "gcc-arm", "O2"),
    ("gcs", "neoverse_v2", "copy", "armclang", "O3"),
    ("gcs", "neoverse_v2", "j3d11pt", "gcc-arm", "Ofast"),
    ("gcs", "neoverse_v2", "sum", "armclang", "O1"),
]


@pytest.mark.parametrize("machine,uarch,kernel,persona,opt", SAMPLE)
def test_prediction_is_lower_bound(machine, uarch, kernel, persona, opt):
    model = get_machine_model(uarch)
    asm = generate_assembly(kernel, persona, opt, uarch)
    instrs = parse_kernel(asm, model.isa)
    ana = analyze_instructions(instrs, model)
    meas = CycleEngine().run(build_uop_plan(instrs, model), iterations=100, warmup=30)
    assert ana.prediction <= meas.cycles_per_iteration * 1.001, (
        f"{machine}/{kernel}/{persona}/{opt}: prediction "
        f"{ana.prediction:.2f} above measurement "
        f"{meas.cycles_per_iteration:.2f}"
    )


def test_gs_on_v2_is_overpredicted():
    """The paper's documented exception: armclang Gauss-Seidel on GCS."""
    model = get_machine_model("neoverse_v2")
    asm = generate_assembly("gs2d5pt", "armclang", "O2", "neoverse_v2")
    instrs = parse_kernel(asm, model.isa)
    ana = analyze_instructions(instrs, model)
    meas = CycleEngine().run(build_uop_plan(instrs, model), iterations=100, warmup=30)
    assert ana.prediction > meas.cycles_per_iteration


def test_pi_on_zen4_is_overpredicted():
    """The paper's second exception: the scalar divide on Zen 4."""
    model = get_machine_model("zen4")
    asm = generate_assembly("pi", "gcc", "O2", "zen4")
    instrs = parse_kernel(asm, model.isa)
    ana = analyze_instructions(instrs, model)
    meas = CycleEngine().run(build_uop_plan(instrs, model), iterations=100, warmup=30)
    assert ana.prediction > meas.cycles_per_iteration


def test_pi_on_spr_is_not_overpredicted():
    model = get_machine_model("golden_cove")
    asm = generate_assembly("pi", "gcc", "O2", "golden_cove")
    instrs = parse_kernel(asm, model.isa)
    ana = analyze_instructions(instrs, model)
    meas = CycleEngine().run(build_uop_plan(instrs, model), iterations=100, warmup=30)
    assert ana.prediction <= meas.cycles_per_iteration * 1.001


@pytest.mark.parametrize("machine,uarch,kernel,persona,opt", SAMPLE[:5])
def test_streaming_measurement_within_50pct_of_bound(
    machine, uarch, kernel, persona, opt
):
    """Measurements must track the bound — not just exceed it."""
    model = get_machine_model(uarch)
    asm = generate_assembly(kernel, persona, opt, uarch)
    instrs = parse_kernel(asm, model.isa)
    ana = analyze_instructions(instrs, model)
    meas = CycleEngine().run(build_uop_plan(instrs, model), iterations=100, warmup=30)
    assert meas.cycles_per_iteration <= ana.prediction * 1.6


def test_mca_differs_from_our_model():
    """The baseline must be a *different* predictor, not a clone."""
    diffs = 0
    for e in enumerate_corpus(machines=("spr",), kernels=("striad", "sum", "pi")):
        model = get_machine_model(e.uarch)
        instrs = parse_kernel(e.assembly, model.isa)
        ana = analyze_instructions(instrs, model)
        mca = MCASimulator(model).run(instrs, iterations=40, warmup=10)
        if abs(mca.cycles_per_iteration - ana.prediction) > 0.05:
            diffs += 1
    assert diffs >= 18  # out of 36


def test_vector_width_advantage_spr():
    """Golden Cove's 512-bit registers halve cycles vs Zen 4's 256-bit
    on the same vectorized kernel (paper Sec. II)."""
    spr = get_machine_model("golden_cove")
    zen = get_machine_model("zen4")
    spr_asm = generate_assembly("striad", "gcc", "O2", "golden_cove")  # zmm
    zen_asm = generate_assembly("striad", "gcc", "O2", "zen4")  # ymm
    spr_cy = CycleEngine().run(build_uop_plan(parse_kernel(spr_asm, "x86"), spr), 100, 30)
    zen_cy = CycleEngine().run(build_uop_plan(parse_kernel(zen_asm, "x86"), zen), 100, 30)
    # per-element cost: SPR processes 8/iter, Zen 4 processes 4/iter
    spr_per_elem = spr_cy.cycles_per_iteration / 8
    zen_per_elem = zen_cy.cycles_per_iteration / 4
    assert spr_per_elem < zen_per_elem


def test_v2_scalar_throughput_advantage():
    """Neoverse V2 runs scalar FP at 4/cy — twice the x86 cores
    (paper Table III)."""
    v2 = get_machine_model("neoverse_v2")
    glc = get_machine_model("golden_cove")
    v2_asm = generate_assembly("add", "armclang", "O1", "neoverse_v2")
    glc_asm = generate_assembly("add", "gcc", "O1", "golden_cove")
    ana_v2 = analyze_instructions(parse_kernel(v2_asm, "aarch64"), v2)
    ana_glc = analyze_instructions(parse_kernel(glc_asm, "x86"), glc)
    # FP-pipe pressure of one scalar add: 4 pipes on V2 vs 2 on GLC
    v2_fp = max(ana_v2.pressure.totals[p] for p in v2.fp_ports)
    glc_fp = max(ana_glc.pressure.totals[p] for p in glc.fp_ports)
    assert v2_fp < glc_fp
