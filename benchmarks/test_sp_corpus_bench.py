"""Extension: the single-precision corpus variant.

The paper validates double-precision kernels only; SP variants double
the lanes per vector without changing the instruction count.  This
bench regenerates the SP corpus on one machine per ISA and checks that
(a) the lower-bound contract carries over and (b) streaming kernels
halve their per-element cost versus the DP corpus.
"""

import pytest

from repro.analysis import analyze_instructions
from repro.bench import fig3
from repro.isa import parse_kernel
from repro.kernels import generate_assembly
from repro.machine import get_machine_model
from repro.simulator.engine import CycleEngine
from repro.simulator.plan import build_uop_plan

KERNELS_SP = ("striad", "add", "j2d5pt", "sum", "pi")


def test_sp_corpus_contract(benchmark):
    result = benchmark.pedantic(
        fig3.run,
        kwargs=dict(
            machines=("spr", "gcs"),
            kernels=KERNELS_SP,
            iterations=60,
            precision="sp",
        ),
        rounds=1,
        iterations=1,
    )
    s = result.summary("osaca")
    assert s["tests"] == 5 * 4 * 5  # kernels x opts x (3 + 2 personas)
    assert s["right_side_fraction"] >= 0.9
    assert s["off_by_2x"] == 0


def test_sp_doubles_elements_not_cycles():
    """Per-iteration cycles stay put; elements double → SP halves the
    per-element cost for vector streaming kernels."""
    model = get_machine_model("golden_cove")
    for kernel in ("striad", "add"):
        cy = {}
        for prec in ("dp", "sp"):
            asm = generate_assembly(kernel, "gcc", "O2", "golden_cove",
                                    precision=prec)
            instrs = parse_kernel(asm, "x86")
            cy[prec] = CycleEngine().run(
                build_uop_plan(instrs, model), iterations=60, warmup=20
            ).cycles_per_iteration
        assert cy["sp"] == pytest.approx(cy["dp"], rel=0.05), kernel


def test_sp_scalar_unchanged():
    """Scalar SP and DP code have identical schedules on these models
    (no half-throughput scalar SP units)."""
    model = get_machine_model("zen4")
    dp = generate_assembly("gs2d5pt", "gcc", "O2", "zen4", precision="dp")
    sp = generate_assembly("gs2d5pt", "gcc", "O2", "zen4", precision="sp")
    a = analyze_instructions(parse_kernel(dp, "x86"), model).prediction
    b = analyze_instructions(parse_kernel(sp, "x86"), model).prediction
    assert a == b
