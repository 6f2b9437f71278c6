"""ECM composition and Roofline with in-core ceilings."""

import pytest

from repro.analysis import analyze_kernel
from repro.analysis.ecm import ECMModel
from repro.analysis.roofline import RooflineModel
from repro.machine import get_chip_spec, get_machine_model

TRIAD = """
vmovupd (%rax,%rcx,8), %ymm0
vfmadd231pd (%rbx,%rcx,8), %ymm1, %ymm0
vmovupd %ymm0, (%rdx,%rcx,8)
addq $4, %rcx
cmpq %rsi, %rcx
jb .L4
"""


@pytest.fixture(scope="module")
def triad_analysis():
    return analyze_kernel(TRIAD, "zen4")


class TestECM:
    def test_level_monotonicity(self, triad_analysis):
        ecm = ECMModel(model=get_machine_model("zen4"), chip="genoa")
        pred = ecm.predict(
            triad_analysis, bytes_l1l2=96, bytes_l2l3=96, bytes_l3mem=96
        )
        cy = [pred.cycles(level) for level in ("L1", "L2", "L3", "MEM")]
        assert all(a <= b + 1e-9 for a, b in zip(cy, cy[1:]))

    def test_l1_prediction_uses_in_core_terms(self, triad_analysis):
        ecm = ECMModel(model=get_machine_model("zen4"), chip="genoa")
        pred = ecm.predict(triad_analysis, bytes_l1l2=0, bytes_l2l3=0, bytes_l3mem=0)
        assert pred.cycles("L1") == pytest.approx(
            max(pred.t_ol, pred.t_nol)
        )

    def test_no_overlap_mode_adds(self, triad_analysis):
        full = ECMModel(model=get_machine_model("zen4"), chip="genoa", overlap="full")
        none = ECMModel(model=get_machine_model("zen4"), chip="genoa", overlap="none")
        p_full = full.predict(triad_analysis, bytes_l1l2=64, bytes_l2l3=0, bytes_l3mem=0)
        p_none = none.predict(triad_analysis, bytes_l1l2=64, bytes_l2l3=0, bytes_l3mem=0)
        assert p_none.cycles("L2") > p_full.cycles("L2")

    def test_shorthand_string(self, triad_analysis):
        ecm = ECMModel(model=get_machine_model("zen4"), chip="genoa")
        pred = ecm.predict(triad_analysis, bytes_l1l2=64, bytes_l2l3=64, bytes_l3mem=64)
        assert "cy/it" in pred.as_string()

    def test_transfer_cycles_scale_with_bytes(self, triad_analysis):
        ecm = ECMModel(model=get_machine_model("zen4"), chip="genoa")
        small = ecm.predict(triad_analysis, bytes_l1l2=32, bytes_l2l3=0, bytes_l3mem=0)
        big = ecm.predict(triad_analysis, bytes_l1l2=64, bytes_l2l3=0, bytes_l3mem=0)
        assert big.t_l1l2 == pytest.approx(2 * small.t_l1l2)

    def test_bad_level_raises(self, triad_analysis):
        ecm = ECMModel(model=get_machine_model("zen4"), chip="genoa")
        pred = ecm.predict(triad_analysis, bytes_l1l2=0, bytes_l2l3=0, bytes_l3mem=0)
        with pytest.raises(KeyError):
            pred.cycles("L9")


class TestRoofline:
    def test_bandwidth_bound_kernel(self, triad_analysis):
        rl = RooflineModel(chip="genoa")
        # triad: 2 flops per element (4 elements/iter), 32 B/elem
        pt = rl.place(
            triad_analysis, flops_per_iteration=8, bytes_per_iteration=128
        )
        assert pt.bandwidth_bound
        assert pt.limiting_factor == "memory bandwidth"
        assert pt.performance_gflops == pytest.approx(
            pt.arithmetic_intensity * get_chip_spec("genoa").memory.bw_sustained
        )

    def test_compute_bound_kernel(self, triad_analysis):
        rl = RooflineModel(chip="genoa")
        pt = rl.place(
            triad_analysis, flops_per_iteration=8, bytes_per_iteration=0.001
        )
        assert not pt.bandwidth_bound
        assert pt.performance_gflops == pytest.approx(pt.ceiling_gflops)

    def test_ceiling_scales_with_cores(self, triad_analysis):
        one = RooflineModel(chip="genoa", cores=1)
        full = RooflineModel(chip="genoa")
        c1 = one.ceiling_from_analysis(triad_analysis, 8)
        c96 = full.ceiling_from_analysis(triad_analysis, 8)
        assert c96 == pytest.approx(96 * c1)

    def test_in_core_ceiling_below_peak(self, triad_analysis):
        """The paper's motivation: a kernel-specific ceiling is more
        realistic than the chip's theoretical peak."""
        spec = get_chip_spec("genoa")
        rl = RooflineModel(chip="genoa")
        ceiling = rl.ceiling_from_analysis(triad_analysis, flops_per_iteration=8)
        assert ceiling < spec.theoretical_peak_tflops * 1000.0

    def test_intensity_computation(self, triad_analysis):
        rl = RooflineModel(chip="gcs")
        pt = rl.place(triad_analysis, flops_per_iteration=8, bytes_per_iteration=128)
        assert pt.arithmetic_intensity == pytest.approx(8 / 128)
