"""End-to-end static analysis (analyze_kernel)."""

import pytest

from repro.analysis import analyze_kernel
from repro.analysis.throughput import _fused_domain_uops
from repro.backends import predict
from repro.isa import parse_kernel
from repro.machine import get_machine_model

TRIAD = """
.L4:
    vmovupd (%rax,%rcx,8), %ymm0
    vfmadd231pd (%rbx,%rcx,8), %ymm1, %ymm0
    vmovupd %ymm0, (%rdx,%rcx,8)
    addq $4, %rcx
    cmpq %rsi, %rcx
    jb .L4
"""


class TestPredictions:
    def test_triad_spr_port_bound(self):
        r = analyze_kernel(TRIAD, "spr")
        assert r.prediction == pytest.approx(1.0)

    def test_triad_zen4(self):
        r = analyze_kernel(TRIAD, "zen4")
        # 2 loads on 2 AGUs -> 1.0; frontend 5 fused / 6 < 1.0
        assert r.prediction == pytest.approx(1.0)

    def test_accepts_model_instance(self):
        m = get_machine_model("spr")
        assert analyze_kernel(TRIAD, m).model_name == "golden_cove"

    def test_prediction_is_max_of_components(self):
        r = analyze_kernel(TRIAD, "spr")
        assert r.prediction >= r.block_throughput
        assert r.prediction >= r.lcd
        assert r.prediction >= r.frontend_cycles

    def test_divider_bound_kernel(self):
        asm = """
        vdivpd %zmm1, %zmm2, %zmm3
        subq $1, %rax
        jnz .L4
        """
        r = analyze_kernel(asm, "spr")
        assert r.divider_cycles == pytest.approx(16.0)
        assert r.prediction == pytest.approx(16.0)
        assert r.bottleneck == "divider"

    def test_lcd_bound_kernel(self):
        asm = """
        vfmadd231sd %xmm1, %xmm2, %xmm8
        subq $1, %rax
        jnz .L4
        """
        r = analyze_kernel(asm, "spr")
        assert r.lcd == pytest.approx(5.0)  # scalar FMA latency
        assert r.bottleneck == "loop-carried dependency"

    def test_gather_special_bound(self):
        asm = """
        vgatherdpd (%rax,%zmm1,8), %zmm2{%k1}
        vgatherdpd (%rax,%zmm1,8), %zmm3{%k1}
        subq $1, %rax
        jnz .L4
        """
        r = analyze_kernel(asm, "spr")
        assert r.special_cycles == pytest.approx(6.0)

    def test_heuristic_binding_not_better_than_lp(self):
        lp = analyze_kernel(TRIAD, "zen4", optimal_binding=True)
        heur = analyze_kernel(TRIAD, "zen4", optimal_binding=False)
        assert heur.block_throughput >= lp.block_throughput - 1e-9

    def test_sve_kernel_on_grace(self):
        asm = """
        ld1d z0.d, p0/z, [x1, x13, lsl #3]
        fadd z1.d, z0.d, z2.d
        st1d z1.d, p0, [x0, x13, lsl #3]
        incd x13
        whilelo p0.d, x13, x14
        b.any .L4
        """
        r = analyze_kernel(asm, "grace")
        assert 0.5 <= r.prediction <= 1.5

    def test_merge_chain_binds_the_model_not_the_sim(self):
        # the model keeps the mov's merge read of z5 (mov + fmul), the
        # simulator renames it away, so the chain binds only the model
        asm = """
        fadd z1.d, z0.d, z2.d
        mov z5.d, p1/m, z1.d
        fmul z5.d, p1/m, z5.d, z6.d
        subs x0, x0, #1
        b.ne .L4
        """
        model = analyze_kernel(asm, "grace")
        assert model.lcd == model.prediction == 5.0
        sim = predict(asm, "grace", backend="sim").cycles_per_iteration
        assert sim < 0.5 * model.lcd


class TestFusedDomain:
    @pytest.mark.parametrize(
        "op", ["cmpq %rax, %rbx", "subq $1, %rcx", "sub %rax, %rbx"],
        ids=["cmpq", "subq", "sub"],
    )
    def test_cmp_jcc_fuses(self, op):
        instrs = parse_kernel(f"{op}\njb .L\n", "x86")
        assert _fused_domain_uops(instrs) == 1.0

    def test_non_adjacent_no_fuse(self):
        instrs = parse_kernel("cmpq %rax, %rbx\nnop\njb .L\n", "x86")
        assert _fused_domain_uops(instrs) == 3.0

    def test_jmp_does_not_fuse(self):
        instrs = parse_kernel("addq $1, %rax\njmp .L\n", "x86")
        assert _fused_domain_uops(instrs) == 2.0

    def test_aarch64_no_fusion(self):
        instrs = parse_kernel("subs x0, x0, #1\nb.ne .L\n", "aarch64")
        assert _fused_domain_uops(instrs) == 2.0


class TestReport:
    def test_report_contains_summary_lines(self):
        text = analyze_kernel(TRIAD, "spr").report()
        assert "Predicted runtime" in text
        assert "Loop-carried dependency" in text
        assert "golden_cove" in text

    def test_report_flags_unknown_instructions(self):
        text = analyze_kernel("fictionalop %rax, %rbx\n", "spr").report()
        assert "WARNING" in text

    def test_report_marks_loads_and_stores(self):
        text = analyze_kernel(TRIAD, "spr").report()
        assert " L" in text or "L " in text
