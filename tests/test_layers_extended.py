"""Layer-condition analysis and the extended kernel suite."""

import pytest

from repro.analysis.layers import (
    analyze_layer_conditions,
    simulate_traffic,
)
from repro.isa import parse_kernel
from repro.kernels import OPT_LEVELS, generate_assembly, personas_for_isa
from repro.kernels.extended import (
    EXTENDED_KERNELS,
    all_kernels,
    get_extended_kernel,
    register_kernel,
)
from repro.kernels.ir import Load, Scalar
from repro.kernels.suite import KERNELS, KernelSpec
from repro.machine import get_chip_spec, get_machine_model


class TestLayerConditions:
    def test_small_rows_reuse_everywhere(self):
        a = analyze_layer_conditions(KERNELS["j2d5pt"], get_chip_spec("spr"), 256)
        assert all(lt.layer_condition_holds for lt in a.levels)
        # one leading stream (8 B) + WA store (16 B)
        assert a.bytes_at("L1") == 24.0

    def test_large_rows_break_l1(self):
        a = analyze_layer_conditions(KERNELS["j2d5pt"], get_chip_spec("spr"), 4096)
        assert not a.levels[0].layer_condition_holds
        assert a.levels[1].layer_condition_holds
        # 3 distinct rows miss + WA store
        assert a.bytes_at("L1") == 3 * 8 + 16

    def test_huge_rows_break_l2(self):
        a = analyze_layer_conditions(
            KERNELS["j3d27pt"], get_chip_spec("genoa"), 40_000
        )
        assert not a.levels[0].layer_condition_holds
        assert not a.levels[1].layer_condition_holds

    def test_nt_stores_remove_wa_read(self):
        wa = analyze_layer_conditions(KERNELS["copy"], get_chip_spec("spr"), 256)
        nt = analyze_layer_conditions(
            KERNELS["copy"], get_chip_spec("spr"), 256, nt_stores=True
        )
        assert wa.bytes_at("L1") - nt.bytes_at("L1") == 8.0

    def test_reduction_kernel_no_store_traffic(self):
        a = analyze_layer_conditions(KERNELS["sum"], get_chip_spec("gcs"), 1024)
        assert a.bytes_at("L1") == 8.0

    def test_bad_level_raises(self):
        a = analyze_layer_conditions(KERNELS["sum"], get_chip_spec("gcs"), 64)
        with pytest.raises(KeyError):
            a.bytes_at("L9")

    @pytest.mark.parametrize("inner,holds", [(256, True), (4096, False)])
    def test_analytical_matches_simulation(self, inner, holds):
        """The layer condition must agree with the cache simulator."""
        k = KERNELS["j2d5pt"]
        spec = get_chip_spec("spr")
        a = analyze_layer_conditions(k, spec, inner)
        sim = simulate_traffic(k, spec.memory.l1_bytes, inner)
        assert a.levels[0].layer_condition_holds == holds
        assert sim == pytest.approx(a.bytes_at("L1"), rel=0.20)

    def test_streaming_kernel_traffic(self):
        k = KERNELS["striad"]
        spec = get_chip_spec("genoa")
        a = analyze_layer_conditions(k, spec, 1024)
        # 2 load streams + WA store = 32 B / iteration at every level
        for lt in a.levels:
            assert lt.bytes_per_iteration == 32.0


class TestExtendedSuite:
    def test_counts(self):
        assert len(EXTENDED_KERNELS) == 11
        assert len(all_kernels()) == 24

    def test_no_name_collisions_with_paper_suite(self):
        assert not set(EXTENDED_KERNELS) & set(KERNELS)

    def test_get_extended_covers_both(self):
        assert get_extended_kernel("striad").name == "striad"
        assert get_extended_kernel("dot").name == "dot"
        with pytest.raises(ValueError):
            get_extended_kernel("quicksort")

    def test_register_kernel_rejects_duplicates(self):
        with pytest.raises(ValueError):
            register_kernel(KERNELS["sum"])

    def test_register_and_generate(self):
        spec = KernelSpec(
            name="test_only_waxpby",
            description="w = a*x + b*y",
            expr=Scalar("a", 2.0) * Load("x") + Scalar("b", 3.0) * Load("y"),
            store="w",
        )
        try:
            register_kernel(spec)
            asm = generate_assembly(spec, "gcc", "O2", "zen4")
            assert "vfmadd" in asm
        finally:
            EXTENDED_KERNELS.pop("test_only_waxpby", None)

    def test_prefix_prod_not_vectorizable(self):
        k = EXTENDED_KERNELS["prefix_prod"]
        assert not k.vectorizable
        assert k.has_carried_dependency

    def test_horner_flop_counts(self):
        assert EXTENDED_KERNELS["horner4"].flops_per_element == 8
        assert EXTENDED_KERNELS["horner8"].flops_per_element == 16

    @pytest.mark.parametrize("name", sorted(EXTENDED_KERNELS))
    @pytest.mark.parametrize("uarch,isa", [
        ("golden_cove", "x86"), ("neoverse_v2", "aarch64"),
    ])
    def test_full_pipeline_coverage(self, name, uarch, isa):
        model = get_machine_model(uarch)
        for persona in personas_for_isa(isa):
            for opt in OPT_LEVELS:
                asm = generate_assembly(
                    EXTENDED_KERNELS[name], persona, opt, uarch
                )
                for i in parse_kernel(asm, isa):
                    assert not model.resolve(i).from_default, (name, str(i))

    def test_horner_is_latency_bound(self):
        """Horner chains within one element are *not* loop-carried, but
        the prefix product is."""
        from repro.analysis import analyze_kernel

        asm = generate_assembly(
            EXTENDED_KERNELS["prefix_prod"], "gcc", "O2", "zen4"
        )
        r = analyze_kernel(asm, "zen4")
        assert r.bottleneck == "loop-carried dependency"
        assert r.lcd >= 3.0  # vmulsd latency on Zen 4

    def test_divide_reduction_is_divider_bound(self):
        from repro.analysis import analyze_kernel

        asm = generate_assembly(
            EXTENDED_KERNELS["rel_residual"], "gcc", "O2", "golden_cove"
        )
        r = analyze_kernel(asm, "spr")
        assert r.bottleneck == "divider"
