"""Per-microarchitecture model data: Table II/III invariants.

These tests pin the machine-model *data* to the paper's published
numbers, so any edit that would silently change a reproduced table
fails here first.
"""

import pytest

from repro.isa import parse_kernel
from repro.machine import available_models, get_machine_model


def resolve(model, asm):
    return model.resolve(parse_kernel(asm, model.isa)[0], strict=True)


class TestRegistry:
    def test_available_models(self):
        assert set(available_models()) == {"neoverse_v2", "golden_cove", "zen4"}

    @pytest.mark.parametrize("alias,name", [
        ("grace", "neoverse_v2"), ("gcs", "neoverse_v2"), ("v2", "neoverse_v2"),
        ("spr", "golden_cove"), ("sapphire_rapids", "golden_cove"),
        ("genoa", "zen4"), ("Zen4", "zen4"), ("GLC", "golden_cove"),
    ])
    def test_aliases(self, alias, name):
        assert get_machine_model(alias).name == name

    def test_unknown_alias_raises(self):
        with pytest.raises(ValueError):
            get_machine_model("itanium")

    def test_models_are_singletons(self):
        assert get_machine_model("spr") is get_machine_model("golden_cove")


class TestTable2Invariants:
    """The paper's Table II, derived from the model structure."""

    @pytest.mark.parametrize("name,n_ports", [
        ("neoverse_v2", 17), ("golden_cove", 12), ("zen4", 13),
    ])
    def test_port_counts(self, name, n_ports):
        assert len(get_machine_model(name).ports) == n_ports

    @pytest.mark.parametrize("name,simd", [
        ("neoverse_v2", 16), ("golden_cove", 64), ("zen4", 32),
    ])
    def test_simd_width(self, name, simd):
        assert get_machine_model(name).simd_width_bytes == simd

    @pytest.mark.parametrize("name,n_int", [
        ("neoverse_v2", 6), ("golden_cove", 5), ("zen4", 4),
    ])
    def test_int_units(self, name, n_int):
        assert len(get_machine_model(name).int_alu_ports) == n_int

    @pytest.mark.parametrize("name,n_fp", [
        ("neoverse_v2", 4), ("golden_cove", 3), ("zen4", 4),
    ])
    def test_fp_units(self, name, n_fp):
        assert len(get_machine_model(name).fp_ports) == n_fp

    def test_loads_per_cycle(self):
        v2 = get_machine_model("neoverse_v2")
        assert len(v2.load_ports) == 3 and v2.load_width_bytes == 16
        glc = get_machine_model("golden_cove")
        assert len(glc.load_ports_wide) == 2 and glc.load_width_bytes == 64
        z4 = get_machine_model("zen4")
        assert len(z4.load_ports) == 2 and z4.load_width_bytes == 32

    def test_stores_per_cycle(self):
        v2 = get_machine_model("neoverse_v2")
        assert len(v2.store_agu_ports) == 2 and v2.store_width_bytes == 16
        glc = get_machine_model("golden_cove")
        assert len(glc.store_data_ports) == 2 and glc.store_width_bytes == 32
        z4 = get_machine_model("zen4")
        assert len(z4.store_agu_ports) == 1 and z4.store_width_bytes == 32

    def test_ports_unique(self):
        for name in available_models():
            ports = get_machine_model(name).ports
            assert len(set(ports)) == len(ports)


class TestTable3Latencies:
    """Latency column of the paper's Table III."""

    @pytest.mark.parametrize("asm,lat", [
        ("vaddpd %zmm1, %zmm2, %zmm3", 2.0),
        ("vmulpd %zmm1, %zmm2, %zmm3", 4.0),
        ("vfmadd231pd %zmm1, %zmm2, %zmm3", 4.0),
        ("vaddsd %xmm1, %xmm2, %xmm3", 2.0),
        ("vmulsd %xmm1, %xmm2, %xmm3", 4.0),
        ("vfmadd231sd %xmm1, %xmm2, %xmm3", 5.0),
        ("vdivsd %xmm1, %xmm2, %xmm3", 14.0),
    ])
    def test_golden_cove(self, asm, lat):
        assert resolve(get_machine_model("golden_cove"), asm).latency == lat

    @pytest.mark.parametrize("asm,lat", [
        ("vaddpd %ymm1, %ymm2, %ymm3", 3.0),
        ("vmulpd %ymm1, %ymm2, %ymm3", 3.0),
        ("vfmadd231pd %ymm1, %ymm2, %ymm3", 4.0),
        ("vdivsd %xmm1, %xmm2, %xmm3", 13.0),
    ])
    def test_zen4(self, asm, lat):
        assert resolve(get_machine_model("zen4"), asm).latency == lat

    @pytest.mark.parametrize("asm,lat", [
        ("fadd v0.2d, v1.2d, v2.2d", 2.0),
        ("fmul v0.2d, v1.2d, v2.2d", 3.0),
        ("fmla v0.2d, v1.2d, v2.2d", 4.0),
        ("fdiv v0.2d, v1.2d, v2.2d", 5.0),
        ("fadd d0, d1, d2", 2.0),
        ("fmul d0, d1, d2", 3.0),
        ("fmadd d0, d1, d2, d3", 4.0),
        ("fdiv d0, d1, d2", 12.0),
    ])
    def test_neoverse_v2(self, asm, lat):
        assert resolve(get_machine_model("neoverse_v2"), asm).latency == lat


class TestTable3Throughputs:
    """Throughput structure behind Table III (ports x width)."""

    def test_glc_zmm_fma_two_pipes(self):
        r = resolve(get_machine_model("golden_cove"), "vfmadd231pd %zmm1, %zmm2, %zmm3")
        assert len(r.uops) == 1 and set(r.uops[0].ports) == {"0", "5"}

    def test_zen4_scalar_add_two_pipes(self):
        r = resolve(get_machine_model("zen4"), "vaddsd %xmm1, %xmm2, %xmm3")
        assert set(r.uops[0].ports) == {"fp2", "fp3"}

    def test_v2_scalar_fp_four_pipes(self):
        r = resolve(get_machine_model("neoverse_v2"), "fadd d0, d1, d2")
        assert set(r.uops[0].ports) == {"v0", "v1", "v2", "v3"}

    @pytest.mark.parametrize("model,asm,div", [
        ("golden_cove", "vdivsd %xmm1, %xmm2, %xmm3", 4.0),
        ("golden_cove", "vdivpd %zmm1, %zmm2, %zmm3", 16.0),
        ("zen4", "vdivsd %xmm1, %xmm2, %xmm3", 5.0),
        ("zen4", "vdivpd %ymm1, %ymm2, %ymm3", 5.0),
        ("neoverse_v2", "fdiv v0.2d, v1.2d, v2.2d", 5.0),
        ("neoverse_v2", "fdiv d0, d1, d2", 2.5),
    ])
    def test_divider_occupancies(self, model, asm, div):
        assert resolve(get_machine_model(model), asm).divider == div

    @pytest.mark.parametrize("model,asm,tput", [
        ("golden_cove", "vgatherdpd (%rax,%zmm1,8), %zmm0{%k1}", 3.0),
        ("zen4", "vgatherdpd (%rax,%ymm1,8), %ymm0{%k1}", 4.0),
        ("neoverse_v2", "ld1d z0.d, p0/z, [x0, z1.d, lsl #3]", 1.0),
    ])
    def test_gather_throughput_caps(self, model, asm, tput):
        assert resolve(get_machine_model(model), asm).throughput == tput


class TestEntryTables:
    def test_entry_counts_are_substantial(self):
        # "each model comprises hundreds of entries" (paper, Sec. II)
        assert len(get_machine_model("golden_cove").entries) > 500
        assert len(get_machine_model("zen4").entries) > 500
        assert len(get_machine_model("neoverse_v2").entries) > 250

    def test_all_entry_ports_exist(self):
        for name in available_models():
            m = get_machine_model(name)
            for e in m.entries:
                for u in e.uops:
                    for p in u.ports:
                        assert p in m.ports, f"{name}: {e.mnemonic} uses {p}"

    def test_nonnegative_latencies(self):
        for name in available_models():
            for e in get_machine_model(name).entries:
                assert e.latency >= 0.0
                assert e.divider >= 0.0
