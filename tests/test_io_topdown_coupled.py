"""Model serialization, top-down attribution, memory-coupled simulation."""

import json

import pytest

from repro.analysis import analyze_kernel
from repro.analysis.topdown import analyze_topdown
from repro.kernels.suite import KERNELS
from repro.machine import available_models, get_chip_spec, get_machine_model
from repro.machine.io import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.simulator.coupled import simulate_with_memory

TRIAD = """
vmovupd (%rax,%rcx,8), %ymm0
vfmadd231pd (%rbx,%rcx,8), %ymm1, %ymm0
vmovupd %ymm0, (%rdx,%rcx,8)
addq $4, %rcx
cmpq %rsi, %rcx
jb .L4
"""


class TestModelIO:
    @pytest.mark.parametrize("name", available_models())
    def test_round_trip_preserves_structure(self, name):
        m = get_machine_model(name)
        m2 = model_from_dict(model_to_dict(m))
        assert m2.name == m.name
        assert m2.ports == m.ports
        assert len(m2.entries) == len(m.entries)
        assert m2.load_ports == m.load_ports
        assert m2.dispatch_width == m.dispatch_width

    def test_round_trip_preserves_predictions(self):
        m = get_machine_model("zen4")
        m2 = model_from_dict(model_to_dict(m))
        a = analyze_kernel(TRIAD, m)
        b = analyze_kernel(TRIAD, m2)
        assert a.prediction == b.prediction
        assert a.lcd == b.lcd

    def test_save_and_load_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(get_machine_model("grace"), path)
        m = load_model(path)
        assert m.name == "neoverse_v2"
        assert json.loads(path.read_text())["format_version"] == 1

    def test_version_check(self):
        data = model_to_dict(get_machine_model("spr"))
        data["format_version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(data)

    def test_edited_latency_takes_effect(self):
        data = model_to_dict(get_machine_model("spr"))
        for e in data["entries"]:
            if e["mnemonic"] == "vfmadd231pd" and e["signature"] == "y,y,y":
                e["latency"] = 9.0
        m = model_from_dict(data)
        chain = "vfmadd231pd %ymm1, %ymm2, %ymm8\nsubq $1, %rax\njnz .L\n"
        assert analyze_kernel(chain, m).lcd == 9.0

    def test_optional_fields_compact(self):
        data = model_to_dict(get_machine_model("spr"))
        add = next(
            e for e in data["entries"]
            if e["mnemonic"] == "add" and e["signature"] == "r,r"
        )
        assert "divider" not in add
        assert "throughput" not in add


class TestTopdown:
    def test_port_bound_kernel_has_no_deltas(self):
        r = analyze_topdown(TRIAD, "zen4")
        assert r.dominant == "ports"
        assert all(v < 0.2 for v in r.deltas.values())

    def test_latency_chain_attributed_to_dependencies(self):
        asm = "vfmadd231sd %xmm1, %xmm2, %xmm8\nsubq $1, %rax\njnz .L\n"
        r = analyze_topdown(asm, "spr")
        assert r.dominant == "dependencies"
        assert r.deltas["dependencies"] == pytest.approx(4.0, abs=0.3)

    def test_divide_attributed_to_divider(self):
        asm = "vdivpd %zmm1, %zmm2, %zmm3\nsubq $1, %rax\njnz .L\n"
        r = analyze_topdown(asm, "spr")
        assert r.dominant == "divider"

    def test_pointer_chase_attributed_to_memory(self):
        r = analyze_topdown("movq (%rax), %rax\n", "spr")
        assert r.dominant == "memory"
        assert r.deltas["memory"] >= 3.0

    def test_frontend_bound_wide_block(self):
        # many cheap int ops: dispatch-limited on a 6-wide frontend
        # eliminated moves consume dispatch slots but no ports: the
        # 6-wide frontend is the only limiter
        asm = "movq %r8, %r9\nmovq %r10, %r11\nmovq %r12, %r13\n" * 6
        r = analyze_topdown(asm + "subq $1, %rax\njnz .L\n", "spr")
        assert r.dominant == "frontend"
        assert r.deltas["frontend"] > 1.0

    def test_render(self):
        text = analyze_topdown(TRIAD, "zen4").render()
        assert "resource floor" in text
        assert "frontend" in text

    def test_floor_below_measured(self):
        asm = "vdivsd %xmm1, %xmm0, %xmm0\nsubq $1, %rax\njnz .L\n"
        r = analyze_topdown(asm, "zen4")
        assert r.floor_cycles <= r.cycles_per_iteration


class TestCoupledSimulation:
    def test_l1_matches_core_simulation(self):
        r = simulate_with_memory(KERNELS["striad"], "genoa", level="L1")
        assert r.cycles_per_iteration == pytest.approx(r.core_cycles)
        assert not r.memory_bound

    def test_levels_monotone(self):
        cy = [
            simulate_with_memory(KERNELS["striad"], "genoa", level=lv).cycles_per_iteration
            for lv in ("L1", "L2", "L3", "MEM")
        ]
        assert all(a <= b + 1e-9 for a, b in zip(cy, cy[1:]))

    def test_streaming_kernel_memory_bound_from_l2(self):
        r = simulate_with_memory(KERNELS["copy"], "spr", level="MEM")
        assert r.memory_bound

    def test_compute_kernel_stays_core_bound(self):
        r = simulate_with_memory(KERNELS["pi"], "genoa", level="MEM", opt="Ofast")
        assert not r.memory_bound
        assert r.memory_cycles == 0.0

    def test_agrees_with_ecm(self):
        """The coupled simulation converges on the ECM composition."""
        from repro.analysis.ecm import ECMModel

        k = KERNELS["striad"]
        spec_chip = "genoa"
        r = simulate_with_memory(k, spec_chip, level="L3")
        model = get_machine_model("zen4")
        from repro.kernels.codegen import generate_assembly

        asm = generate_assembly(k, "gcc", "O2", "zen4")
        ana = analyze_kernel(asm, "zen4")
        ecm = ECMModel(model=model, chip=spec_chip)
        bytes_l1l2 = r.bytes_per_iteration
        pred = ecm.predict(
            ana, bytes_l1l2=bytes_l1l2, bytes_l2l3=bytes_l1l2, bytes_l3mem=0
        )
        assert r.cycles_per_iteration == pytest.approx(pred.cycles("L3"), rel=0.25)

    def test_bad_level_raises(self):
        with pytest.raises(ValueError):
            simulate_with_memory(KERNELS["striad"], "genoa", level="L9")

    def test_co_running_cores_share_bandwidth(self):
        """Per-core memory time is flat until the domain saturates,
        then grows with the core count (fair sharing)."""
        few = simulate_with_memory(KERNELS["striad"], "genoa", level="MEM",
                                   cores=2)
        many = simulate_with_memory(KERNELS["striad"], "genoa", level="MEM",
                                    cores=96)
        assert few.memory_cycles < many.memory_cycles
        # only the DRAM term is shared (L2/L3 are private): the total
        # memory time grows by less than the raw bandwidth-share ratio
        # but by far more than 1
        spec = get_chip_spec("genoa")
        share_ratio = spec.memory.bw_single_core / (
            spec.memory.bw_sustained / spec.cores
        )
        measured_ratio = many.memory_cycles / few.memory_cycles
        assert 2.0 < measured_ratio < share_ratio

    def test_core_count_validation(self):
        with pytest.raises(ValueError):
            simulate_with_memory(KERNELS["striad"], "genoa", cores=0)
        with pytest.raises(ValueError):
            simulate_with_memory(KERNELS["striad"], "genoa", cores=97)
