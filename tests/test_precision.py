"""Single-precision code generation and its pipeline behaviour."""

import pytest

from repro.analysis import analyze_instructions
from repro.isa import parse_kernel
from repro.kernels import OPT_LEVELS, generate_assembly, personas_for_isa
from repro.machine import get_machine_model
from repro.simulator.engine import CycleEngine
from repro.simulator.plan import PlanConfig, build_uop_plan


class TestSPCodegen:
    def test_x86_sp_suffixes_and_scale(self):
        asm = generate_assembly("striad", "gcc", "O2", "zen4", precision="sp")
        assert "vfmadd231ps" in asm
        assert "vmovups" in asm
        assert "(%rax,%rcx,4)" in asm
        assert "addq $8, %rcx" in asm  # 8 floats per ymm

    def test_x86_sp_scalar(self):
        asm = generate_assembly("sum", "gcc", "O1", "golden_cove", precision="sp")
        assert "vaddss" in asm

    def test_neon_sp_arrangement(self):
        asm = generate_assembly("add", "armclang", "O2", "neoverse_v2",
                                precision="sp")
        assert ".4s" in asm and ".2d" not in asm

    def test_sve_sp_loads_and_loop(self):
        asm = generate_assembly("add", "gcc-arm", "O2", "neoverse_v2",
                                precision="sp")
        assert "ld1w" in asm and "st1w" in asm
        assert "incw x13" in asm
        assert "whilelo p0.s" in asm
        assert "lsl #2" in asm

    def test_scalar_sp_aarch64(self):
        asm = generate_assembly("gs2d5pt", "armclang", "O2", "neoverse_v2",
                                precision="sp")
        assert "fmov s8" in asm
        assert " s0," in asm or "s0," in asm

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            generate_assembly("add", "gcc", "O2", "zen4", precision="hp")

    def test_dp_unchanged_default(self):
        a = generate_assembly("striad", "gcc", "O2", "zen4")
        b = generate_assembly("striad", "gcc", "O2", "zen4", precision="dp")
        assert a == b

    @pytest.mark.parametrize("uarch,isa", [
        ("golden_cove", "x86"), ("neoverse_v2", "aarch64"),
    ])
    def test_full_sp_coverage(self, uarch, isa):
        model = get_machine_model(uarch)
        for name in ("striad", "sum", "pi", "j2d5pt", "gs2d5pt"):
            for persona in personas_for_isa(isa):
                for opt in OPT_LEVELS:
                    asm = generate_assembly(name, persona, opt, uarch,
                                            precision="sp")
                    for i in parse_kernel(asm, isa):
                        assert not model.resolve(i).from_default, (name, str(i))


class TestSPPerformance:
    def _per_element(self, precision, uarch="zen4"):
        model = get_machine_model(uarch)
        asm = generate_assembly("striad", "gcc", "O2", uarch,
                                precision=precision)
        instrs = parse_kernel(asm, "x86")
        plan = build_uop_plan(instrs, model, config=PlanConfig.make(
            issue_efficiency=1.0, dispatch_efficiency=1.0,
            measurement_overhead=0.0,
        ))
        meas = CycleEngine().run(plan, iterations=80, warmup=25)
        elems = {"dp": 4, "sp": 8}[precision]
        return meas.cycles_per_iteration / elems

    def test_sp_halves_per_element_cost(self):
        """Same instruction count, twice the lanes: SP streaming kernels
        cost half per element."""
        assert self._per_element("sp") == pytest.approx(
            self._per_element("dp") / 2, rel=0.05
        )

    def test_sp_prediction_still_lower_bound(self):
        model = get_machine_model("golden_cove")
        for name in ("striad", "j2d5pt", "add"):
            asm = generate_assembly(name, "clang", "O2", "golden_cove",
                                    precision="sp")
            instrs = parse_kernel(asm, "x86")
            pred = analyze_instructions(instrs, model).prediction
            meas = CycleEngine().run(build_uop_plan(instrs, model), iterations=80, warmup=25)
            assert pred <= meas.cycles_per_iteration * 1.001, name
