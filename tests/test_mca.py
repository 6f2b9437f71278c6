"""LLVM-MCA-style baseline: scheduling data transforms and simulation."""

import dataclasses
import tracemalloc

import pytest

from repro.backends.builtin import MCABackend
from repro.context import use_context
from repro.isa import parse_kernel
from repro.lowering import lower
from repro.machine import get_machine_model
from repro.machine.model import MachineModel
from repro.mca import MCASchedData, MCASimulator, mca_predict
from repro.obs.prof import PhaseProfiler
from repro.simulator.engine import CycleEngine
from repro.simulator.plan import build_uop_plan


def one(asm, isa):
    return parse_kernel(asm, isa)[0]


class TestSchedDataTransforms:
    def test_no_move_elimination(self):
        sched = MCASchedData(get_machine_model("spr"))
        r = sched.resolve(one("movq %rax, %rbx", "x86"))
        assert len(r.uops) == 1
        assert r.latency >= 1.0

    def test_no_zero_idioms(self):
        sched = MCASchedData(get_machine_model("spr"))
        r = sched.resolve(one("vxorpd %ymm0, %ymm0, %ymm0", "x86"))
        assert len(r.uops) >= 1

    def test_model_zero_idiom_flag_restored(self):
        m = get_machine_model("spr")
        MCASchedData(m).resolve(one("vxorpd %ymm0, %ymm0, %ymm0", "x86"))
        assert m.zero_idioms is True

    def test_resolve_never_writes_the_shared_model(self):
        """The model's renamer policy is read meanwhile (lowerings, the
        memoized model digest), so resolution must not even flip it."""
        writes = []

        class Spy(MachineModel):
            def __setattr__(self, name, value):
                if name == "zero_idioms":
                    writes.append(value)
                super().__setattr__(name, value)

        m = get_machine_model("spr")
        spy = Spy(**{f.name: getattr(m, f.name) for f in dataclasses.fields(m)})
        writes.clear()  # the constructor's own assignment
        MCASchedData(spy).resolve(one("vxorpd %ymm0, %ymm0, %ymm0", "x86"))
        assert writes == []

    def test_generic_fp_latency(self):
        sched = MCASchedData(get_machine_model("spr"))
        # true FADD latency on Golden Cove is 2; MCA data says 3
        r = sched.resolve(one("vaddpd %ymm1, %ymm2, %ymm3", "x86"))
        assert r.latency == 3.0

    def test_uniform_load_latency(self):
        sched = MCASchedData(get_machine_model("spr"))
        r = sched.resolve(one("movq (%rax), %rbx", "x86"))
        assert r.load_latency == 7.0

    def test_sve_pipe_limit(self):
        sched = MCASchedData(get_machine_model("grace"))
        r = sched.resolve(one("fadd z0.d, z1.d, z2.d", "aarch64"))
        assert set(r.uops[0].ports) == {"v0", "v1"}

    def test_neon_not_limited_by_sve_rule_but_by_fp_rule(self):
        sched = MCASchedData(get_machine_model("grace"))
        r = sched.resolve(one("fadd v0.2d, v1.2d, v2.2d", "aarch64"))
        # NEON keeps the full pipe set (only SVE data is bad upstream)
        assert set(r.uops[0].ports) == {"v0", "v1", "v2", "v3"}

    def test_x86_fp_port_limit(self):
        sched = MCASchedData(get_machine_model("zen4"))
        r = sched.resolve(one("vaddpd %ymm1, %ymm2, %ymm3", "x86"))
        assert set(r.uops[0].ports) == {"fp0", "fp1"}

    def test_gather_cap_dropped(self):
        sched = MCASchedData(get_machine_model("spr"))
        r = sched.resolve(one("vgatherdpd (%rax,%zmm1,8), %zmm0{%k1}", "x86"))
        assert r.throughput is None

    def test_store_uop_inflation(self):
        m = get_machine_model("zen4")
        plain = m.resolve(one("vmovupd %ymm0, (%rax)", "x86"))
        mca = MCASchedData(m).resolve(one("vmovupd %ymm0, (%rax)", "x86"))
        assert len(mca.uops) == len(plain.uops) + 1

    def test_scalar_divider_serialized_to_latency(self):
        sched = MCASchedData(get_machine_model("zen4"))
        r = sched.resolve(one("vdivsd %xmm1, %xmm2, %xmm3", "x86"))
        assert r.divider == pytest.approx(14.0)  # generic div latency

    def test_vector_divider_not_serialized(self):
        sched = MCASchedData(get_machine_model("spr"))
        r = sched.resolve(one("vdivpd %zmm1, %zmm2, %zmm3", "x86"))
        assert r.divider == 16.0  # unchanged occupancy


class TestMCASimulation:
    TRIAD = """
    vmovupd (%rax,%rcx,8), %ymm0
    vfmadd231pd (%rbx,%rcx,8), %ymm1, %ymm0
    vmovupd %ymm0, (%rdx,%rcx,8)
    addq $4, %rcx
    cmpq %rsi, %rcx
    jb .L4
    """

    def test_per_uop_dispatch_slower_than_measurement(self):
        model = get_machine_model("spr")
        instrs = parse_kernel(self.TRIAD, "x86")
        mca = MCASimulator(model).run(instrs, iterations=60, warmup=15)
        meas = CycleEngine().run(build_uop_plan(instrs, model), iterations=100, warmup=30)
        assert mca.cycles_per_iteration > meas.cycles_per_iteration

    def test_predict_wrapper(self):
        r = mca_predict(self.TRIAD, "spr")
        assert r.cycles_per_iteration > 0
        assert r.uops_per_iteration >= 6

    def test_summary_text(self):
        text = mca_predict(self.TRIAD, "spr").summary()
        assert "Block RThroughput" in text
        assert "Resource pressure" in text

    def test_resource_pressure_accounting(self):
        r = mca_predict(self.TRIAD, "spr")
        assert sum(r.resource_pressure.values()) > 0

    def test_sve_kernel_overpredicted(self):
        asm = """
        ld1d z0.d, p0/z, [x1, x13, lsl #3]
        fadd z1.d, z0.d, z2.d
        st1d z1.d, p0, [x0, x13, lsl #3]
        incd x13
        whilelo p0.d, x13, x14
        b.any .L4
        """
        model = get_machine_model("grace")
        instrs = parse_kernel(asm, "aarch64")
        mca = MCASimulator(model).run(instrs, iterations=60, warmup=15)
        meas = CycleEngine().run(build_uop_plan(instrs, model), iterations=100, warmup=30)
        assert mca.cycles_per_iteration > meas.cycles_per_iteration

    def test_needs_a_measured_iteration(self):
        model = get_machine_model("spr")
        with pytest.raises(ValueError):
            MCASimulator(model).run(parse_kernel(self.TRIAD, "x86"), iterations=0)

    def test_publishes_nothing_to_the_ambient_profiler(self):
        """MCA replays on the measurement's engine but is no
        measurement: no cycles, counters or phases of its own."""
        prof = PhaseProfiler()
        block = lower(self.TRIAD, "spr")
        with use_context(profiler=prof):
            for noalias in (True, False):
                MCABackend().predict(block, assume_noalias=noalias)
        snap = prof.snapshot()
        for part in ("phases", "cycles", "instructions", "ports", "counters"):
            assert snap[part] == {}, part

    def test_memory_does_not_grow_with_iterations(self):
        """MCA has no reorder buffer, so a replay keeps nothing per
        dynamic instruction."""

        def peak(iterations):
            tracemalloc.start()
            try:
                mca_predict("addq $1, %rax", "spr", iterations=iterations)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1_000)  # imports, first-use caches
        assert peak(20_000) <= peak(1_000) + 64 * 1024
