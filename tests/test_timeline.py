"""Simulation trace events and the timeline view."""

from repro.isa import parse_kernel
from repro.machine import get_machine_model
from repro.simulator.engine import CycleEngine
from repro.simulator.plan import build_uop_plan
from repro.simulator.timeline import render_timeline, timeline

TRIAD = """
vmovupd (%rax,%rcx,8), %ymm0
vfmadd231pd (%rbx,%rcx,8), %ymm1, %ymm0
vmovupd %ymm0, (%rdx,%rcx,8)
addq $4, %rcx
cmpq %rsi, %rcx
jb .L4
"""


class TestTraceEvents:
    def run_traced(self, arch="zen4", n=3):
        model = get_machine_model(arch)
        instrs = parse_kernel(TRIAD, "x86")
        return CycleEngine().run(
            build_uop_plan(instrs, model), iterations=20, warmup=0,
            trace_iterations=n,
        )

    def test_trace_collected(self):
        r = self.run_traced()
        assert len(r.trace) == 3 * 6

    def test_no_trace_by_default(self):
        model = get_machine_model("zen4")
        r = CycleEngine().run(
            build_uop_plan(parse_kernel(TRIAD, "x86"), model),
            iterations=20, warmup=5,
        )
        assert r.trace == []

    def test_event_ordering_invariants(self):
        for e in self.run_traced().trace:
            assert e.dispatch <= e.exec_start + 1e-9
            assert e.exec_start <= e.complete + 1e-9
            assert e.complete <= e.retire + 1e-9

    def test_retire_in_order(self):
        trace = self.run_traced().trace
        retires = [e.retire for e in trace]
        assert all(a <= b + 1e-9 for a, b in zip(retires, retires[1:]))

    def test_dependency_visible_in_trace(self):
        # the FMA cannot start executing before its load completes
        trace = self.run_traced(n=1).trace
        load, fma = trace[0], trace[1]
        assert fma.exec_start >= load.complete - 1e-9

    def test_iteration_and_index_labels(self):
        trace = self.run_traced(n=2).trace
        assert trace[0].iteration == 0 and trace[0].index == 0
        assert trace[6].iteration == 1 and trace[6].index == 0


class TestRendering:
    def test_render_contains_markers(self):
        text = timeline(TRIAD, "zen4", iterations=2)
        assert "D" in text and "E" in text and "R" in text
        assert "[0,0]" in text and "[1,5]" in text

    def test_render_shows_instruction_text(self):
        text = timeline(TRIAD, "spr", iterations=1)
        assert "vfmadd231pd" in text

    def test_empty_trace(self):
        assert render_timeline([]) == "(empty trace)"

    def test_cli_timeline_flag(self, tmp_path, capsys):
        from repro.cli import analyze_main

        f = tmp_path / "k.s"
        f.write_text(TRIAD)
        assert analyze_main([str(f), "--arch", "zen4", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline timeline" in out
        assert "[0,0]" in out
