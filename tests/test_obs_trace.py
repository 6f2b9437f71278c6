"""Trace export: Chrome schema validity, lane mapping, cycle
reconciliation, the zero-cost disabled path, and a golden pipeline
trace for a small kernel."""

import json
import pathlib

import pytest

from repro.context import current_context, use_context
from repro.engine import CorpusEngine, WorkUnit
from repro.obs.trace import (
    PID_ENGINE,
    PID_SIM,
    TID_RETIRE,
    Tracer,
)
from repro.simulator import simulate_kernel

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_small_kernel.json"

KERNEL = """
.L1:
    addq $8, %rax
    cmpq %rcx, %rax
    jb .L1
"""

TRIAD = """
.L4:
    vmovupd (%rax,%rcx,8), %ymm0
    vfmadd231pd (%rbx,%rcx,8), %ymm1, %ymm0
    vmovupd %ymm0, (%rdx,%rcx,8)
    addq $4, %rcx
    cmpq %rsi, %rcx
    jb .L4
"""


@pytest.fixture(scope="module")
def traced():
    tracer = Tracer()
    result = simulate_kernel(
        TRIAD, "zen4", iterations=20, warmup=5, tracer=tracer
    )
    return tracer, result


class TestChromeSchema:
    def test_document_shape(self, traced):
        tracer, _ = traced
        doc = tracer.to_chrome(other_data={"k": 1})
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        json.dumps(doc)  # must be serializable as-is

    def test_event_fields(self, traced):
        tracer, _ = traced
        assert tracer.events, "tracing produced no events"
        for e in tracer.to_chrome()["traceEvents"]:
            assert e["ph"] in ("X", "i", "M", "C")
            assert isinstance(e["name"], str) and e["name"]
            assert isinstance(e["pid"], int)
            if e["ph"] == "M":
                continue
            assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0
            assert isinstance(e["tid"], int)
            if e["ph"] == "X":
                assert e["dur"] >= 0
            if e["ph"] == "i":
                assert e["s"] == "t"

    def test_every_lane_is_named(self, traced):
        tracer, _ = traced
        doc = tracer.to_chrome()["traceEvents"]
        named = {
            (e["pid"], e["tid"])
            for e in doc
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        used = {(e["pid"], e["tid"]) for e in doc if e["ph"] in ("X", "i")}
        assert used <= named

    def test_port_slices_do_not_overlap(self, traced):
        tracer, _ = traced
        by_lane: dict = {}
        for e in tracer.events:
            if e["ph"] == "X" and e.get("cat") == "uop":
                by_lane.setdefault(e["tid"], []).append(e)
        assert by_lane, "no µop slices emitted"
        for lane in by_lane.values():
            lane.sort(key=lambda e: e["ts"])
            for a, b in zip(lane, lane[1:]):
                assert a["ts"] + a["dur"] <= b["ts"] + 1e-9


class TestLaneMapping:
    def test_simulator_lanes(self, traced):
        tracer, _ = traced
        names = set(tracer._lanes.values())
        assert "frontend (dispatch)" in names
        assert "retire" in names
        assert "stalls" in names
        # one lane per machine-model port that issued work
        assert any(n.startswith("port ") for n in names)

    def test_pids_separate_clock_domains(self, traced):
        tracer, _ = traced
        assert {e["pid"] for e in tracer.events} == {PID_SIM}


class TestReconciliation:
    """Per-instruction events must agree with the reported cycle count."""

    def test_last_retire_equals_total_cycles(self, traced):
        tracer, result = traced
        retires = [
            e for e in tracer.events
            if e.get("cat") == "retire" and e["tid"] == TID_RETIRE
        ]
        assert len(retires) == result.instructions_retired
        assert max(e["ts"] for e in retires) == pytest.approx(
            result.total_cycles, rel=1e-12
        )

    def test_pipeline_order_per_instruction(self, traced):
        tracer, _ = traced
        for e in tracer.events:
            if e.get("cat") != "retire":
                continue
            a = e["args"]
            assert a["dispatch"] <= a["exec"] + 1e-9
            assert a["exec"] <= a["complete"] + 1e-9
            assert a["complete"] <= a["retire"] + 1e-9

    def test_stall_events_have_cause_and_cycles(self, traced):
        tracer, _ = traced
        stalls = [e for e in tracer.events if e.get("cat") == "stall"]
        assert stalls, "dependency-bound triad must stall"
        for e in stalls:
            assert e["name"].startswith("stall:")
            assert e["args"]["cycles"] > 0


class TestDisabledPath:
    def test_no_tracer_collects_nothing(self):
        result = simulate_kernel(KERNEL, "zen4", iterations=10, warmup=2)
        assert result.stall_cycles is None

    def test_disabled_result_matches_traced_result(self):
        plain = simulate_kernel(KERNEL, "zen4", iterations=10, warmup=2)
        traced = simulate_kernel(
            KERNEL, "zen4", iterations=10, warmup=2, tracer=Tracer()
        )
        assert plain.cycles_per_iteration == traced.cycles_per_iteration
        assert plain.total_cycles == traced.total_cycles

    def test_ambient_tracer_default_off(self):
        assert current_context().tracer is None


class TestGoldenTrace:
    """The small kernel's pipeline trace is pinned byte-for-byte."""

    def regenerate(self):
        tracer = Tracer()
        result = simulate_kernel(
            KERNEL, "zen4", iterations=2, warmup=1, tracer=tracer
        )
        return tracer.to_chrome(
            other_data={
                "arch": "zen4",
                "total_cycles": result.total_cycles,
                "cycles_per_iteration": result.cycles_per_iteration,
            }
        )

    def test_matches_golden(self):
        assert self.regenerate() == json.loads(GOLDEN.read_text()), (
            "pipeline trace drifted from tests/golden/trace_small_kernel"
            ".json; if the simulator change is intentional, regenerate "
            "the golden file (see the test's regenerate())"
        )


class TestEngineTrace:
    def units(self):
        return [
            WorkUnit.make(
                "predict", label=f"k{i}", backend="sim", uarch="zen4",
                assembly=KERNEL, opts={"iterations": 5 + i, "warmup": 2},
            )
            for i in range(3)
        ]

    def test_unit_spans_and_batch_span(self, tmp_path):
        tracer = Tracer()
        engine = CorpusEngine(jobs=1)
        with use_context(tracer=tracer):
            engine.run(self.units())
        spans = [e for e in tracer.events if e.get("cat") == "unit"]
        assert len(spans) == 3
        assert {e["name"] for e in spans} == {"k0", "k1", "k2"}
        assert all(e["pid"] == PID_ENGINE for e in spans)
        batches = [e for e in tracer.events if e.get("cat") == "batch"]
        assert len(batches) == 1
        assert batches[0]["args"]["units"] == 3

    def test_cache_hits_annotated(self, tmp_path):
        tracer = Tracer()
        engine = CorpusEngine(jobs=1, cache_dir=tmp_path / "cache")
        with use_context(tracer=tracer):
            engine.run(self.units())
            engine.run(self.units())  # warm: every unit is a hit
        hits = [e for e in tracer.events if e.get("cat") == "cache"]
        assert len(hits) == 3
        assert all(e["name"].startswith("cache-hit:") for e in hits)

    def test_ambient_tracer_picked_up(self):
        tracer = Tracer()
        engine = CorpusEngine(jobs=1)
        with use_context(tracer=tracer):
            engine.run(self.units()[:1])
        assert any(e.get("cat") == "unit" for e in tracer.events)
        # outside use_context the tracer is gone
        engine.run(self.units()[:1])
        assert sum(1 for e in tracer.events if e.get("cat") == "unit") == 1
