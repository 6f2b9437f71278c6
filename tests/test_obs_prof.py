"""Phase profiler: nesting, snapshot/absorb across the pickle boundary,
deterministic attribution under parallel engines, and the zero-cost
disabled path."""

import json

import pytest

from repro.bench.fig3 import corpus_units
from repro.engine import CorpusEngine, cache_key, use_engine
from repro.kernels import enumerate_corpus
from repro.lowering import lower
from repro.obs.prof import (
    PhaseProfiler,
    active_profiler,
    set_active_profiler,
    use_profiler,
)
from repro.simulator.engine import CycleEngine
from repro.simulator.plan import plan_for_block


class TestPhaseTimers:
    def test_nesting_builds_paths(self):
        p = PhaseProfiler()
        with p.phase("lower"):
            with p.phase("parse"):
                pass
            with p.phase("parse"):
                pass
        assert set(p.phases) == {"lower", "lower/parse"}
        assert p.phases["lower/parse"][0] == 2
        assert p.phases["lower"][0] == 1

    def test_record_phase_aggregates_externally_timed(self):
        p = PhaseProfiler()
        p.record_phase("simulate", 0.5, 0.4)
        p.record_phase("simulate", 0.25, 0.2, count=3)
        assert p.phases["simulate"] == [4, 0.75, pytest.approx(0.6)]

    def test_self_wall_subtracts_children(self):
        p = PhaseProfiler()
        p.phases = {"a": [1, 1.0, 1.0], "a/b": [1, 0.6, 0.6]}
        selfw = p.self_wall()
        assert selfw["a"] == pytest.approx(0.4)
        assert selfw["a/b"] == pytest.approx(0.6)

    def test_attribution_shares_normalized_and_ranked(self):
        p = PhaseProfiler()
        p.phases = {
            "a": [1, 3.0, 3.0],
            "a/x": [1, 2.0, 2.0],
            "b": [1, 1.0, 1.0],
        }
        shares = p.attribution_shares(depth=1)
        assert shares["a"] == pytest.approx(0.75)  # 1.0 self + 2.0 child
        assert shares["b"] == pytest.approx(0.25)
        assert list(shares) == ["a", "b"]
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_add_cycles_prefixes_under_current_phase(self):
        p = PhaseProfiler()
        with p.phase("simulate"):
            p.add_cycles({"issue.port_wait": 10.0})
        p.add_cycles({"issue.port_wait": 5.0})
        assert p.cycles["simulate/issue.port_wait"] == 10.0
        assert p.cycles["issue.port_wait"] == 5.0


class TestSnapshotAbsorb:
    def _populated(self):
        p = PhaseProfiler()
        with p.phase("predict"):
            p.add_cycles({"total": 100.0})
        p.add_instruction_cycles({"vfmadd": 60.0, "ldr": 40.0})
        p.add_port_cycles({"0": 50.0, "5": 25.0})
        p.add_counter("sim.cycles.total", 100.0)
        p.record_unit("triad", 0.01, 100.0)
        return p

    def test_snapshot_is_plain_sorted_json(self):
        snap = self._populated().snapshot()
        assert snap["schema"] == "repro-profile/1"
        json.dumps(snap)  # picklable/serializable plain data
        assert list(snap["instructions"]) == sorted(snap["instructions"])

    def test_absorb_round_trip_with_prefix(self):
        worker = self._populated()
        parent = PhaseProfiler()
        parent.absorb(worker.snapshot(), prefix="unit")
        parent.absorb(worker.snapshot(), prefix="unit")
        assert parent.phases["unit/predict"][0] == 2
        assert parent.cycles["unit/predict/total"] == 200.0
        # mnemonic/port/counter/unit records merge without re-rooting
        assert parent.instructions["vfmadd"] == 120.0
        assert parent.ports["5"] == 50.0
        assert parent.counters["sim.cycles.total"] == 200.0
        assert parent.units["triad"] == [2, 0.02, 200.0]

    def test_report_and_collapsed_export(self):
        p = self._populated()
        text = p.report()
        assert "top phases by wall time" in text
        assert "predict" in text and "vfmadd" in text
        assert "port occupancy" in text
        collapsed = p.to_collapsed()
        # slash paths become flamegraph semicolons with µs values
        for line in collapsed.splitlines():
            stack, us = line.rsplit(" ", 1)
            assert int(us) > 0
            assert "/" not in stack


class TestAmbientProfiler:
    def test_use_profiler_installs_and_restores(self):
        assert active_profiler() is None
        p = PhaseProfiler()
        with use_profiler(p) as got:
            assert got is p
            assert active_profiler() is p
        assert active_profiler() is None

    def test_set_active_profiler(self):
        p = PhaseProfiler()
        set_active_profiler(p)
        try:
            assert active_profiler() is p
        finally:
            set_active_profiler(None)
        assert active_profiler() is None


KERNEL = """
.L2:
    vmovapd (%rdi,%rax,8), %ymm0
    vfmadd213pd %ymm2, %ymm1, %ymm0
    vmovapd %ymm0, (%rsi,%rax,8)
    addq $4, %rax
    cmpq %rcx, %rax
    jb .L2
"""


class TestSimulatorProfiling:
    def test_profiling_does_not_perturb_prediction(self):
        plan = plan_for_block(lower(KERNEL, "zen4"))
        base = CycleEngine().run(plan, iterations=80)
        prof = PhaseProfiler()
        with use_profiler(prof):
            probed = CycleEngine().run(plan, iterations=80)
        # bit-identical prediction, and profiling alone must not start
        # publishing stall_cycles (that would change cached payloads)
        assert probed.total_cycles == base.total_cycles
        assert probed.cycles_per_iteration == base.cycles_per_iteration
        assert probed.stall_cycles is None and base.stall_cycles is None

    def test_deterministic_cycle_attribution(self):
        plan = plan_for_block(lower(KERNEL, "zen4"))
        snaps = []
        for _ in range(2):
            prof = PhaseProfiler()
            result = CycleEngine().run(plan, iterations=80, profiler=prof)
            assert prof.counters["sim.cycles.total"] == result.total_cycles
            assert prof.counters["sim.instructions"] > 0
            # called outside any phase, attribution keys are top-level;
            # under the engine they nest (unit/predict/sim/...)
            assert prof.cycles["total"] == result.total_cycles
            assert "simulate" in prof.phases
            assert any(k.startswith("issue.") for k in prof.cycles)
            assert prof.instructions and prof.ports
            snap = prof.snapshot()
            for st in snap["phases"].values():  # timing is the only noise
                st[1] = st[2] = 0.0
            snaps.append(snap)
        assert snaps[0] == snaps[1]

    def test_explicit_profiler_overrides_ambient(self):
        plan = plan_for_block(lower(KERNEL, "zen4"))
        ambient, explicit = PhaseProfiler(), PhaseProfiler()
        with use_profiler(ambient):
            CycleEngine().run(plan, iterations=10, profiler=explicit)
        assert explicit.counters.get("sim.cycles.total", 0) > 0
        assert ambient.counters == {}


def _strip_timing(prof: PhaseProfiler) -> dict:
    """Everything the profiler guarantees deterministic.  Phase records
    are excluded entirely: wall/CPU are timing noise, and phase *counts*
    depend on the per-process lowering memo (serial units share the
    parent's, pool workers each keep their own)."""
    snap = prof.snapshot()
    return {
        "cycles": snap["cycles"],
        "instructions": snap["instructions"],
        "ports": snap["ports"],
        "counters": snap["counters"],
        "units": {k: [v[0], v[2]] for k, v in snap["units"].items()},
    }


class TestEngineAttribution:
    def _run(self, jobs: int):
        corpus = enumerate_corpus()[:6]
        units = corpus_units(corpus, iterations=30)
        prof = PhaseProfiler()
        engine = CorpusEngine(jobs=jobs)
        with use_profiler(prof), use_engine(engine):
            results = engine.run(units)
        return results, prof

    def test_parallel_attribution_bit_identical_to_serial(self):
        serial_results, serial_prof = self._run(jobs=1)
        par_results, par_prof = self._run(jobs=4)
        assert serial_results == par_results
        assert _strip_timing(serial_prof) == _strip_timing(par_prof)

    def test_engine_publishes_unit_records(self):
        _, prof = self._run(jobs=1)
        assert "engine/evaluate" in prof.phases
        # one record per evaluation: units sharing a cache key are
        # evaluated once, so they leave a single record between them
        units = corpus_units(enumerate_corpus()[:6], iterations=30)
        assert len(prof.units) == len({cache_key(u) for u in units}) < 6
        assert all(st[2] > 0 for st in prof.units.values())
        # worker-side phases come back re-rooted under "unit"
        assert any(k.startswith("unit/predict") for k in prof.phases)

    def test_unprofiled_engine_run_records_nothing(self):
        corpus = enumerate_corpus()[:2]
        units = corpus_units(corpus, iterations=10)
        engine = CorpusEngine(jobs=1)
        assert active_profiler() is None
        results = engine.run(units)
        assert all(r is not None for r in results)
