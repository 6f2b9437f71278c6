"""Performance-counter facade and CLI entry points."""

import pytest

from repro.cli import analyze_main, bench_main
from repro.machine import get_chip_spec
from repro.simulator.counters import PerfCounters
from repro.simulator.memory import hierarchy_for_chip


class TestPerfCounters:
    def test_mem_group(self):
        c = PerfCounters("spr")
        h = hierarchy_for_chip(get_chip_spec("spr"), scale=1e-4)
        c.attach_hierarchy(h)
        h.store(0, 64)
        mem = c.read("MEM")
        assert mem["read_bytes"] >= 0
        assert mem["total_bytes"] == mem["read_bytes"] + mem["write_bytes"]

    def test_mem_without_hierarchy_raises(self):
        with pytest.raises(RuntimeError):
            PerfCounters("spr").read("MEM")

    def test_clock_group(self):
        c = PerfCounters("spr")
        c.set_affinity(52, "avx512")
        clock = c.read("CLOCK")
        assert clock["frequency_ghz"] == pytest.approx(2.0, abs=0.05)
        assert clock["active_cores"] == 52

    def test_flops_group(self):
        c = PerfCounters("gcs")
        c.set_affinity(1, "sve")
        c.record_compute(flops=3.4e9 * 16, cycles=3.4e9)
        f = c.read("FLOPS_DP")
        assert f["gflops"] == pytest.approx(16 * 3.4, rel=0.01)

    def test_cache_group(self):
        c = PerfCounters("genoa")
        h = hierarchy_for_chip(get_chip_spec("genoa"), scale=1e-4)
        c.attach_hierarchy(h)
        h.load(0, 8)
        h.load(0, 8)
        cache = c.read("CACHE")
        assert cache["L1_hits"] >= 1

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            PerfCounters("spr").read("ENERGY")

    def test_bad_affinity_isa(self):
        with pytest.raises(ValueError):
            PerfCounters("spr").set_affinity(1, "sve")


class TestCLI:
    TRIAD = (
        "vmovupd (%rax,%rcx,8), %ymm0\n"
        "vfmadd231pd (%rbx,%rcx,8), %ymm1, %ymm0\n"
        "vmovupd %ymm0, (%rdx,%rcx,8)\n"
        "addq $4, %rcx\ncmpq %rsi, %rcx\njb .L4\n"
    )

    def test_analyze_file(self, tmp_path, capsys):
        f = tmp_path / "k.s"
        f.write_text(self.TRIAD)
        assert analyze_main([str(f), "--arch", "zen4"]) == 0
        out = capsys.readouterr().out
        assert "Predicted runtime" in out

    def test_analyze_compare(self, tmp_path, capsys):
        f = tmp_path / "k.s"
        f.write_text(self.TRIAD)
        assert analyze_main([str(f), "--arch", "spr", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "Simulated measurement" in out
        assert "MCA baseline" in out

    def test_analyze_heuristic_flag(self, tmp_path, capsys):
        f = tmp_path / "k.s"
        f.write_text(self.TRIAD)
        assert analyze_main([str(f), "--arch", "grace".replace("grace", "zen4"),
                             "--heuristic"]) == 0
        assert "heuristic" in capsys.readouterr().out

    def test_analyze_removed_backend_is_usage_error(self, tmp_path, capsys):
        # the removed steady-state backend is no longer a --backend choice
        f = tmp_path / "k.s"
        f.write_text(self.TRIAD)
        with pytest.raises(SystemExit) as ei:
            analyze_main([str(f), "--arch", "zen4", "--backend", "fastpath"])
        assert ei.value.code == 2
        assert "invalid choice: 'fastpath'" in capsys.readouterr().err

    def test_bench_fast_experiments(self, capsys):
        assert bench_main(["table2", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "SIMD width" in out
        assert "port model" in out
