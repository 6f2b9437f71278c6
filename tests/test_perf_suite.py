"""The repro-perf baseline suite: deterministic manifests and the
noise-floor-aware --check gate, proven against a doctored baseline."""

import json
from pathlib import Path

import pytest

from repro.bench.perf import CASES, DEFAULT_BASELINE, render_suite, run_suite
from repro.cli import perf_main
from repro.obs.report import load_manifest

COMMITTED_BASELINE = Path(__file__).parent.parent / DEFAULT_BASELINE


class TestRunSuite:
    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown perf case"):
            run_suite(cases=["nope"], quick=True)
        with pytest.raises(ValueError, match="repeats"):
            run_suite(cases=["lowering"], quick=True, repeats=0)

    def test_manifest_schema_and_deterministic_work_stats(self):
        m1 = run_suite(cases=["lowering"], quick=True, repeats=1)
        m2 = run_suite(cases=["lowering"], quick=True, repeats=1)
        assert m1["schema"] == "repro-run-report/1"
        assert m1["command"] == "repro-perf"
        assert m1["config"]["cases"] == ["lowering"]
        rec = m1["benchmarks"]["lowering_throughput"]
        assert rec["status"] == "ok" and rec["seconds"] > 0
        assert rec["stats"]["blocks_per_second"] > 0
        assert any(
            k.startswith("attribution.") and k.endswith("_share")
            for k in rec["stats"]
        )
        # work.* counters are a pure function of the tree — rerunning
        # the suite must reproduce them bit for bit
        work = lambda m: {  # noqa: E731
            k: v
            for k, v in m["benchmarks"]["lowering_throughput"][
                "stats"
            ].items()
            if k.startswith("work.")
        }
        assert work(m1) == work(m2) != {}

    def test_notes_recorded_in_config(self):
        m = run_suite(
            cases=["lowering"], quick=True, repeats=1, notes={"k": "v"}
        )
        assert m["config"]["notes"] == {"k": "v"}

    def test_fig3_cold_publishes_simulated_cycles(self):
        # every cold measurement is a profiled cycle-engine run, so the
        # sweep's simulated cycles reach the profile
        m = run_suite(cases=["fig3"], quick=True, repeats=1)
        stats = m["benchmarks"]["fig3_cold"]["stats"]
        assert stats["work.sim_cycles_total"] > 0

    def test_committed_baseline_names_only_known_cases(self):
        # `repro-perf --check` re-runs the baseline's own case list and
        # refuses a case it does not know before measuring anything
        cases = json.loads(COMMITTED_BASELINE.read_text())["config"]["cases"]
        assert cases and set(cases) <= set(CASES)

    def test_render_suite(self):
        m = run_suite(cases=["lowering"], quick=True, repeats=1)
        text = render_suite(m)
        assert "lowering_throughput" in text
        assert "blocks_per_second" in text

    @pytest.mark.slow
    def test_all_cases_quick_smoke(self):
        m = run_suite(quick=True, repeats=1)
        names = set(m["benchmarks"])
        assert {
            "import_cli",
            "fig3_cold",
            "fig3_warm",
            "lowering_throughput",
            "sim_hot_loop",
            "fuzz_sweep",
        } == names
        assert all(
            r["status"] == "ok" for r in m["benchmarks"].values()
        )
        assert set(m["config"]["cases"]) == set(CASES)


class TestPerfCLI:
    ARGS = ["--cases", "lowering", "--quick", "--repeats", "1"]

    def _faster_baseline(self, tmp_path):
        """A baseline run, then a copy that records the case as 1000x
        faster: every honest re-run is a gross slowdown against it."""
        base = tmp_path / "BENCH_perf.json"
        assert perf_main([*self.ARGS, "--out", str(base)]) == 0
        m = load_manifest(str(base))
        m["benchmarks"]["lowering_throughput"]["seconds"] /= 1000
        doctored = tmp_path / "faster.json"
        doctored.write_text(json.dumps(m))
        return doctored

    def test_baseline_write_then_clean_check(self, tmp_path):
        base = tmp_path / "BENCH_perf.json"
        rc = perf_main([*self.ARGS, "--out", str(base)])
        assert rc == 0 and base.exists()
        m = load_manifest(str(base))
        assert m["config"]["quick"] is True
        # --check picks up quick/repeats/cases from the baseline itself
        rc = perf_main(["--check", "--baseline", str(base)])
        assert rc == 0

    def test_check_fails_on_injected_slowdown(self, tmp_path):
        doctored = self._faster_baseline(tmp_path)
        before = doctored.read_text()
        # the doctored case's wall time sits far below the default
        # 0.05 s noise floor; pin the floor to 0 so the verdict is about
        # the gate, not about the floor
        rc = perf_main(
            [
                "--check",
                "--baseline",
                str(doctored),
                "--min-runtime-seconds",
                "0",
            ]
        )
        assert rc == 1
        # the gate run must never rewrite the baseline it checks against
        assert doctored.read_text() == before

    def test_check_respects_noise_floor(self, tmp_path):
        doctored = self._faster_baseline(tmp_path)
        # with the floor above every case's wall time, even a gross
        # slowdown is below the noise floor — only stats are compared
        rc = perf_main(
            [
                "--check",
                "--baseline",
                str(doctored),
                "--min-runtime-seconds",
                "1e9",
            ]
        )
        assert rc == 0

    def test_check_with_cases_subset_ignores_skipped_cases(self, tmp_path):
        base = tmp_path / "BENCH_perf.json"
        rc = perf_main(
            [
                "--cases",
                "lowering,sim",
                "--quick",
                "--repeats",
                "1",
                "--out",
                str(base),
            ]
        )
        assert rc == 0
        # gating only one case must not flag the other as missing
        rc = perf_main(
            ["--check", "--baseline", str(base), "--cases", "lowering"]
        )
        assert rc == 0

    def test_check_missing_baseline_is_usage_error(self, tmp_path):
        rc = perf_main(
            ["--check", "--baseline", str(tmp_path / "missing.json")]
        )
        assert rc == 2

    def test_unknown_case_is_parser_error(self):
        with pytest.raises(SystemExit):
            perf_main(["--cases", "bogus"])
