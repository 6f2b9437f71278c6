"""CLI tests: quarantine admin flags on ``repro-bench``, argument
validation for ``repro-serve``, and the ``repro-serve-bench`` check
gate."""

import json

import pytest

from repro.cli import bench_main, serve_bench_main, serve_main
from repro.context import use_context
from repro.engine import CorpusEngine
from repro.faults import FaultPlan, FaultSpec
from repro.serve.protocol import parse_analyze_request

ASM = "fadd v0.2d, v1.2d, v2.2d\n"


def _poison_cache(cache_dir) -> None:
    """Seed a quarantine entry: one unit that fails permanently."""
    req = parse_analyze_request(json.dumps({
        "assembly": ASM, "arch": "gcs", "label": "poison-unit",
    }).encode())
    plan = FaultPlan(
        [FaultSpec(site="evaluate", rate=1.0, match="poison",
                   error_type="permanent")],
        seed=3,
    )
    with use_context(faults=plan):
        eng = CorpusEngine(
            jobs=1, cache_dir=str(cache_dir),
            error_policy="quarantine", max_retries=0,
        )
        out = eng.run([req.to_unit()])
    assert out == [None]
    assert eng.quarantine_entries()


class TestQuarantineAdmin:
    def test_list_shows_entry(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        _poison_cache(cache)
        rc = bench_main(["--cache", str(cache), "--list-quarantine"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 quarantined unit(s)" in out
        assert "poison-unit" in out
        assert "InjectedPermanentFault" in out

    def test_clear_releases_and_list_goes_empty(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        _poison_cache(cache)
        rc = bench_main(["--cache", str(cache), "--clear-quarantine"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "released 1 quarantined unit(s)" in out
        rc = bench_main(["--cache", str(cache), "--list-quarantine"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no quarantined units" in out

    def test_list_and_clear_combine(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        _poison_cache(cache)
        rc = bench_main([
            "--cache", str(cache),
            "--list-quarantine", "--clear-quarantine",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 quarantined unit(s)" in out
        assert "released 1" in out

    def test_quarantine_flags_require_cache(self):
        with pytest.raises(SystemExit):
            bench_main(["--list-quarantine"])

    def test_no_experiment_and_no_admin_flag_errors(self):
        with pytest.raises(SystemExit):
            bench_main([])


class TestServeArgValidation:
    def test_quarantine_policy_requires_cache(self):
        with pytest.raises(SystemExit):
            serve_main(["--error-policy", "quarantine"])

    def test_unknown_error_policy_rejected(self):
        with pytest.raises(SystemExit):
            serve_main(["--error-policy", "fail_fast"])

    def test_negative_queue_capacity_rejected(self):
        with pytest.raises(SystemExit):
            serve_main(["--queue-capacity", "0"])


@pytest.mark.serve
class TestServeBenchCli:
    def test_baseline_roundtrip_and_check(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_serve.json"
        rc = serve_bench_main([
            "--quick", "--scenarios", "serve_hot",
            "--baseline", str(baseline),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert baseline.exists()
        assert "serve_hot" in out
        manifest = json.loads(baseline.read_text())
        assert manifest["benchmarks"]["serve_hot"]["status"] == "ok"

        # check mode inherits quick/seed/scenarios from the baseline
        rc = serve_bench_main(["--check", "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "serve_hot" in out

    def test_check_fails_against_impossible_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_serve.json"
        rc = serve_bench_main([
            "--quick", "--scenarios", "serve_hot",
            "--baseline", str(baseline),
        ])
        assert rc == 0
        capsys.readouterr()
        manifest = json.loads(baseline.read_text())
        work = manifest["benchmarks"]["serve_hot"]["stats"]["work"]
        work["errors"] = -1.0  # any real run "regresses" to >= 0
        baseline.write_text(json.dumps(manifest))
        rc = serve_bench_main(["--check", "--baseline", str(baseline)])
        captured = capsys.readouterr()
        assert rc != 0
        assert "errors" in captured.out + captured.err

    def test_check_requires_existing_baseline(self, tmp_path, capsys):
        rc = serve_bench_main([
            "--check", "--baseline", str(tmp_path / "absent.json"),
        ])
        captured = capsys.readouterr()
        assert rc != 0
        assert "cannot load baseline" in captured.err
