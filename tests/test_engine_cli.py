"""``repro-bench`` engine options and failure propagation.

Two contracts:

* a sub-benchmark raising inside the experiment loop must surface as a
  **nonzero exit code** (previously ``repro-bench`` exited 0 and CI
  pipelines silently passed),
* ``--jobs N --cache DIR`` installs, in the run context, the engine
  every experiment submits through, with a metrics summary line at the
  end.
"""

import pytest

from repro.bench import EXPERIMENTS
from repro.cli import bench_main


class _Boom:
    @staticmethod
    def run():
        raise RuntimeError("synthetic sub-benchmark failure")

    @staticmethod
    def render():
        raise RuntimeError("synthetic sub-benchmark failure")


@pytest.fixture
def broken_experiment(monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "boom", _Boom)
    return "boom"


class TestExitCode:
    def test_failure_propagates_nonzero(self, broken_experiment, capsys):
        rc = bench_main([broken_experiment])
        assert rc == 1
        err = capsys.readouterr().err
        assert "boom" in err and "failed" in err

    def test_failure_does_not_abort_other_experiments(
        self, broken_experiment, capsys
    ):
        rc = bench_main([broken_experiment, "table2"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "SIMD width" in out  # table2 still ran and rendered
        assert "1 experiment(s) failed" in err

    def test_success_still_exits_zero(self, capsys):
        assert bench_main(["table2"]) == 0

    def test_unknown_experiment_is_a_failure(self, capsys):
        assert bench_main(["fig9"]) == 1

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            bench_main(["table2", "--jobs", "0"])


class TestEngineOptions:
    def test_cache_populates_and_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert bench_main(["table3", "--cache", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "engine:" in first and "cache hits 0/3" in first

        assert bench_main(["table3", "--cache", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "cache hits 3/3 = 100%" in second
        # identical rendered table either way (metrics line differs by
        # design: hit count and wall time)
        def table(text):
            return [l for l in text.splitlines() if "engine:" not in l]

        assert table(first) == table(second)

    def test_jobs_flag_prints_metrics(self, capsys):
        assert bench_main(["table2", "--jobs", "2"]) == 0
        assert "engine:" in capsys.readouterr().out

    def test_serial_default_prints_no_metrics(self, capsys):
        assert bench_main(["table2"]) == 0
        assert "engine:" not in capsys.readouterr().out
