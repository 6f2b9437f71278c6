"""Error isolation, retry policy, and failure reporting of the engine.

The fault-injection-driven end-to-end robustness scenarios (worker
kills, hangs, fault-rate sweeps at ``jobs>1``) live in
``test_engine_chaos.py``; this module covers the taxonomy and the
engine's failure semantics on fast, deterministic paths.
"""

import json

import pytest

from repro.context import use_context
from repro.engine import (
    ERROR_POLICIES,
    CorpusEngine,
    PermanentError,
    RetryPolicy,
    TransientError,
    UnitEvaluationError,
    UnitFailure,
    UnitTimeoutError,
    WorkUnit,
    WorkerCrashError,
    classify,
    is_transient,
)
from repro.engine.errors import failure_payload
from repro.engine.evaluators import evaluator


# -- module-local evaluator kinds (registry is global; unique names) ----

@evaluator("errtest_double")
def _double(p):
    return {"v": p["x"] * 2}


@evaluator("errtest_flaky")
def _flaky(p):
    raise OSError("transient-looking failure")


@evaluator("errtest_bad")
def _bad(p):
    raise ValueError(f"bad input {p['x']}")


def _units(kind, n=4):
    return [WorkUnit.make(kind, label=f"u{i}", x=i) for i in range(n)]


class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(TransientError, RuntimeError)
        assert issubclass(UnitTimeoutError, TransientError)
        assert issubclass(WorkerCrashError, TransientError)
        assert not issubclass(PermanentError, TransientError)

    @pytest.mark.parametrize(
        "exc,expected",
        [
            (OSError("disk"), "transient"),
            (BrokenPipeError(), "transient"),
            (EOFError(), "transient"),
            (MemoryError(), "transient"),
            (ConnectionResetError(), "transient"),
            (TransientError("custom"), "transient"),
            (UnitTimeoutError(5.0), "transient"),
            (ValueError("bad unit"), "permanent"),
            (KeyError("missing"), "permanent"),
            (TypeError(), "permanent"),
            (ZeroDivisionError(), "permanent"),
            (PermanentError("custom"), "permanent"),
            (RuntimeError("generic"), "permanent"),
        ],
    )
    def test_classification(self, exc, expected):
        assert classify(exc) == expected
        assert is_transient(exc) == (expected == "transient")

    def test_pickle_errors_are_permanent(self):
        # PicklingError subclasses would otherwise ride transient base
        # classes; retrying an unpicklable unit fails identically
        import pickle

        assert classify(pickle.PicklingError("x")) == "permanent"
        assert classify(pickle.UnpicklingError("x")) == "permanent"

    def test_failure_payload_is_plain_data(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            p = failure_payload(exc)
        assert p["error_class"] == "ValueError"
        assert p["kind"] == "permanent"
        assert p["message"] == "boom"
        assert "ValueError: boom" in p["traceback_repr"]
        json.dumps(p)  # must serialize without custom encoders


class TestRetryPolicy:
    def test_budget(self):
        rp = RetryPolicy(max_retries=2)
        assert rp.should_retry(0, "transient")
        assert rp.should_retry(1, "transient")
        assert not rp.should_retry(2, "transient")

    def test_permanent_never_retries(self):
        rp = RetryPolicy(max_retries=5)
        assert not rp.should_retry(0, "permanent")

    def test_backoff_is_deterministic_exponential(self):
        rp = RetryPolicy(backoff=0.05)
        assert [rp.backoff_seconds(a) for a in range(3)] == [0.05, 0.1, 0.2]
        assert RetryPolicy(backoff=0.0).backoff_seconds(3) == 0.0

    def test_zero_retries_disables(self):
        assert not RetryPolicy(max_retries=0).should_retry(0, "transient")


class TestErrorPolicyValidation:
    def test_known_policies(self):
        assert ERROR_POLICIES == ("fail_fast", "collect", "quarantine")
        for p in ERROR_POLICIES:
            CorpusEngine(error_policy=p)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="error_policy"):
            CorpusEngine(error_policy="ignore")

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            CorpusEngine(max_retries=-1)
        with pytest.raises(ValueError, match="unit_timeout"):
            CorpusEngine(unit_timeout=0.0)


class TestFailFast:
    def test_permanent_failure_raises_with_structured_failure(self):
        e = CorpusEngine(jobs=1)
        with pytest.raises(UnitEvaluationError, match="bad input 2") as ei:
            e.run(_units("errtest_double", 2) + _units("errtest_bad", 3)[2:])
        f = ei.value.failure
        assert isinstance(f, UnitFailure)
        assert f.error_class == "ValueError"
        assert f.kind == "permanent"
        assert f.attempts == 1  # permanent: no retries burned

    def test_transient_failure_exhausts_retries_first(self):
        e = CorpusEngine(jobs=1, max_retries=2, retry_backoff=0.0)
        with pytest.raises(UnitEvaluationError) as ei:
            e.run(_units("errtest_flaky", 1))
        assert ei.value.failure.attempts == 3  # 1 try + 2 retries
        assert ei.value.failure.kind == "transient"

    def test_error_carries_unit_and_survives_pickle(self):
        import pickle

        e = CorpusEngine(jobs=1)
        with pytest.raises(UnitEvaluationError) as ei:
            e.run(_units("errtest_bad", 1))
        err = pickle.loads(pickle.dumps(ei.value))
        assert err.unit.label == "u0"
        assert err.failure.error_class == "ValueError"


class TestCollect:
    def test_results_aligned_with_none_at_failed_indices(self):
        units = _units("errtest_double", 3) + _units("errtest_bad", 2)
        e = CorpusEngine(jobs=1, error_policy="collect", retry_backoff=0.0)
        r = e.run(units)
        assert r[:3] == [{"v": 0}, {"v": 2}, {"v": 4}]
        assert r[3:] == [None, None]
        assert [f.index for f in e.failures] == [3, 4]
        assert all(f.error_class == "ValueError" for f in e.failures)

    def test_accounting_invariant(self):
        units = _units("errtest_double", 3) + _units("errtest_bad", 2)
        e = CorpusEngine(jobs=1, error_policy="collect", retry_backoff=0.0)
        e.run(units)
        m = e.metrics
        assert m.cache_hits + m.evaluated + m.failed == m.total_units == 5
        assert m.failed == 2 and m.evaluated == 3

    def test_outcomes_carry_failures(self):
        e = CorpusEngine(jobs=1, error_policy="collect", retry_backoff=0.0)
        e.run(_units("errtest_bad", 1))
        (o,) = e.last_outcomes
        assert o.result is None and o.failure.error_class == "ValueError"

    def test_failure_log_accumulates_across_batches(self):
        e = CorpusEngine(jobs=1, error_policy="collect", retry_backoff=0.0)
        e.run(_units("errtest_bad", 1))
        e.run(_units("errtest_bad", 2))
        assert len(e.failures) == 2  # last batch only
        assert len(e.failure_log) == 3  # lifetime

    def test_unit_failure_to_json(self):
        e = CorpusEngine(jobs=1, error_policy="collect", retry_backoff=0.0)
        e.run(_units("errtest_bad", 1))
        j = e.failures[0].to_json()
        assert j == {
            "label": "u0",
            "unit_kind": "errtest_bad",
            "attempts": 1,
            "error_class": "ValueError",
            "kind": "permanent",
            "message": "bad input 0",
        }
        assert "after 1 attempt" in e.failures[0].summary()

    def test_progress_hook_reports_failures(self):
        events = []
        e = CorpusEngine(
            jobs=1, error_policy="collect", retry_backoff=0.0,
            progress=events.append,
        )
        e.run(_units("errtest_double", 1) + _units("errtest_bad", 2)[1:])
        assert [ev["failed"] for ev in events] == [False, True]
        assert events[-1]["completed"] == 2


class TestQuarantine:
    def test_second_batch_skips_without_evaluating(self, tmp_path):
        units = _units("errtest_double", 2) + _units("errtest_bad", 3)[2:]
        e = CorpusEngine(
            jobs=1, cache_dir=tmp_path / "c", error_policy="quarantine",
            retry_backoff=0.0,
        )
        r1 = e.run(units)
        assert r1[2] is None and e.failures[0].error_class == "ValueError"
        r2 = e.run(units)
        assert r2[2] is None
        assert e.failures[0].error_class == "Quarantined"
        assert e.failures[0].attempts == 0
        assert e.metrics.evaluated == 0  # good units came from cache

    def test_quarantine_persists_across_engines(self, tmp_path):
        units = _units("errtest_bad", 1)
        e1 = CorpusEngine(
            jobs=1, cache_dir=tmp_path / "c", error_policy="quarantine",
            retry_backoff=0.0,
        )
        e1.run(units)
        files = list((tmp_path / "c" / "quarantine").glob("*.json"))
        assert len(files) == 1
        info = json.loads(files[0].read_text())
        assert info["error_class"] == "ValueError"
        e2 = CorpusEngine(
            jobs=1, cache_dir=tmp_path / "c", error_policy="quarantine",
        )
        r = e2.run(units)
        assert r == [None] and e2.metrics.evaluated == 0

    def test_quarantine_ignored_by_other_policies(self, tmp_path):
        e1 = CorpusEngine(
            jobs=1, cache_dir=tmp_path / "c", error_policy="quarantine",
            retry_backoff=0.0,
        )
        e1.run(_units("errtest_bad", 1))
        # fail_fast engine on the same cache re-evaluates (and raises)
        e2 = CorpusEngine(jobs=1, cache_dir=tmp_path / "c")
        with pytest.raises(UnitEvaluationError):
            e2.run(_units("errtest_bad", 1))

    def test_clear_quarantine(self, tmp_path):
        e = CorpusEngine(
            jobs=1, cache_dir=tmp_path / "c", error_policy="quarantine",
            retry_backoff=0.0,
        )
        e.run(_units("errtest_bad", 2))
        assert e.clear_quarantine() == 2
        assert not (tmp_path / "c" / "quarantine").exists()
        e.run(_units("errtest_bad", 2))  # re-evaluated, re-quarantined
        assert all(f.error_class == "ValueError" for f in e.failures)

    def test_cacheless_quarantine_degrades_to_collect(self, caplog):
        # no cache root -> no persistent skip-list; the policy degrades
        # to collect (with a warning) instead of keeping quarantine
        # state that could neither persist nor be inspected
        with caplog.at_level("WARNING", logger="repro.engine.pool"):
            e = CorpusEngine(
                jobs=1, error_policy="quarantine", retry_backoff=0.0
            )
        assert e.error_policy == "collect"
        assert any(
            "degrading to 'collect'" in r.message for r in caplog.records
        )
        e.run(_units("errtest_bad", 1))
        e.run(_units("errtest_bad", 1))
        # both batches re-evaluate: failures are isolated, never skipped
        assert e.failures[0].error_class == "ValueError"
        assert all(f.error_class == "ValueError" for f in e.failure_log)


class TestDegradedCorpus:
    ASM = "addq $1, %rax\naddq $2, %rbx"

    @pytest.fixture
    def broken_mca(self):
        import repro.backends.base as base

        cls = base._BACKEND_CLASSES["mca"]
        orig = cls.predict

        def boom(self, *a, **k):
            raise RuntimeError("mca exploded")

        cls.predict = boom
        try:
            yield
        finally:
            cls.predict = orig

    def _unit(self):
        return WorkUnit.make(
            "corpus", label="deg", uarch="zen4",
            assembly=self.ASM, iterations=10,
        )

    def test_fail_fast_keeps_whole_unit_failure(self, broken_mca):
        e = CorpusEngine(jobs=1, max_retries=0)
        with pytest.raises(UnitEvaluationError, match="mca exploded"):
            e.run([self._unit()])

    def test_collect_yields_partial_result(self, broken_mca):
        e = CorpusEngine(jobs=1, error_policy="collect", max_retries=0)
        (r,) = e.run([self._unit()])
        assert r["degraded"] is True
        assert r["backend_errors"] == {"mca": "RuntimeError: mca exploded"}
        assert "measurement" in r and "prediction_osaca" in r
        assert "prediction_mca" not in r
        assert e.metrics.degraded == 1 and e.metrics.failed == 0

    def test_degraded_results_are_not_cached(self, broken_mca, tmp_path):
        e = CorpusEngine(
            jobs=1, cache_dir=tmp_path / "c", error_policy="collect",
            max_retries=0,
        )
        (r,) = e.run([self._unit()])
        assert r.get("degraded") and e.cache.stats.puts == 0

    def test_all_backends_failing_fails_the_unit(self):
        import repro.backends.base as base

        originals = {}

        def boom(self, *a, **k):
            raise RuntimeError("down")

        for name in ("model", "sim", "mca"):
            cls = base._BACKEND_CLASSES[name]
            originals[name] = cls.predict
            cls.predict = boom
        try:
            e = CorpusEngine(jobs=1, error_policy="collect", max_retries=0)
            (r,) = e.run([self._unit()])
            assert r is None
            assert "all corpus backends failed" in e.failures[0].message
        finally:
            for name, fn in originals.items():
                base._BACKEND_CLASSES[name].predict = fn


class TestFailureObservability:
    def test_metrics_counters_absorbed(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        with use_context(metrics=reg):
            e = CorpusEngine(
                jobs=1, error_policy="collect", retry_backoff=0.0
            )
            e.run(_units("errtest_double", 2) + _units("errtest_bad", 3)[2:])
        snap = reg.snapshot()
        assert snap["engine.units_failed"]["value"] == 1
        assert "engine.unit_retries" not in snap  # nothing retried

    def test_healthy_runs_register_no_failure_counters(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        with use_context(metrics=reg):
            CorpusEngine(jobs=1).run(_units("errtest_double", 2))
        assert "engine.units_failed" not in reg.snapshot()

    def test_failure_spans_and_instants_in_trace(self):
        from repro.obs.trace import Tracer

        t = Tracer()
        e = CorpusEngine(
            jobs=1, error_policy="collect", max_retries=1, retry_backoff=0.0,
        )
        with use_context(tracer=t):
            e.run(_units("errtest_flaky", 1) + _units("errtest_double", 2)[1:])
        cats = [ev.get("cat") for ev in t.events]
        assert "retry" in cats and "failure" in cats and "unit" in cats
        retry_span = next(ev for ev in t.events if ev.get("cat") == "retry")
        assert retry_span["args"]["error_class"] == "OSError"
        assert retry_span["args"]["attempt"] == 0
        instants = [
            ev for ev in t.events
            if ev.get("cat") == "failure" and ev["ph"] == "i"
        ]
        assert instants and instants[0]["args"]["attempts"] == 2

    def test_manifest_unit_failures_and_check_gating(self):
        from repro.obs.report import build_manifest, diff_manifests

        def manifest(unit_failures=()):
            return build_manifest(
                command="test",
                config={},
                benchmarks={},
                wall_seconds=0.0,
                cpu_seconds=0.0,
                unit_failures=unit_failures,
            )

        e = CorpusEngine(jobs=1, error_policy="collect", retry_backoff=0.0)
        e.run(_units("errtest_bad", 1))
        clean, failed = manifest(), manifest(e.failure_log)
        assert failed["unit_failures"][0]["error_class"] == "ValueError"
        assert "unit_failures" not in clean

        d = diff_manifests(clean, failed)
        assert not d.ok
        assert any(
            f.severity == "regression" and f.benchmark == "(units)"
            for f in d.findings
        )
        assert diff_manifests(failed, failed).ok  # same failures: no churn
        improved = diff_manifests(failed, clean)
        assert improved.ok and any(
            f.severity == "improvement" for f in improved.findings
        )

    def test_summary_mentions_failures(self):
        e = CorpusEngine(jobs=1, error_policy="collect", retry_backoff=0.0)
        e.run(_units("errtest_bad", 1))
        assert "1 failed" in e.metrics.summary()


class TestBenchCliErrorPolicy:
    def test_flags_reach_the_engine(self, monkeypatch, capsys):
        from repro import cli

        captured = {}
        import repro.engine as engine_mod

        orig = engine_mod.CorpusEngine

        class Spy(orig):
            def __init__(self, **kw):
                captured.update(kw)
                super().__init__(**kw)

        monkeypatch.setattr(engine_mod, "CorpusEngine", Spy)
        rc = cli.bench_main(
            ["fig2", "--error-policy", "collect", "--max-retries", "5",
             "--unit-timeout", "30"]
        )
        assert rc == 0
        assert captured["error_policy"] == "collect"
        assert captured["max_retries"] == 5
        assert captured["unit_timeout"] == 30.0

    @pytest.mark.parametrize(
        "main, args",
        [("bench_main", ["fig2"]), ("fuzz_main", ["--count", "1"])],
        ids=["bench", "fuzz"],
    )
    def test_bad_flags_rejected(self, main, args, capsys):
        from repro import cli

        for bad in (["--error-policy", "bogus"], ["--max-retries", "-1"],
                    ["--unit-timeout", "0"], ["--jobs", "0"]):
            with pytest.raises(SystemExit) as exc:
                getattr(cli, main)([*args, *bad])
            assert exc.value.code == 2, bad
        assert "generated" not in capsys.readouterr().out

    def test_collect_run_with_failures_exits_nonzero(self, monkeypatch, capsys):
        # a fake experiment whose corpus unit fails under collect
        from repro import cli
        from repro.bench import EXPERIMENTS
        from repro.engine import resolve_engine

        class FakeBench:
            @staticmethod
            def run():
                eng = resolve_engine()
                eng.run(_units("errtest_bad", 1))
                return {"ok": True}

        monkeypatch.setitem(EXPERIMENTS, "fakebench", FakeBench)
        import repro.bench as bench_mod

        monkeypatch.setattr(
            bench_mod, "render_experiment", lambda name, result=None: "fake"
        )
        rc = cli.bench_main(
            ["fakebench", "--error-policy", "collect", "--json", "/dev/null"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "work unit(s) failed" in err
        assert "ValueError" in err
