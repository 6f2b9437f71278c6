"""Differential fuzz sweeps: determinism across jobs and under faults.

ISSUE 6 satellite: a fixed-seed 200-kernel sweep must produce a
**bit-identical** triage report at ``jobs=1`` and ``jobs=4`` — and
still under a 10 % injected-fault :class:`FaultPlan` whose faults heal
on retry.  Marked ``fuzz``: part of the tier-1 suite, excluded from the
``make test-fast`` developer loop (a few seconds of simulator time).
"""

import pytest

from repro.context import use_context
from repro.engine import CorpusEngine
from repro.faults import FaultPlan, FaultSpec
from repro.fuzz import (
    build_triage_manifest,
    generate_fuzz_corpus,
    manifest_digest,
    run_differential,
)

pytestmark = pytest.mark.fuzz

SEED, COUNT, ITERATIONS = 2024, 200, 20


@pytest.fixture(scope="module")
def corpus():
    return generate_fuzz_corpus(SEED, COUNT)


def _sweep(corpus, jobs, **engine_kw):
    eng = CorpusEngine(
        jobs=jobs, error_policy="collect", retry_backoff=0.001, **engine_kw
    )
    result = run_differential(
        corpus, seed=SEED, iterations=ITERATIONS, engine=eng
    )
    return build_triage_manifest(result)


class TestDifferentialDeterminism:
    def test_triage_identical_at_jobs_1_and_4(self, corpus):
        serial = _sweep(corpus, jobs=1)
        parallel = _sweep(corpus, jobs=4)
        assert serial == parallel
        assert manifest_digest(serial) == manifest_digest(parallel)

    def test_triage_identical_under_injected_faults(self, corpus):
        # 10% of evaluations fault on their first attempt and heal on
        # retry: the report must come out bit-identical to a clean run
        clean = _sweep(corpus, jobs=1)
        plan = FaultPlan(
            [FaultSpec(site="evaluate", rate=0.1, attempts=(0,))],
            seed=77,
        )
        faulted = [
            u for u in (f"any-{i}" for i in range(COUNT))
            if plan.would_fault("evaluate", u)
        ]
        assert faulted, "the plan must actually fire at this rate"
        with use_context(faults=plan):
            chaotic_serial = _sweep(corpus, jobs=1)
        with use_context(faults=plan):
            chaotic_parallel = _sweep(corpus, jobs=4)
        assert manifest_digest(chaotic_serial) == manifest_digest(clean)
        assert manifest_digest(chaotic_parallel) == manifest_digest(clean)

    def test_retries_actually_happened_under_faults(self, corpus):
        plan = FaultPlan(
            [FaultSpec(site="evaluate", rate=0.1, attempts=(0,))],
            seed=77,
        )
        eng = CorpusEngine(jobs=1, error_policy="collect",
                           retry_backoff=0.001)
        with use_context(faults=plan):
            run_differential(
                corpus[:50], seed=SEED, iterations=ITERATIONS, engine=eng
            )
        assert eng.totals.retries > 0, "fault plan never fired"
        assert not eng.failure_log, "healing faults must not leave failures"

    def test_manifest_carries_gateable_stats(self, corpus):
        m = _sweep(corpus[:40], jobs=2)
        stats = m["benchmarks"]["fuzz"]["stats"]
        assert stats["kernels"] == 40
        assert stats["checked"] == stats["agreements"] + stats["divergent"]
        assert 0.0 <= stats["divergence_rate"] <= 1.0
        # excluded on purpose: anything timing- or topology-dependent
        assert "created_unix" not in m
        assert "timing" not in m
        assert "engine" not in m
        assert "jobs" not in m["config"]


class TestFuzzCli:
    def test_repro_fuzz_writes_reproducible_report(self, tmp_path, capsys):
        from repro.cli import fuzz_main

        args = ["--seed", "5", "--count", "15", "--iterations", "20"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert fuzz_main([*args, "--report", str(a)]) == 0
        assert fuzz_main([*args, "--jobs", "2", "--report", str(b)]) == 0
        assert a.read_text() == b.read_text()
        out = capsys.readouterr().out
        assert "manifest digest:" in out
        assert "triage report written" in out

    def test_loadable_as_run_report_manifest(self, tmp_path):
        from repro.cli import fuzz_main
        from repro.fuzz.triage import load_manifest

        p = tmp_path / "t.json"
        assert fuzz_main(["--seed", "5", "--count", "10", "--iterations",
                          "20", "--report", str(p)]) == 0
        m = load_manifest(p)
        assert m["config"]["seed"] == 5

    def test_flag_validation(self, capsys):
        from repro.cli import fuzz_main

        for bad in (["--count", "0"], ["--tolerance", "-1"],
                    ["--jobs", "0"], ["--backends", "model"],
                    ["--backends", "model,nope"]):
            with pytest.raises(SystemExit):
                fuzz_main(["--seed", "1", "--count", "4", *bad])
            capsys.readouterr()


@pytest.mark.slow
class TestFuzzSmoke:
    """The ``make test-fuzz`` 1,000-kernel smoke sweep (slow-marked)."""

    def test_thousand_kernel_sweep(self):
        corpus = generate_fuzz_corpus(42, 1000)
        eng = CorpusEngine(jobs=4, error_policy="collect",
                           retry_backoff=0.001)
        result = run_differential(
            corpus, seed=42, iterations=ITERATIONS, engine=eng
        )
        m = build_triage_manifest(result)
        stats = m["benchmarks"]["fuzz"]["stats"]
        # the sweep completes: every kernel is checked, degraded, or a
        # structured failure — nothing hangs, nothing disappears
        assert stats["kernels"] == 1000
        assert (
            stats["checked"] + stats["degraded_units"] + stats["failed_units"]
            == 1000
        )
        t = eng.totals
        assert t.cache_hits + t.evaluated + t.failed == t.total_units
        # ranking order is stable and strictly sorted by spread
        divs = m["benchmarks"]["fuzz"]["divergences"]
        spreads = [d["spread"] for d in divs]
        assert spreads == sorted(spreads, reverse=True)
