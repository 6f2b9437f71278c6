"""The deterministic fault-injection harness (``repro.faults``).

Determinism is the load-bearing property: whether a given event faults
must be a pure function of ``(seed, site, label, attempt)`` so a chaos
schedule replays identically at any parallelism.  The end-to-end
engine-under-faults scenarios live in ``test_engine_chaos.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import current_context, use_context
from repro.faults import (
    CRASH_EXIT_CODE,
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedPermanentFault,
)


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="explode")

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(site="evaluate", rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(site="evaluate", rate=-0.1)
        FaultSpec(site="evaluate", rate=0.0)
        FaultSpec(site="evaluate", rate=1.0)

    def test_sites_cover_the_documented_surface(self):
        assert set(FAULT_SITES) == {
            "evaluate", "hang", "exit", "cache.put", "cache.corrupt",
        }


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        labels = [f"unit{i}" for i in range(200)]
        p1 = FaultPlan([FaultSpec(site="evaluate", rate=0.1)], seed=42)
        p2 = FaultPlan([FaultSpec(site="evaluate", rate=0.1)], seed=42)
        s1 = [p1.would_fault("evaluate", lb) for lb in labels]
        s2 = [p2.would_fault("evaluate", lb) for lb in labels]
        assert s1 == s2
        assert any(s1) and not all(s1)  # a 10% rate hits some, not all

    def test_different_seed_different_schedule(self):
        labels = [f"unit{i}" for i in range(200)]
        a = FaultPlan([FaultSpec(site="evaluate", rate=0.5)], seed=1)
        b = FaultPlan([FaultSpec(site="evaluate", rate=0.5)], seed=2)
        assert [a.would_fault("evaluate", lb) for lb in labels] != [
            b.would_fault("evaluate", lb) for lb in labels
        ]

    def test_schedule_is_order_independent(self):
        plan = FaultPlan([FaultSpec(site="evaluate", rate=0.3)], seed=9)
        labels = [f"u{i}" for i in range(50)]
        fwd = {lb: plan.would_fault("evaluate", lb) for lb in labels}
        rev = {lb: plan.would_fault("evaluate", lb) for lb in reversed(labels)}
        assert fwd == rev

    def test_rate_roughly_calibrated(self):
        plan = FaultPlan([FaultSpec(site="evaluate", rate=0.1)], seed=0)
        n = sum(
            plan.would_fault("evaluate", f"k{i}") for i in range(2000)
        )
        assert 120 < n < 280  # ~200 expected; sha256 draws are uniform

    @given(
        seed=st.integers(0, 2**32),
        label=st.text(min_size=1, max_size=20),
        attempt=st.integers(0, 5),
        rate=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_would_fault_is_pure(self, seed, label, attempt, rate):
        mk = lambda: FaultPlan(
            [FaultSpec(site="evaluate", rate=rate)], seed=seed
        )
        assert mk().would_fault("evaluate", label, attempt) == mk().would_fault(
            "evaluate", label, attempt
        )

    def test_rate_zero_never_rate_one_always(self):
        never = FaultPlan([FaultSpec(site="evaluate", rate=0.0)])
        always = FaultPlan([FaultSpec(site="evaluate", rate=1.0)])
        for i in range(50):
            assert not never.would_fault("evaluate", f"u{i}")
            assert always.would_fault("evaluate", f"u{i}")


class TestTargeting:
    def test_match_restricts_to_label_substring(self):
        plan = FaultPlan([FaultSpec(site="evaluate", match="victim")])
        assert plan.would_fault("evaluate", "the-victim-unit")
        assert not plan.would_fault("evaluate", "innocent")

    def test_attempts_restriction(self):
        plan = FaultPlan([FaultSpec(site="evaluate", attempts=(0,))])
        assert plan.would_fault("evaluate", "u", 0)
        assert not plan.would_fault("evaluate", "u", 1)  # heals on retry

    def test_site_isolation(self):
        plan = FaultPlan([FaultSpec(site="cache.put")])
        assert not plan.would_fault("evaluate", "u")
        assert plan.would_fault("cache.put", "u")

    def test_max_triggers_bounds_firings(self):
        plan = FaultPlan([FaultSpec(site="evaluate", max_triggers=2)])
        fired = [
            plan.spec_for("evaluate", f"u{i}") is not None for i in range(5)
        ]
        assert fired == [True, True, False, False, False]

    def test_first_matching_spec_wins(self):
        plan = FaultPlan(
            [
                FaultSpec(site="evaluate", match="special",
                          error_type="permanent"),
                FaultSpec(site="evaluate"),
            ]
        )
        assert plan.spec_for("evaluate", "special-u").error_type == "permanent"
        assert plan.spec_for("evaluate", "plain").error_type == "transient"


class TestFiring:
    def test_evaluate_raises_by_error_type(self):
        plan = FaultPlan([FaultSpec(site="evaluate")])
        with pytest.raises(InjectedFault, match="injected transient"):
            plan.fire_worker_site("u", 0)
        plan2 = FaultPlan(
            [FaultSpec(site="evaluate", error_type="permanent")]
        )
        with pytest.raises(InjectedPermanentFault):
            plan2.fire_worker_site("u", 0)

    def test_injected_faults_classify_correctly(self):
        from repro.engine import classify

        assert classify(InjectedFault("x")) == "transient"
        assert classify(InjectedPermanentFault("x")) == "permanent"

    def test_cache_put_raises_oserror(self):
        plan = FaultPlan([FaultSpec(site="cache.put")])
        with pytest.raises(OSError, match="injected cache write"):
            plan.fire_cache_put("u")
        assert FaultPlan([]).should_corrupt("u") is False

    def test_hang_sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr("time.sleep", slept.append)
        plan = FaultPlan([FaultSpec(site="hang", hang_seconds=7.5)])
        plan.fire_worker_site("u", 0)
        assert slept == [7.5]

    def test_exit_kills_the_process(self, monkeypatch):
        codes = []
        monkeypatch.setattr("os._exit", codes.append)
        FaultPlan([FaultSpec(site="exit")]).fire_worker_site("u", 0)
        assert codes == [CRASH_EXIT_CODE]

    def test_no_spec_is_a_noop(self):
        FaultPlan([]).fire_worker_site("u", 0)
        FaultPlan([]).fire_cache_put("u")


class TestAmbientPlan:
    def test_use_plan_installs_and_restores(self):
        assert current_context().faults is None
        plan = FaultPlan([FaultSpec(site="evaluate")])
        with use_context(faults=plan) as ctx:
            assert current_context().faults is ctx.faults is plan
        assert current_context().faults is None

    def test_nesting_restores_outer(self):
        outer = FaultPlan([], seed=1)
        inner = FaultPlan([], seed=2)
        with use_context(faults=outer):
            with use_context(faults=inner):
                assert current_context().faults is inner
            assert current_context().faults is outer

    def test_plans_are_picklable(self):
        # a plan crosses the pickle boundary with every task
        import pickle

        plan = FaultPlan(
            [FaultSpec(site="evaluate", rate=0.5, match="x")], seed=3
        )
        clone = pickle.loads(pickle.dumps(plan))
        for i in range(50):
            assert clone.would_fault("evaluate", f"u{i}") == plan.would_fault(
                "evaluate", f"u{i}"
            )
