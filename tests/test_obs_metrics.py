"""Metrics registry: counter/gauge/histogram semantics, snapshot/delta,
exporters, the engine adapter, and the simulator's stall attribution."""

import json
import threading

import pytest

from repro.context import current_context, use_context
from repro.engine import CorpusEngine, EngineMetrics, WorkUnit
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    record_engine_metrics,
)
from repro.simulator import simulate_kernel

KERNEL = """
.L1:
    addq $8, %rax
    cmpq %rcx, %rax
    jb .L1
"""


class TestCounter:
    def test_inc_accumulates(self):
        c = MetricsRegistry().counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("n")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_set_replaces(self):
        g = MetricsRegistry().gauge("g")
        g.set(4)
        g.set(-2.5)
        assert g.value == -2.5


class TestHistogram:
    def test_observe_stats(self):
        h = MetricsRegistry().histogram("h")
        for v in (0.1, 0.2, 0.3, 0.4):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(0.25)
        assert h.min == pytest.approx(0.1)
        assert h.max == pytest.approx(0.4)

    def test_quantile_monotonic(self):
        h = MetricsRegistry().histogram("h")
        for v in (0.002, 0.02, 0.2, 2.0, 20.0):
            h.observe(v)
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_empty_histogram(self):
        h = MetricsRegistry().histogram("h")
        assert h.count == 0
        assert h.mean == 0.0

    def test_empty_quantile_is_zero(self):
        h = MetricsRegistry().histogram("h")
        for q in (0.0, 0.5, 0.95, 1.0):
            assert h.quantile(q) == 0.0
        d = h.dump()
        assert d["p50"] == 0.0 and d["p95"] == 0.0

    def test_single_sample_quantile_is_the_sample(self):
        h = MetricsRegistry().histogram("h")
        h.observe(0.042)
        # every quantile of a one-sample distribution is that sample —
        # not a bucket bound
        for q in (0.0, 0.5, 0.95, 1.0):
            assert h.quantile(q) == pytest.approx(0.042)

    def test_degenerate_distribution_quantile(self):
        h = MetricsRegistry().histogram("h")
        for _ in range(10):
            h.observe(3.0)
        assert h.quantile(0.5) == pytest.approx(3.0)
        assert h.quantile(0.99) == pytest.approx(3.0)

    def test_quantile_clamped_to_unit_interval(self):
        h = MetricsRegistry().histogram("h")
        for v in (0.002, 0.02, 0.2):
            h.observe(v)
        assert h.quantile(-0.5) <= h.quantile(0.0) <= h.min + 1e-12
        assert h.quantile(1.5) == h.quantile(1.0) == pytest.approx(h.max)

    def test_quantile_bounded_by_observed_range(self):
        # interpolation must never extrapolate past min/max even when
        # the winning bucket's bounds are wider than the data
        h = MetricsRegistry().histogram("h")
        for v in (0.006, 0.007, 0.009):
            h.observe(v)  # all land in the (0.005, 0.01] bucket
        for q in (0.1, 0.5, 0.9):
            assert h.min <= h.quantile(q) <= h.max

    def test_dump_and_render_include_percentiles(self):
        r = MetricsRegistry()
        h = r.histogram("h")
        for v in (0.1, 0.2, 0.3, 0.4):
            h.observe(v)
        d = h.dump()
        assert 0.1 <= d["p50"] <= 0.4
        assert d["p50"] <= d["p95"] <= 0.4
        text = r.render_text()
        assert "p50=" in text and "p95=" in text


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.gauge("b") is r.gauge("b")
        assert r.histogram("c") is r.histogram("c")

    def test_concurrent_creation_keeps_one_instance(self, monkeypatch):
        # both threads are past the lookup and build a counter each
        # before either stores it; the second store must not replace
        # the first, or one increment lands in a counter nobody reads
        barrier = threading.Barrier(2, timeout=10)
        init = Counter.__init__

        def held_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            barrier.wait()

        monkeypatch.setattr(Counter, "__init__", held_init)
        r = MetricsRegistry()
        threads = [
            threading.Thread(target=lambda: r.counter("x").inc())
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert r.counter("x").value == 2.0

    def test_kind_mismatch_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError, match="x"):
            r.gauge("x")
        with pytest.raises(ValueError):
            r.histogram("x")

    def test_snapshot_is_plain_json(self):
        r = MetricsRegistry()
        r.counter("a").inc(2)
        r.gauge("b").set(1.5)
        r.histogram("c").observe(0.1)
        snap = r.snapshot()
        json.dumps(snap)
        assert snap["a"]["value"] == 2
        assert snap["b"]["value"] == 1.5
        assert snap["c"]["count"] == 1

    def test_delta_subtracts_counters(self):
        r = MetricsRegistry()
        c = r.counter("a")
        c.inc(5)
        since = r.snapshot()
        c.inc(3)
        d = r.delta(since)
        assert d["a"]["value"] == 3

    def test_delta_omits_unchanged(self):
        r = MetricsRegistry()
        r.counter("a").inc(5)
        r.gauge("g").set(1)
        since = r.snapshot()
        r.counter("b").inc(1)
        d = r.delta(since)
        assert "a" not in d and "g" not in d
        assert d["b"]["value"] == 1

    def test_delta_reports_moved_gauge(self):
        r = MetricsRegistry()
        g = r.gauge("g")
        g.set(1)
        since = r.snapshot()
        g.set(4)
        assert r.delta(since)["g"]["value"] == 4

    def test_render_text_lists_all_metrics(self):
        r = MetricsRegistry()
        r.counter("engine.units_total").inc(7)
        r.histogram("engine.unit_seconds").observe(0.5)
        text = r.render_text()
        assert "engine.units_total" in text
        assert "engine.unit_seconds" in text

    def test_write_json(self, tmp_path):
        r = MetricsRegistry()
        r.counter("a").inc()
        path = tmp_path / "m.json"
        r.write_json(path)
        assert json.loads(path.read_text())["a"]["value"] == 1


class TestAmbientRegistry:
    def test_use_registry_scopes(self):
        outer = current_context().metrics
        assert outer is not None
        fresh = MetricsRegistry()
        with use_context(metrics=fresh):
            assert current_context().metrics is fresh
        assert current_context().metrics is outer


class TestAdapters:
    def test_record_engine_metrics(self):
        m = EngineMetrics(
            jobs=2, total_units=10, cache_hits=4, evaluated=6,
            wall_seconds=1.5, busy_seconds=2.0,
            unit_seconds=[0.1] * 6,
        )
        r = MetricsRegistry()
        record_engine_metrics(m, registry=r)
        snap = r.snapshot()
        assert snap["engine.units_total"]["value"] == 10
        assert snap["engine.cache_hits"]["value"] == 4
        assert snap["engine.units_evaluated"]["value"] == 6
        assert snap["engine.jobs"]["value"] == 2
        assert snap["engine.unit_seconds"]["count"] == 6

    def test_engine_run_publishes_to_ambient_registry(self):
        fresh = MetricsRegistry()
        unit = WorkUnit.make(
            "predict", label="k", backend="sim", uarch="zen4",
            assembly=KERNEL, opts={"iterations": 5, "warmup": 2},
        )
        with use_context(metrics=fresh):
            CorpusEngine(jobs=1).run([unit])
        snap = fresh.snapshot()
        assert snap["engine.units_total"]["value"] == 1
        assert snap["engine.units_evaluated"]["value"] == 1


class TestStallCollection:
    def test_collect_stalls_returns_causes(self):
        result = simulate_kernel(
            KERNEL, "zen4", iterations=10, warmup=2, collect_stalls=True
        )
        assert result.stall_cycles is not None
        assert set(result.stall_cycles) == {
            "rob", "dependency.reg", "dependency.mem", "port",
            "divider", "special", "branch", "retire",
        }
        assert all(v >= 0 for v in result.stall_cycles.values())

    def test_dependency_chain_attributed(self):
        # addq feeds cmpq feeds jb: register dependencies must show up
        result = simulate_kernel(
            KERNEL, "zen4", iterations=50, warmup=10, collect_stalls=True
        )
        assert result.stall_cycles["dependency.reg"] > 0


class TestEngineSummaryGuards:
    def test_zero_units(self):
        s = EngineMetrics(jobs=4).summary()
        assert "0 units" in s
        assert "nothing to evaluate" in s
        assert "%" not in s  # no bogus utilization/hit-rate figures

    def test_all_cache_hits_utilization_na(self):
        m = EngineMetrics(
            jobs=4, total_units=8, cache_hits=8, evaluated=0,
            wall_seconds=0.01,
        )
        s = m.summary()
        assert "cache hits 8/8 = 100%" in s
        assert "utilization n/a" in s

    def test_normal_batch_reports_percentages(self):
        m = EngineMetrics(
            jobs=2, total_units=4, cache_hits=1, evaluated=3,
            wall_seconds=1.0, busy_seconds=1.0,
        )
        s = m.summary()
        assert "utilization 50%" in s
        assert "cache hits 1/4 = 25%" in s
