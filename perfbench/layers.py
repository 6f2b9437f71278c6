"""Per-layer metrics, derived from the spans of a traced run.

Counts and times are per operation — one sweep, or one served request
for ``serve_mixed`` — so runs of different lengths compare directly.
Layers a workload does not exercise read 0.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from .stats import percentile
from .tracing import Span, self_times, union_ns

#: every per-layer metric with its unit, in report order
PER_LAYER = {
    "kernels.enumerate.calls": "calls/op",
    "kernels.enumerate.self_s": "s/op",
    "isa.parse.calls": "calls/op",
    "isa.parse.self_s": "s/op",
    "lowering.lower.calls": "calls/op",
    "lowering.lower.self_s": "s/op",
    "lowering.memo_hit_ratio": "ratio",
    "simulator.plan.calls": "calls/op",
    "simulator.plan.self_s": "s/op",
    "simulator.steadystate.calls": "calls/op",
    "simulator.steadystate.self_s": "s/op",
    "simulator.steadystate.confident_ratio": "ratio",
    "simulator.engine.calls": "calls/op",
    "simulator.engine.self_s": "s/op",
    "simulator.engine.sim_instr": "instr/op",
    "simulator.engine.sim_instr_per_s": "instr/s",
    "simulator.engine.unique_ratio": "ratio",
    "analysis.model.calls": "calls/op",
    "analysis.model.self_s": "s/op",
    "mca.calls": "calls/op",
    "mca.self_s": "s/op",
    "engine.batches": "batches/op",
    "engine.units.self_s": "s/op",
    "engine.cache_key.self_s": "s/op",
    "engine.cache.get.self_s": "s/op",
    "engine.cache.put.self_s": "s/op",
    "engine.cache.hit_ratio": "ratio",
    "engine.evaluate.calls": "calls/op",
    "engine.evaluate.busy_s": "s/op",
    "engine.unique_key_ratio": "ratio",
    "engine.worker_utilization": "ratio",
    "engine.pool.spawns": "spawns/op",
    "engine.pool.spawn_s": "s/op",
    "engine.pool.overhead_s": "s/op",
    "serve.parse.self_s": "s/op",
    "serve.batches": "batches/op",
    "serve.batch_size_mean": "units",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p99": "ms",
    "serve.engine_ms_p50": "ms",
    "serve.unattributed_ms_p50": "ms",
    "serve.hot_blocked_ratio": "ratio",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

_POOL_SPANS = ("engine.pool.spawn", "engine.pool.terminate", "engine.pool.join")
_CACHE_SPANS = ("engine.cache_key", "engine.cache.get", "engine.cache.put")


@dataclass(frozen=True)
class ClientRequest:
    """One traced request as the client saw it."""

    rid: str
    t0: int
    t1: int
    cached: bool


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def coverage(
    spans: Iterable[Span], pid: int, windows: Iterable[tuple[int, int, int]]
) -> float:
    """Share of the timed windows ``(tid, t0, t1)`` covered by root spans
    of process *pid* on the window's thread."""
    roots: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.pid == pid and not s.parent:
            roots[s.tid].append((s.t0, s.t1))
    covered = total = 0
    for tid, w0, w1 in windows:
        total += w1 - w0
        covered += union_ns(
            (max(a, w0), min(b, w1)) for a, b in roots[tid] if b > w0 and a < w1
        )
    return _ratio(covered, total)


def busy_seconds(spans: Iterable[Span]) -> tuple[float, float]:
    """(summed ``engine.evaluate`` span time, summed
    ``EngineMetrics.busy_seconds`` of the batches), in seconds."""
    evaluate = engine = 0.0
    for s in spans:
        if s.name == "engine.evaluate":
            evaluate += s.dur / 1e9
        elif s.name == "engine.run" and s.args:
            engine += s.args["busy_s"]
    return evaluate, engine


def window_of(windows: list[tuple[int, int]], t: int) -> int:
    """Index of the window (sorted, disjoint) holding time *t*, or -1."""
    i = bisect.bisect_right(windows, (t, float("inf"))) - 1
    return i if i >= 0 and windows[i][0] <= t <= windows[i][1] else -1


def _distinct_share(spans: list[Span], key, windows) -> float:
    """Distinct keys ÷ spans, counting distinct keys within each window
    (a repeated sweep repeats its keys; that is not shared work)."""
    seen: dict[int, set] = defaultdict(set)
    for s in spans:
        seen[window_of(windows, s.t0)].add(key(s))
    return _ratio(sum(len(v) for v in seen.values()), len(spans))


def layer_metrics(
    spans: list[Span],
    ops: int,
    windows: list[tuple[int, int]],
    *,
    overhead: float,
    coverage_ratio: float,
    requests: Optional[list[ClientRequest]] = None,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the spans of *ops* operations
    timed in *windows* (one per sweep, or one for a serving run)."""
    ops = max(ops, 1)
    selfs = self_times(spans)
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def calls(name: str) -> float:
        return len(by[name]) / ops

    def self_s(*names: str) -> float:
        return sum(selfs[(s.pid, s.sid)] for n in names for s in by[n]) / 1e9 / ops

    def dur_s(*names: str) -> float:
        return sum(s.dur for n in names for s in by[n]) / 1e9 / ops

    m: dict[str, float] = {}
    for layer in ("kernels.enumerate", "isa.parse", "lowering.lower",
                  "simulator.plan", "simulator.steadystate",
                  "simulator.engine", "analysis.model", "mca"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)

    parsed = {(s.pid, s.parent) for s in by["isa.parse"]}
    lowers = by["lowering.lower"]
    m["lowering.memo_hit_ratio"] = _ratio(
        sum((s.pid, s.sid) not in parsed for s in lowers), len(lowers)
    )
    steady = by["simulator.steadystate"]
    m["simulator.steadystate.confident_ratio"] = _ratio(
        sum(bool(s.args and s.args["confident"]) for s in steady), len(steady)
    )
    engine_runs = by["simulator.engine"]
    instr = sum(s.args["instr"] for s in engine_runs if s.args)
    m["simulator.engine.sim_instr"] = instr / ops
    m["simulator.engine.sim_instr_per_s"] = _ratio(
        instr, sum(s.dur for s in engine_runs) / 1e9
    )
    m["simulator.engine.unique_ratio"] = _distinct_share(
        engine_runs, lambda s: s.args and s.args["key"], windows
    )

    batches = by["engine.run"]
    m["engine.batches"] = calls("engine.run")
    m["engine.units.self_s"] = self_s("engine.units")
    m["engine.cache_key.self_s"] = self_s("engine.cache_key")
    m["engine.cache.get.self_s"] = self_s("engine.cache.get")
    m["engine.cache.put.self_s"] = self_s("engine.cache.put")
    gets = by["engine.cache.get"]
    m["engine.cache.hit_ratio"] = _ratio(sum(s.args is True for s in gets), len(gets))
    evals = by["engine.evaluate"]
    m["engine.evaluate.calls"] = calls("engine.evaluate")
    m["engine.evaluate.busy_s"] = dur_s("engine.evaluate")
    m["engine.unique_key_ratio"] = _distinct_share(evals, lambda s: s.args, windows)
    evaluated = [b for b in batches if b.args and b.args["evaluated"]]
    m["engine.worker_utilization"] = _ratio(
        sum(b.args["busy_s"] for b in evaluated),
        sum(b.args["jobs"] * b.dur / 1e9 for b in evaluated),
    )

    m["engine.pool.spawns"] = calls("engine.pool.spawn")
    m["engine.pool.spawn_s"] = dur_s(*_POOL_SPANS)
    children: dict[tuple[int, int], list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent and s.name in _POOL_SPANS + _CACHE_SPANS:
            children[(s.pid, s.parent)].append(s)
    overhead_ns = 0.0
    for b in batches:
        kids = children.get((b.pid, b.sid), [])
        if b.args and any(k.name == "engine.pool.spawn" for k in kids):
            cache_ns = sum(k.dur for k in kids if k.name in _CACHE_SPANS)
            overhead_ns += b.dur - cache_ns - b.args["busy_s"] * 1e9 / b.args["jobs"]
    m["engine.pool.overhead_s"] = overhead_ns / 1e9 / ops

    m.update(_serve_metrics(selfs, by, requests or [], ops))
    m["trace.overhead"] = overhead
    m["trace.coverage"] = coverage_ratio
    return {name: float(m[name]) for name in PER_LAYER}


def _serve_metrics(selfs, by, requests, ops) -> dict[str, float]:
    m = {
        "serve.parse.self_s": sum(
            selfs[(s.pid, s.sid)] for s in by["serve.parse"]
        ) / 1e9 / ops,
    }
    batches = [b for b in by["engine.run"] if b.args and "rids" in b.args]
    m["serve.batches"] = len(batches) / ops
    m["serve.batch_size_mean"] = _ratio(
        sum(len(b.args["rids"]) for b in batches), len(batches)
    )
    parse = {s.rid: s for s in by["serve.parse"]}
    batch_of = {rid: b for b in batches for rid, _ in b.args["rids"]}
    miss_batches = [
        b for b in batches if any(c is False for _, c in b.args["rids"])
    ]
    waits, engine, unattributed = [], [], []
    hits = blocked = 0
    for r in requests:
        p = parse.get(r.rid)
        b = batch_of.get(r.rid)
        if p is None or b is None:
            continue
        wait = b.t0 - p.t1
        waits.append(wait / 1e6)
        engine.append(b.dur / 1e6)
        unattributed.append((r.t1 - r.t0 - p.dur - wait - b.dur) / 1e6)
        if r.cached:
            # blocked: the hit shared its batch with a miss, or queued
            # while a batch holding a miss ran
            hits += 1
            blocked += any(
                m is b or (m.t1 > p.t1 and m.t0 < b.t0) for m in miss_batches
            )
    m["serve.queue_wait_ms_p50"] = percentile(waits, 50) if waits else 0.0
    m["serve.queue_wait_ms_p99"] = percentile(waits, 99) if waits else 0.0
    m["serve.engine_ms_p50"] = percentile(engine, 50) if engine else 0.0
    m["serve.unattributed_ms_p50"] = (
        percentile(unattributed, 50) if unattributed else 0.0
    )
    m["serve.hot_blocked_ratio"] = _ratio(blocked, hits)
    return m
