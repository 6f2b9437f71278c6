"""Counter/gauge/histogram registry with snapshot/delta semantics.

One :class:`MetricsRegistry` absorbs the numbers every layer used to
report ad hoc — the engine's :class:`~repro.engine.pool.EngineMetrics`,
the serving daemon's counters, benchmark wall times — behind a single
API with two exporters (aligned text and JSON).

Naming convention (see ``docs/observability.md``): dotted lowercase
paths, ``<layer>.<subject>[_<unit>]``::

    engine.units_total        counter    work units submitted
    engine.cache_hits         counter    resolved from the result cache
    engine.unit_seconds       histogram  per-unit evaluation time

Snapshots are plain dicts; :meth:`MetricsRegistry.delta` subtracts an
earlier snapshot so callers can report "what this run added" even when
the registry is process-global.
"""

from __future__ import annotations

import bisect
import json
from typing import Any, Optional, Sequence

from ..context import current_context

#: default histogram bucket upper bounds — spans sub-millisecond unit
#: evaluations through multi-minute sweeps
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)

#: bucket bounds for request-latency histograms (``repro-serve``):
#: finer sub-100ms resolution than :data:`DEFAULT_BUCKETS` so p50/p99
#: of cache-hit responses interpolate within narrow buckets instead of
#: smearing across one
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount

    def dump(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value, "help": self.help}


class Gauge:
    """Point-in-time value (last write wins)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def dump(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value, "help": self.help}


class Histogram:
    """Bucketed distribution with count/sum/min/max.

    Buckets are cumulative upper bounds (plus an implicit ``+inf``);
    :meth:`quantile` interpolates linearly within the winning bucket,
    which is exact enough for reporting p50/p95 of unit runtimes.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "bucket_counts", "count",
                 "total", "min", "max")

    def __init__(
        self, name: str, help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(buckets or DEFAULT_BUCKETS))
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (0..1) from the bucket histogram.

        Total by construction: an empty histogram reports 0.0, a
        single sample (or a degenerate min==max distribution) reports
        that sample, and ``q`` is clamped to [0, 1] — so exports can
        call this unconditionally.
        """
        if not self.count:
            return 0.0
        if self.count == 1 or self.min == self.max:
            return self.min
        target = min(1.0, max(0.0, q)) * self.count
        seen = 0
        lo = 0.0
        for i, n in enumerate(self.bucket_counts):
            hi = self.bounds[i] if i < len(self.bounds) else self.max
            if n and seen + n >= target:
                frac = (target - seen) / n
                # interpolate strictly within the observed range: the
                # winning bucket's bounds may be wider than the data
                hi = min(hi, self.max)
                lo = min(max(lo, self.min), hi)
                return lo + frac * max(0.0, hi - lo)
            seen += n
            if i < len(self.bounds):
                lo = self.bounds[i]
        return self.max

    def dump(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "buckets": {
                ("+inf" if i == len(self.bounds) else repr(self.bounds[i])): n
                for i, n in enumerate(self.bucket_counts)
            },
            "help": self.help,
        }


class MetricsRegistry:
    """Named metrics, created on first use and dumped as plain data."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, help: str, **kwargs):
        m = self._metrics.get(name)
        if m is None:
            # one atomic store: of two threads creating the same name,
            # both keep the object stored first
            m = self._metrics.setdefault(name, cls(name, help, **kwargs))
        if not isinstance(m, cls):
            raise ValueError(
                f"metric {name!r} already registered as {m.kind}, "
                f"not {cls.kind}"
            )
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def absorb(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Add the counters of another registry's :meth:`snapshot` to
        this registry's (the engine's attempts count into a fresh
        registry each and are added to the run's as they land; no
        attempt records a gauge or a histogram)."""
        for name, m in snapshot.items():
            if m["type"] == "counter":
                self.counter(name, m["help"]).inc(m["value"])

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Plain-data dump of every metric, sorted by name."""
        return {name: self._metrics[name].dump()
                for name in sorted(self._metrics)}

    def delta(
        self, since: dict[str, dict[str, Any]]
    ) -> dict[str, dict[str, Any]]:
        """What changed between ``since`` (an earlier snapshot) and now.

        Counters and histogram count/sum subtract; gauges report their
        current value; metrics absent from ``since`` appear whole.
        Unchanged metrics are omitted.
        """
        out: dict[str, dict[str, Any]] = {}
        for name, cur in self.snapshot().items():
            base = since.get(name)
            if base is None:
                out[name] = cur
                continue
            if cur["type"] == "counter":
                d = cur["value"] - base.get("value", 0.0)
                if d:
                    out[name] = {**cur, "value": d}
            elif cur["type"] == "histogram":
                dc = cur["count"] - base.get("count", 0)
                if dc:
                    out[name] = {
                        **cur,
                        "count": dc,
                        "sum": cur["sum"] - base.get("sum", 0.0),
                    }
            else:  # gauge: last write wins, report if it moved
                if cur["value"] != base.get("value"):
                    out[name] = cur
        return out

    def render_text(
        self, snapshot: Optional[dict[str, dict[str, Any]]] = None
    ) -> str:
        """Aligned ``name value`` lines (histograms: summary stats)."""
        snap = self.snapshot() if snapshot is None else snapshot
        if not snap:
            return "(no metrics recorded)"
        width = max(len(n) for n in snap)
        lines = []
        for name, m in snap.items():
            if m["type"] == "histogram":
                quant = (
                    f"p50={m['p50']:.6g} p95={m['p95']:.6g} "
                    if "p50" in m
                    else ""
                )
                val = (
                    f"count={m['count']} mean={m['mean']:.6g} {quant}"
                    f"min={m['min']:.6g} max={m['max']:.6g}"
                )
            else:
                val = f"{m['value']:.6g}"
            lines.append(f"{name:<{width}}  {val}")
        return "\n".join(lines)

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Adapters for the pre-existing ad-hoc metric sources; without an
# explicit registry they record into the run context's
# ---------------------------------------------------------------------------


def record_engine_metrics(
    m, registry: Optional[MetricsRegistry] = None
) -> None:
    """Absorb one :class:`~repro.engine.pool.EngineMetrics` batch."""
    # `registry or ...` would discard an *empty* registry (len() == 0)
    reg = registry if registry is not None else current_context().metrics
    reg.counter("engine.units_total", "work units submitted").inc(
        m.total_units
    )
    reg.counter("engine.cache_hits", "units resolved from cache").inc(
        m.cache_hits
    )
    reg.counter("engine.units_evaluated", "units actually computed").inc(
        m.evaluated
    )
    if m.failed:
        reg.counter(
            "engine.units_failed", "units that exhausted their retry budget"
        ).inc(m.failed)
    if m.coalesced:
        reg.counter(
            "engine.units_coalesced",
            "units that shared a same-key unit's evaluation",
        ).inc(m.coalesced)
    if m.retries:
        reg.counter(
            "engine.unit_retries", "re-dispatches after transient failures"
        ).inc(m.retries)
    if m.degraded:
        reg.counter(
            "engine.units_degraded", "partial results (a backend failed)"
        ).inc(m.degraded)
    if m.worker_respawns:
        reg.counter(
            "engine.worker_respawns",
            "workers replaced after dying or being killed at a deadline"
        ).inc(m.worker_respawns)
    if m.cache_write_errors:
        reg.counter(
            "engine.cache_write_errors", "absorbed result-cache write failures"
        ).inc(m.cache_write_errors)
    if m.cache_corrupt:
        reg.counter(
            "engine.cache_corrupt", "corrupt cache entries quarantined"
        ).inc(m.cache_corrupt)
    reg.counter("engine.wall_seconds", "batch wall time").inc(m.wall_seconds)
    reg.counter("engine.busy_seconds", "summed evaluation time").inc(
        m.busy_seconds
    )
    reg.gauge("engine.jobs", "worker processes of the last batch").set(m.jobs)
    h = reg.histogram("engine.unit_seconds", "per-unit evaluation time")
    for s in m.unit_seconds:
        h.observe(s)
