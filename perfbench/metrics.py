"""End-to-end metrics: names, units, directions and regression bounds.

``BENCHMARK.json`` lists the metrics every workload reports (the ones a
run prints on its last line).  The metrics that apply to the serving
workload only, and the error rate, are reported beside them by
``run``/``compare``; their bounds live here.  A test keeps both tables
in step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import ROOT


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: "lower" or "higher"
    better: str
    #: how far the median may worsen before it counts as a regression:
    #: a share of the baseline median, or an absolute amount
    bound: float
    absolute: bool = False
    #: the workloads that report it (None: all)
    workloads: Optional[tuple[str, ...]] = None


#: metrics every workload reports, as listed in BENCHMARK.json.  The
#: timing bound is wide because the host is shared: see README.md.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("units_per_s", "units/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)

_SERVE = ("serve_mixed",)

#: reported beside them; ``error_rate`` is 0 on a healthy run, so any
#: rise is a regression
EXTRA = (
    Metric("latency_p50_ms", "ms", "lower", 0.25, workloads=_SERVE),
    Metric("latency_p99_ms", "ms", "lower", 0.25, workloads=_SERVE),
    Metric("hot_p99_ms", "ms", "lower", 0.25, workloads=_SERVE),
    Metric("cold_p50_ms", "ms", "lower", 0.25, workloads=_SERVE),
    Metric("cold_p90_ms", "ms", "lower", 0.25, workloads=_SERVE),
    Metric("error_rate", "ratio", "lower", 0.0, absolute=True),
)


def load_benchmark(path: Path = ROOT / "BENCHMARK.json") -> dict:
    return json.loads(Path(path).read_text())


def metric_table(benchmark: Optional[dict] = None) -> dict[str, Metric]:
    """Every end-to-end metric by name, bounds from BENCHMARK.json where
    it lists the metric."""
    table = {m.name: m for m in END_TO_END + EXTRA}
    for entry in (benchmark or {}).get("end_to_end", []):
        table[entry["name"]] = Metric(
            entry["name"], entry["unit"], entry["better"], entry["bound"]
        )
    return table
