"""``python -m perfbench compare A.json B.json`` — B (a change) against A
(its parent), one row per (metric, workload).

A row is

* **unresolved** when either side's spread (IQR ÷ median) is wider than
  the metric's bound — unless every run of B reads better than every
  run of A;
* **regressed** when B's median is worse than A's by more than the bound;
* **improved** when B wins at least 9 of every 10 paired runs (at least
  10 pairs; ties count for neither) and the medians differ by more than
  A's IQR;
* **unchanged** otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .metrics import Metric, load_benchmark, metric_table
from .stats import quartiles, relative_iqr

#: a gain needs this share of paired wins over at least MIN_PAIRS pairs
WIN_SHARE = 0.9
MIN_PAIRS = 10


@dataclass
class Row:
    workload: str
    metric: Metric
    a: tuple[float, float, float]
    b: tuple[float, float, float]
    wins: int
    pairs: int
    verdict: str


def _better(metric: Metric, x: float, y: float) -> bool:
    """Is *x* better than *y*?"""
    return x < y if metric.better == "lower" else x > y


def classify(metric: Metric, a: list[float], b: list[float]) -> tuple[str, int, int]:
    """(verdict, wins of B, pairs) for one (metric, workload) pair.

    Runs pair up in order: run *i* of A with run *i* of B.
    """
    (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
    pairs = min(len(a), len(b))
    wins = sum(_better(metric, y, x) for x, y in zip(a, b))
    if metric.absolute:
        spread = max(qa3 - qa1, qb3 - qb1)
        limit = metric.bound
    else:
        spread = max(relative_iqr(a), relative_iqr(b))
        limit = metric.bound * abs(ma)
    separated = all(_better(metric, y, x) for x in a for y in b)
    if spread > metric.bound and not separated:
        return "unresolved", wins, pairs
    worse_by = mb - ma if metric.better == "lower" else ma - mb
    if worse_by > limit:
        return "regressed", wins, pairs
    if (
        pairs >= MIN_PAIRS
        and wins >= WIN_SHARE * pairs
        and _better(metric, mb, ma)
        and abs(mb - ma) > qa3 - qa1
    ):
        return "improved", wins, pairs
    return "unchanged", wins, pairs


def load_results(path: Path) -> dict:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != "perfbench-results/1":
        raise ValueError(f"{path}: not a perfbench results file")
    return data


def compare(a: dict, b: dict, benchmark: Optional[dict] = None) -> list[Row]:
    table = metric_table(benchmark)
    rows = []
    for workload, runs_a in a["workloads"].items():
        runs_b = b["workloads"].get(workload)
        if not runs_b:
            continue
        for name, metric in table.items():
            va = [r["metrics"][name] for r in runs_a if name in r["metrics"]]
            vb = [r["metrics"][name] for r in runs_b if name in r["metrics"]]
            if not va or not vb:
                continue
            verdict, wins, pairs = classify(metric, va, vb)
            rows.append(Row(workload, metric, quartiles(va), quartiles(vb),
                            wins, pairs, verdict))
    return rows


def failed_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def render(rows: list[Row], a: dict, b: dict) -> str:
    def q(t: tuple[float, float, float]) -> str:
        return f"{t[1]:.6g} [{t[0]:.4g}, {t[2]:.4g}]"

    lines = [
        f"{'workload':<13} {'metric':<15} {'unit':<8} {'A median [Q1, Q3]':<32} "
        f"{'B median [Q1, Q3]':<32} {'change':>8} {'wins':>6}  verdict"
    ]
    for r in rows:
        change = (r.b[1] - r.a[1]) / abs(r.a[1]) if r.a[1] else 0.0
        lines.append(
            f"{r.workload:<13} {r.metric.name:<15} {r.metric.unit:<8} "
            f"{q(r.a):<32} {q(r.b):<32} {change:>+8.1%} "
            f"{r.wins:>2}/{r.pairs:<3}  {r.verdict}"
        )
    for workload in a["workloads"]:
        if workload in b["workloads"]:
            lines.append(
                f"{workload}: failed ops A {failed_share(a['workloads'][workload]):.4f}"
                f", B {failed_share(b['workloads'][workload]):.4f}"
            )
    return "\n".join(lines)


def main(path_a: Path, path_b: Path) -> int:
    a, b = load_results(path_a), load_results(path_b)
    rows = compare(a, b, load_benchmark())
    print(render(rows, a, b))
    return 1 if any(r.verdict == "regressed" for r in rows) else 0
