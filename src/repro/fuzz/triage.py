"""Triage: turn a differential sweep into a gateable run-report.

The triage report is an ordinary run-report manifest
(``repro-run-report/1``, :mod:`repro.obs.report`), so the existing
``repro-report`` differ gates on it unchanged: ``divergent``,
``divergence_rate``, ``max_divergence``, ``degraded_units`` and
``failed_units`` are lower-is-better stats, per-signature clusters are
nested stats, and engine unit failures ride in ``unit_failures``.
Committing a triage manifest as a baseline makes *new* divergences —
a modeling change that breaks backend agreement on any mutation class —
a CI failure.

Determinism is load-bearing: the manifest deliberately excludes wall
time, creation timestamps, and job counts, so the same ``(seed, count,
backends, tolerance)`` sweep produces a **hash-identical** manifest at
any ``--jobs``, with or without a warm cache, and under healing
injected faults.  :func:`manifest_digest` is the canonical hash.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..engine.cachekey import ENGINE_VERSION
from ..obs.report import SCHEMA, collect_model_digests, load_manifest, write_manifest
from .harness import DifferentialResult

__all__ = [
    "build_triage_manifest",
    "manifest_digest",
    "render_triage",
    "load_manifest",
    "write_manifest",
]

#: divergences listed in full detail; the rest are counted in clusters
DETAIL_LIMIT = 50


def _cluster_stats(result: DifferentialResult) -> dict[str, dict[str, Any]]:
    """Per-mutation-signature divergence clusters (nested stats)."""
    clusters: dict[str, dict[str, Any]] = {}
    for d in result.divergences:
        c = clusters.setdefault(
            d.signature, {"divergent": 0, "max_divergence": 0.0}
        )
        c["divergent"] += 1
        c["max_divergence"] = round(max(c["max_divergence"], d.spread), 9)
    return {sig: clusters[sig] for sig in sorted(clusters)}


def build_triage_manifest(
    result: DifferentialResult,
    *,
    isa: str = "both",
    detail_limit: int = DETAIL_LIMIT,
) -> dict[str, Any]:
    """The deterministic triage manifest for one differential sweep.

    ``benchmarks.fuzz.stats`` carries the gateable numbers (all
    direction-classified by the differ); ``benchmarks.fuzz.divergences``
    carries the ranked detail list (top ``detail_limit``); failed units
    ride in the standard ``unit_failures`` section keyed by label.
    """
    failures = sorted(
        (f.to_json() for f in (result.engine.failures if result.engine else [])),
        key=lambda f: f.get("label", ""),
    )
    max_div = result.divergences[0].spread if result.divergences else 0.0
    stats: dict[str, Any] = {
        "kernels": len(result.corpus),
        "checked": result.checked,
        "agreements": result.agreements,
        "divergent": len(result.divergences),
        "divergence_rate": round(result.divergence_rate, 9),
        "max_divergence": round(max_div, 9),
        "degraded_units": len(result.degraded),
        "failed_units": len(failures),
    }
    clusters = _cluster_stats(result)
    if clusters:
        stats["clusters"] = clusters
    manifest: dict[str, Any] = {
        "schema": SCHEMA,
        "command": (
            f"repro-fuzz --seed {result.seed} --count {len(result.corpus)}"
        ),
        "engine_version": ENGINE_VERSION,
        "config": {
            "seed": result.seed,
            "count": len(result.corpus),
            "isa": isa,
            "backends": list(result.backends),
            "tolerance": result.tolerance,
        },
        "machine_models": collect_model_digests(),
        "benchmarks": {
            "fuzz": {
                "status": "ok",
                "stats": stats,
                "divergences": [
                    d.to_json() for d in result.divergences[:detail_limit]
                ],
                "degraded": list(result.degraded),
            }
        },
        "failures": [],
    }
    if failures:
        manifest["unit_failures"] = failures
    return manifest


def manifest_digest(manifest: dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON form — the reproducibility hash."""
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def render_triage(manifest: dict[str, Any], *, limit: int = 10) -> str:
    """Human-readable triage summary for the CLI."""
    bench = manifest["benchmarks"]["fuzz"]
    stats = bench["stats"]
    cfg = manifest["config"]
    lines = [
        f"fuzz sweep: seed={cfg['seed']} count={cfg['count']} "
        f"backends={','.join(cfg['backends'])} tolerance={cfg['tolerance']}",
        f"  checked {stats['checked']}/{stats['kernels']} kernels: "
        f"{stats['agreements']} agree, {stats['divergent']} diverge "
        f"(rate {stats['divergence_rate']:.3f}), "
        f"{stats['degraded_units']} degraded, "
        f"{stats['failed_units']} failed",
    ]
    clusters = stats.get("clusters", {})
    if clusters:
        lines.append("  divergence clusters by mutation signature:")
        ranked = sorted(
            clusters.items(),
            key=lambda kv: (-kv[1]["divergent"], kv[0]),
        )
        for sig, c in ranked[:limit]:
            lines.append(
                f"    {sig:<40} {c['divergent']:>5} divergent, "
                f"max {c['max_divergence']:.3f}"
            )
    divs = bench.get("divergences", [])
    if divs:
        lines.append(f"  top divergences (of {stats['divergent']}):")
        for d in divs[:limit]:
            vals = ", ".join(
                f"{k}={v:.3f}" for k, v in sorted(d["values"].items())
            )
            lines.append(f"    {d['spread']:.3f}  {d['label']}  [{vals}]")
    lines.append(f"  manifest digest: {manifest_digest(manifest)}")
    return "\n".join(lines)
