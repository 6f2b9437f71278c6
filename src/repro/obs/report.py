"""Run-report manifests and the ``repro-report`` regression differ.

Every ``repro-bench ... --run-report r.json`` invocation writes a
structured manifest: what ran (config, experiment list), against what
(machine-model digests, engine version), how well (per-benchmark
accuracy statistics), and how fast (wall/CPU time, engine metrics).
``repro-report A.json B.json`` diffs two manifests and flags accuracy
or runtime regressions; ``--check`` turns regressions into a nonzero
exit code, making the pair a CI gate against a committed baseline.

Accuracy statistics come from each benchmark module's
``manifest_stats(result)`` hook (``bench/fig3.py`` et al.); modules
without one contribute a content digest so *any* change is still
visible in a diff, just not direction-classified.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Optional

SCHEMA = "repro-run-report/1"

#: substrings classifying a numeric stat's good direction.  Matched
#: against the final path component of the metric, first match wins.
_LOWER_IS_BETTER = (
    "rpe", "mape", "error", "off_by", "seconds", "misses", "violations",
    "skipped", "failed", "retries", "diverg", "degraded", "_share",
    "fallback", "timeouts", "rss",
)
_HIGHER_IS_BETTER = (
    "right_side", "within_", "hit_rate", "accuracy", "gflops", "ipc",
    "per_second", "speedup", "availability",
)


def jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses/tuples to JSON-safe structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def benchmark_stats(name: str, result: Any) -> dict[str, Any]:
    """Manifest statistics for one benchmark's structured result.

    Prefers the module's ``manifest_stats`` hook; falls back to a
    content digest of the JSON-able result so silent drift is still
    detected (as an unclassified "change", not a regression).
    """
    from ..bench import EXPERIMENTS

    mod = EXPERIMENTS.get(name)
    hook = getattr(mod, "manifest_stats", None)
    if hook is not None:
        return jsonable(hook(result))
    blob = json.dumps(jsonable(result), sort_keys=True, default=str)
    return {"result_digest": hashlib.sha256(blob.encode()).hexdigest()[:16]}


def collect_model_digests() -> dict[str, str]:
    """Content digests of every registered machine model."""
    from ..lowering import machine_model_digest
    from ..machine import available_models

    return {name: machine_model_digest(name) for name in available_models()}


def build_manifest(
    *,
    command: str,
    config: dict[str, Any],
    benchmarks: dict[str, dict[str, Any]],
    wall_seconds: float,
    cpu_seconds: float,
    engine=None,
    registry=None,
    failures: tuple[str, ...] | list[str] = (),
    unit_failures: Any = (),
) -> dict[str, Any]:
    """Assemble one run's manifest (plain JSON-able dict).

    ``failures`` names benchmarks that errored out whole;
    ``unit_failures`` carries the engine's per-unit
    :class:`~repro.engine.errors.UnitFailure` records (or their
    ``to_json`` dicts) from ``collect``/``quarantine`` runs — the diff
    treats a unit failing *now but not in the baseline* as a
    regression.
    """
    from ..engine.cachekey import ENGINE_VERSION

    manifest: dict[str, Any] = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "command": command,
        "engine_version": ENGINE_VERSION,
        "config": jsonable(config),
        "machine_models": collect_model_digests(),
        "timing": {
            "wall_seconds": wall_seconds,
            "cpu_seconds": cpu_seconds,
        },
        "benchmarks": jsonable(benchmarks),
        "failures": list(failures),
    }
    unit_failure_dicts = [
        f.to_json() if hasattr(f, "to_json") else dict(f)
        for f in unit_failures
    ]
    if unit_failure_dicts:
        manifest["unit_failures"] = unit_failure_dicts
    if engine is not None:
        t = engine.totals
        manifest["engine"] = {
            "jobs": t.jobs,
            "total_units": t.total_units,
            "cache_hits": t.cache_hits,
            "evaluated": t.evaluated,
            "coalesced": t.coalesced,
            "failed": t.failed,
            "retries": t.retries,
            "degraded": t.degraded,
            "worker_respawns": t.worker_respawns,
            "wall_seconds": t.wall_seconds,
            "busy_seconds": t.busy_seconds,
        }
    if registry is not None:
        manifest["metrics"] = registry.snapshot()
    return manifest


def write_manifest(manifest: dict[str, Any], path) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def load_manifest(path) -> dict[str, Any]:
    with open(path) as fh:
        manifest = json.load(fh)
    schema = manifest.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: not a run-report manifest "
            f"(schema {schema!r}, expected {SCHEMA!r})"
        )
    return manifest


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    """One observation from a manifest diff."""

    severity: str  #: "regression" | "improvement" | "change" | "note"
    benchmark: str
    metric: str
    baseline: Any
    current: Any
    detail: str = ""

    def render(self) -> str:
        span = ""
        if isinstance(self.baseline, float) and isinstance(self.current, float):
            span = f": {self.baseline:.6g} -> {self.current:.6g}"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.benchmark}/{self.metric}{span}{tail}"


@dataclass
class ManifestDiff:
    findings: list[Finding]
    compared_metrics: int

    @property
    def regressions(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = []
        by_sev: dict[str, list[Finding]] = {}
        for f in self.findings:
            by_sev.setdefault(f.severity, []).append(f)
        for sev, label in (
            ("regression", "REGRESSIONS"),
            ("improvement", "improvements"),
            ("change", "changes"),
            ("note", "notes"),
        ):
            sel = by_sev.get(sev)
            if not sel:
                continue
            lines.append(f"{label}:")
            lines.extend(f"  {f.render()}" for f in sel)
        n_reg = len(self.regressions)
        verdict = (
            f"FAIL: {n_reg} regression(s)" if n_reg else "OK: no regressions"
        )
        lines.append(
            f"{verdict} across {self.compared_metrics} compared metric(s)"
        )
        return "\n".join(lines)


def _direction(metric_path: str) -> Optional[bool]:
    """``True`` if lower is better, ``False`` if higher, ``None`` unknown."""
    leaf = metric_path.rsplit(".", 1)[-1]
    for pat in _LOWER_IS_BETTER:
        if pat in leaf:
            return True
    for pat in _HIGHER_IS_BETTER:
        if pat in leaf:
            return False
    return None


def _numeric_leaves(obj: Any, prefix: str = "") -> dict[str, Any]:
    """Flatten nested stats to ``dotted.path -> leaf`` (numbers + strings)."""
    out: dict[str, Any] = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_numeric_leaves(v, f"{prefix}{k}."))
    elif isinstance(obj, (int, float, str)) and not isinstance(obj, bool):
        out[prefix[:-1]] = obj
    return out


def _compare_stats(
    name: str,
    b_raw: Any,
    c_raw: Any,
    findings: list[Finding],
    accuracy_tolerance: float,
) -> int:
    """Classify every stat delta between two nested stat dicts.

    Returns the number of metrics compared; appends findings in place.
    """
    compared = 0
    b_stats = _numeric_leaves(b_raw)
    c_stats = _numeric_leaves(c_raw)
    for metric in sorted(set(b_stats) | set(c_stats)):
        bv, cv = b_stats.get(metric), c_stats.get(metric)
        if bv is None or cv is None:
            findings.append(
                Finding("change", name, metric, bv, cv,
                        "metric appeared/disappeared")
            )
            continue
        compared += 1
        if isinstance(bv, str) or isinstance(cv, str):
            if bv != cv:
                findings.append(Finding("change", name, metric, bv, cv))
            continue
        delta = float(cv) - float(bv)
        if abs(delta) <= accuracy_tolerance * max(1.0, abs(float(bv))):
            continue
        lower_better = _direction(metric)
        if lower_better is None:
            findings.append(Finding("change", name, metric,
                                    float(bv), float(cv)))
        elif (delta > 0) == lower_better:
            findings.append(Finding("regression", name, metric,
                                    float(bv), float(cv),
                                    "accuracy regression"))
        else:
            findings.append(Finding("improvement", name, metric,
                                    float(bv), float(cv)))
    return compared


def diff_manifests(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    accuracy_tolerance: float = 1e-6,
    runtime_tolerance: float = 0.25,
    min_runtime_seconds: float = 1.0,
) -> ManifestDiff:
    """Compare two manifests; classify every stat delta.

    A direction-classified numeric stat that worsens by more than
    ``accuracy_tolerance`` (relative to ``max(1, |baseline|)``) is a
    regression; improving likewise is an improvement.  Unclassified
    deltas are reported as changes.  A benchmark's ``seconds`` (and the
    run's total wall time) regresses when it grows by more than
    ``runtime_tolerance`` relative — but only when the baseline took at
    least ``min_runtime_seconds``, so micro-benchmark timing noise
    cannot fail a gate.
    """
    findings: list[Finding] = []
    compared = 0

    base_benches = baseline.get("benchmarks", {})
    cur_benches = current.get("benchmarks", {})

    for name in sorted(set(base_benches) | set(cur_benches)):
        b = base_benches.get(name)
        c = cur_benches.get(name)
        if b is None:
            findings.append(
                Finding("note", name, "presence", None, "present",
                        "benchmark not in baseline")
            )
            continue
        if c is None:
            findings.append(
                Finding("regression", name, "presence", "present", None,
                        "benchmark missing from current run")
            )
            continue
        if b.get("status") == "ok" and c.get("status") != "ok":
            findings.append(
                Finding("regression", name, "status", b.get("status"),
                        c.get("status"), c.get("error", ""))
            )
            continue

        # runtime
        bs, cs = b.get("seconds"), c.get("seconds")
        if (
            isinstance(bs, (int, float)) and isinstance(cs, (int, float))
            and bs >= min_runtime_seconds
        ):
            compared += 1
            if cs > bs * (1.0 + runtime_tolerance):
                findings.append(
                    Finding("regression", name, "seconds", float(bs),
                            float(cs), "runtime regression")
                )

        # accuracy / content stats
        compared += _compare_stats(
            name,
            b.get("stats") or {},
            c.get("stats") or {},
            findings,
            accuracy_tolerance,
        )

    # whole-run wall time
    bw = baseline.get("timing", {}).get("wall_seconds")
    cw = current.get("timing", {}).get("wall_seconds")
    if (
        isinstance(bw, (int, float)) and isinstance(cw, (int, float))
        and bw >= min_runtime_seconds
    ):
        compared += 1
        if cw > bw * (1.0 + runtime_tolerance):
            findings.append(
                Finding("regression", "(run)", "wall_seconds", float(bw),
                        float(cw), "total runtime regression")
            )

    # per-unit failures (collect/quarantine runs): a unit failing now
    # but not in the baseline is a robustness regression; a baseline
    # failure that resolved is an improvement.  Keyed by (kind, label)
    # so attempt counts/messages may vary without flapping the gate.
    def _failure_keys(manifest: dict[str, Any]) -> dict[tuple, dict]:
        return {
            (f.get("unit_kind", ""), f.get("label", "")): f
            for f in manifest.get("unit_failures", [])
        }

    bf = _failure_keys(baseline)
    cf = _failure_keys(current)
    for key in sorted(set(bf) | set(cf)):
        name = f"{key[0]}:{key[1]}"
        if key not in bf:
            f = cf[key]
            findings.append(
                Finding(
                    "regression", "(units)", name, None,
                    f.get("error_class"),
                    f"new unit failure after {f.get('attempts', '?')} "
                    f"attempt(s): {f.get('message', '')}",
                )
            )
        elif key not in cf:
            findings.append(
                Finding(
                    "improvement", "(units)", name,
                    bf[key].get("error_class"), None,
                    "baseline unit failure resolved",
                )
            )
    if bf or cf:
        compared += len(set(bf) | set(cf))

    # machine-model drift is worth surfacing (it changes every number)
    bm = baseline.get("machine_models", {})
    cm = current.get("machine_models", {})
    for model in sorted(set(bm) | set(cm)):
        if bm.get(model) != cm.get(model):
            findings.append(
                Finding("change", "(models)", model, bm.get(model),
                        cm.get(model), "machine-model digest changed")
            )

    return ManifestDiff(findings=findings, compared_metrics=compared)
