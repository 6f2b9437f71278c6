"""``repro-perf`` — the standing performance-baseline suite.

Four deterministic workloads cover the layers the profiler attributes
(:mod:`repro.obs.prof`): the full fig. 3 corpus sweep cold and warm
(empty and primed result cache), raw lowering throughput, the simulator
hot loop, and a seeded differential-fuzz sweep.  A fifth case,
``import_cli``, times ``import repro.cli`` in a fresh interpreter and
records its peak RSS, so a heavy dependency that creeps back into the
import graph fails the gate.  Each in-process case runs under a fresh
:class:`~repro.obs.prof.PhaseProfiler` and
:class:`~repro.obs.metrics.MetricsRegistry`, and reports

* ``seconds`` — best-of-``repeats`` wall time (min, not mean: the
  minimum is the least noisy estimator of the achievable time),
* ``work.*`` stats — deterministic work counters (units evaluated,
  blocks lowered, simulated cycles, fuzz divergences) that must not
  drift between runs of the same tree,
* ``*_per_second`` throughputs, and
* ``attribution.*_share`` — the profiler's depth-2 self-time shares,
  so a regression report says *which phase* grew, not just "slower".

The result is a ``repro-run-report/1`` manifest
(:mod:`repro.obs.report`) written to ``BENCH_perf.json`` and committed
as the baseline.  ``repro-perf --check`` re-runs the suite with the
baseline's own configuration and diffs against it with a
noise-floor-aware gate: wall times regress only past
``--runtime-tolerance`` (default ±50 % — the cases are seconds-scale
and CI machines vary) *and* above ``--min-runtime-seconds``; stats use
the same relative tolerance, which deterministic ``work.*`` counters
pass trivially and throughput/share drift must stay within.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from ..context import use_context
from ..obs.metrics import MetricsRegistry
from ..obs.prof import PhaseProfiler
from ..obs.report import build_manifest

#: gate defaults — wide enough for shared CI hardware, tight enough to
#: catch the ~2x pathologies perf gates exist for
DEFAULT_RUNTIME_TOLERANCE = 0.5
#: ignore wall regressions on cases faster than this (pure noise)
DEFAULT_MIN_RUNTIME_SECONDS = 0.05
DEFAULT_REPEATS = 2
DEFAULT_BASELINE = "BENCH_perf.json"


def _profiled(fn: Callable[[], Any]):
    """Run *fn* under a fresh profiler + registry; time it."""
    prof = PhaseProfiler()
    reg = MetricsRegistry()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    with use_context(profiler=prof, metrics=reg):
        out = fn()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return wall, cpu, prof, reg, out


def _attribution_stats(
    prof: PhaseProfiler, depth: int = 2, top: int = 6
) -> dict[str, float]:
    """Depth-limited self-time shares as manifest stats.

    Phase paths are dotted (``unit/predict`` → ``unit.predict_share``)
    so they survive the manifest's nested-dict flattening; the
    ``_share`` suffix marks them lower-is-better for the diff.
    """
    out: dict[str, float] = {}
    for path, share in prof.attribution_shares(depth=depth, top=top).items():
        out[f"attribution.{path.replace('/', '.')}_share"] = share
    return out


def _reg_value(reg: MetricsRegistry, snap: dict, name: str) -> float:
    return snap.get(name, {}).get("value", 0.0)


# ---------------------------------------------------------------------------
# cases — each returns [(name, wall, cpu, stats), ...]
# ---------------------------------------------------------------------------


def _case_fig3(quick: bool) -> list[tuple[str, float, float, dict]]:
    """Full corpus sweep, cold (empty result cache) then warm.

    The sweep measures with the cycle engine, exactly as
    ``repro-bench fig3`` does.
    """
    import tempfile

    from ..engine import CorpusEngine
    from . import fig3

    machines = ("spr",) if quick else ("spr", "genoa", "gcs")
    iterations = 40 if quick else 100
    records: list[tuple[str, float, float, dict]] = []
    with tempfile.TemporaryDirectory(prefix="repro-perf-") as tmp:
        engine = CorpusEngine(jobs=1, cache_dir=tmp)

        def sweep():
            return fig3.run(
                machines=machines, iterations=iterations, engine=engine
            )

        # every repeat gets a fresh cache directory, so the cold run
        # starts from nothing and the warm run reads what it wrote
        for name in ("fig3_cold", "fig3_warm"):
            wall, cpu, prof, reg, result = _profiled(sweep)
            snap = reg.snapshot()
            m = engine.metrics
            stats = {
                "work.units": float(m.total_units),
                "work.evaluated": float(m.evaluated),
                "work.coalesced": float(m.coalesced),
                "work.cache_hits": float(m.cache_hits),
                "work.records": float(len(result.records)),
                "work.lowering_requests": _reg_value(
                    reg, snap, "lowering.requests"
                ),
                "work.sim_cycles_total": prof.counters.get(
                    "sim.cycles.total", 0.0
                ),
                "units_per_second": m.total_units / wall if wall else 0.0,
                **_attribution_stats(prof),
            }
            records.append((name, wall, cpu, stats))
    return records


def _case_lowering(quick: bool) -> list[tuple[str, float, float, dict]]:
    """parse → normalize → resolve throughput over the corpus.

    Each distinct ``(assembly digest, uarch)`` pair is lowered once, as
    a cold sweep lowers it (153 blocks; quick mode takes the first
    100); duplicates are dropped before the timed region.
    """
    from ..kernels import enumerate_corpus
    from ..lowering import assembly_digest, lower

    distinct: dict[tuple[str, str], Any] = {}
    for e in enumerate_corpus():
        distinct.setdefault((assembly_digest(e.assembly), e.uarch), e)
    corpus = list(distinct.values())
    if quick:
        corpus = corpus[:100]

    def work():
        n = 0
        for e in corpus:
            n += len(lower(e.assembly, e.uarch).instructions)
        return n

    wall, cpu, prof, reg, n_instr = _profiled(work)
    stats = {
        "work.blocks": float(len(corpus)),
        "work.instructions": float(n_instr),
        "blocks_per_second": len(corpus) / wall if wall else 0.0,
        **_attribution_stats(prof),
    }
    return [("lowering_throughput", wall, cpu, stats)]


def _case_sim(quick: bool) -> list[tuple[str, float, float, dict]]:
    """The simulator hot loop, lowering excluded from the timing.

    This is the case that recorded the uop-plan precompute micro-fix
    (see the committed baseline's config notes); profiling is on, so
    it measures the instrumented loop consistently on both sides.
    """
    from ..kernels import enumerate_corpus
    from ..lowering import lower
    from ..simulator.engine import CycleEngine
    from ..simulator.plan import build_uop_plan

    corpus = enumerate_corpus()[: (16 if quick else 40)]
    blocks = [lower(e.assembly, e.uarch) for e in corpus]

    def work():
        total = 0.0
        for b in blocks:
            plan = build_uop_plan(b.instructions, b.model, resolved=b.resolved)
            r = CycleEngine().run(plan, iterations=100, warmup=30)
            total += r.total_cycles
        return total

    wall, cpu, prof, reg, total = _profiled(work)
    stats = {
        "work.blocks": float(len(blocks)),
        "work.sim_cycles_total": float(total),
        "blocks_per_second": len(blocks) / wall if wall else 0.0,
        **_attribution_stats(prof),
    }
    return [("sim_hot_loop", wall, cpu, stats)]


def _case_fuzz(quick: bool) -> list[tuple[str, float, float, dict]]:
    """Seeded differential sweep — generator + full backend fan-out."""
    from ..engine import CorpusEngine
    from ..fuzz import generate_fuzz_corpus, run_differential

    count = 40 if quick else 200
    corpus = generate_fuzz_corpus(0, count)
    engine = CorpusEngine(jobs=1, error_policy="collect")

    def work():
        return run_differential(corpus, seed=0, engine=engine)

    wall, cpu, prof, reg, result = _profiled(work)
    stats = {
        "work.kernels": float(count),
        "work.checked": float(result.checked),
        "work.divergent": float(len(result.divergences)),
        "kernels_per_second": count / wall if wall else 0.0,
        **_attribution_stats(prof),
    }
    return [("fuzz_sweep", wall, cpu, stats)]


def _case_import(quick: bool) -> list[tuple[str, float, float, dict]]:
    """``import repro.cli`` in a fresh interpreter: time and peak RSS.

    The child times its own import and reads its own ``ru_maxrss``
    (KiB on Linux): the parent's ``RUSAGE_CHILDREN`` would also count
    the workers of earlier cases.  ``quick`` changes nothing.
    """
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    probe = (
        "import json, resource, time\n"
        "t0, c0 = time.perf_counter(), time.process_time()\n"
        "import repro.cli\n"
        "print(json.dumps([time.perf_counter() - t0, time.process_time() - c0,"
        " resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    )
    wall, cpu, maxrss_kib = json.loads(out.stdout)
    return [("import_cli", wall, cpu, {"peak_rss_mb": maxrss_kib / 1024})]


#: suite registry, in run order
CASES: dict[str, Callable[[bool], list]] = {
    "import": _case_import,
    "fig3": _case_fig3,
    "lowering": _case_lowering,
    "sim": _case_sim,
    "fuzz": _case_fuzz,
}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def run_suite(
    *,
    cases: Optional[list[str]] = None,
    quick: bool = False,
    repeats: int = DEFAULT_REPEATS,
    notes: Optional[dict[str, Any]] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> dict[str, Any]:
    """Run the suite and return a ``repro-run-report/1`` manifest.

    Every case runs ``repeats`` times; the record with the smallest
    wall time wins (its throughput/attribution stats ride along — the
    deterministic ``work.*`` stats are identical across repeats by
    construction).
    """
    say = echo or (lambda _msg: None)
    names = list(cases) if cases else list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        raise ValueError(f"unknown perf case(s) {unknown}; known: {list(CASES)}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    best: dict[str, dict[str, Any]] = {}
    for case in names:
        for rep in range(repeats):
            for name, wall, cpu, stats in CASES[case](quick):
                prev = best.get(name)
                if prev is None or wall < prev["seconds"]:
                    best[name] = {
                        "status": "ok",
                        "seconds": wall,
                        "stats": dict(sorted(stats.items())),
                    }
                say(
                    f"  {name:<20} rep {rep + 1}/{repeats}: {wall:.3f}s"
                )

    config: dict[str, Any] = {
        "suite": "perf",
        "cases": names,
        "quick": quick,
        "repeats": repeats,
    }
    if notes:
        config["notes"] = notes
    return build_manifest(
        command="repro-perf",
        config=config,
        benchmarks=best,
        wall_seconds=time.perf_counter() - wall0,
        cpu_seconds=time.process_time() - cpu0,
    )


def render_suite(manifest: dict[str, Any]) -> str:
    """One aligned line per case: wall time + headline stats."""
    lines = ["case                   seconds  headline"]
    for name, rec in sorted(manifest.get("benchmarks", {}).items()):
        stats = rec.get("stats", {})
        headline = " ".join(
            f"{k}={v:.6g}"
            for k, v in sorted(stats.items())
            if k.endswith(("_per_second", "_mb")) or k.startswith("work.")
        )
        lines.append(f"{name:<22} {rec['seconds']:7.3f}  {headline}")
    return "\n".join(lines)
