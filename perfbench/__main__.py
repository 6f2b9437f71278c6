"""``python -m perfbench run|trace|compare|expect``.

``run`` and ``trace`` start one ``perfbench/run.py`` process per
(run, workload), so every run pays its own start-up, as ``setup_s``
says.  Run *i* of ``--runs K`` uses seed ``--seed`` + *i*.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

from . import DEFAULT_SEED, ROOT, WORKDIR, WORKLOADS
from .stats import quartiles


def _run_one(workload: str, seed: int, args: argparse.Namespace, trace: int) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", dir=WORKDIR) as out:
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(trace),
            "--out", out.name,
        ] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            record = json.loads(Path(out.name).read_text())
        except (OSError, json.JSONDecodeError):
            raise SystemExit(
                f"perfbench: {workload} (seed {seed}) exited {proc.returncode} "
                "without a result"
            ) from None
    record["exit_code"] = proc.returncode
    return record


def _collect(args: argparse.Namespace, trace: int) -> dict:
    WORKDIR.mkdir(exist_ok=True)
    results = {
        "schema": "perfbench-results/1",
        "command": "trace" if trace else "run",
        "seeds": [args.seed + i for i in range(args.runs)],
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {w: [] for w in args.workloads},
    }
    for i in range(args.runs):
        for w in args.workloads:
            record = _run_one(w, args.seed + i, args, trace)
            results["workloads"][w].append(record)
            status = "ok" if record["correct"] else "FAILED: " + "; ".join(record["problems"][:3])
            print(f"[{w} seed {args.seed + i}] {status}", file=sys.stderr, flush=True)
    out = args.out or WORKDIR / f"{results['command']}-{args.seed}.json"
    out.write_text(json.dumps(results, indent=1))
    print(f"results: {out}")
    return results


def _value(values: list[float]) -> str:
    if len(values) == 1:
        return f"{values[0]:.6g}"
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}]"


def _print_run(results: dict) -> None:
    for w, runs in results["workloads"].items():
        print(f"\n{w}  ({len(runs)} run(s); median [Q1, Q3] over runs)")
        for name, unit in runs[0]["units"].items():
            print(f"  {name:<16} {_value([r['metrics'][name] for r in runs]):<34} {unit}")
        lat = runs[0]["detail"].get("latency_ms", {})
        if lat:
            tail = lat["supported_percentile"]
            print(f"  latency samples per run: {lat['n']}; the highest percentile "
                  f"with 10 samples beyond it: {tail if tail else 'none'}")


def _print_trace(results: dict) -> None:
    from .layers import PER_LAYER

    names = list(results["workloads"])
    print(f"\n{'per-layer metric':<38} {'unit':<10} " + " ".join(f"{w:>14}" for w in names))
    for metric, unit in PER_LAYER.items():
        cells = []
        for w in names:
            values = [r["metrics"][metric] for r in results["workloads"][w]]
            cells.append(f"{quartiles(values)[1]:>14.6g}")
        print(f"{metric:<38} {unit:<10} " + " ".join(cells))
    for w in names:
        for r in results["workloads"][w]:
            d = r["detail"]
            busy = d["busy_check"]
            health = "; ".join(d["health"]) or "ok"
            print(f"{w} seed {r['seed']}: digests {'ok' if r['correct'] else 'MISMATCH'}, "
                  f"evaluate spans {busy['evaluate_spans_s']:.3f} s vs engine busy "
                  f"{busy['engine_busy_s']:.3f} s, health {health}, trace {d['trace_file']}")


#: requests of the serving stream covered by expected digests
SERVE_EXPECTED = {"full": 8000, "quick": 1000}


def _expect() -> None:
    """Recompute perfbench/expected.json in process: the serving digests
    come from the engine directly, not through the daemon."""
    from . import JOBS, use_checkout_src

    use_checkout_src()
    from repro.bench import fig3
    from repro.engine import CorpusEngine, cache_key
    from repro.fuzz import build_triage_manifest, manifest_digest, run_differential
    from repro.serve.protocol import parse_analyze_request

    from .inputs import serve_inputs, stratified_kernels
    from .workloads import FUZZ_COUNT, HOT_PAIRS, chunk_digests, corpus_digest, fig3_scope

    path = Path(__file__).parent / "expected.json"
    seed = DEFAULT_SEED
    expected: dict = {"seed": seed, "corpus": {}, "fuzz": {}, "serve": {}}
    for mode in ("quick", "full"):
        result = fig3.run(**fig3_scope(mode == "quick"), engine=CorpusEngine(jobs=JOBS))
        expected["corpus"][mode] = corpus_digest(result)
        corpus = stratified_kernels(seed + 2, FUZZ_COUNT[mode][0])
        diff = run_differential(
            corpus, seed=seed + 2,
            engine=CorpusEngine(jobs=JOBS, error_policy="collect"),
        )
        expected["fuzz"][mode] = manifest_digest(build_triage_manifest(diff))
        inputs = serve_inputs(seed, HOT_PAIRS[mode], SERVE_EXPECTED[mode])
        units = [parse_analyze_request(r.body).to_unit() for r in inputs.stream]
        digests: dict = {}
        keys = [cache_key(u, digests) for u in units]
        distinct = dict(zip(keys, units))
        results = CorpusEngine(jobs=JOBS).run(list(distinct.values()))
        cpi = {k: r["cycles_per_iteration"] for k, r in zip(distinct, results)}
        expected["serve"][mode] = chunk_digests(
            [(r.rid, r.backend, cpi[k]) for r, k in zip(inputs.stream, keys)]
        )
        print(f"{mode}: corpus {expected['corpus'][mode][:16]} fuzz "
              f"{expected['fuzz'][mode][:16]} serve {len(expected['serve'][mode])} chunks")
    path.write_text(json.dumps(expected, indent=1) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "end-to-end metrics, tracing off"),
                            ("trace", "per-layer metrics from a traced run")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
        p.add_argument("--runs", type=int, default=1, help="runs per workload")
        p.add_argument("--seconds", type=float, default=15.0,
                       help="measuring window of each run")
        p.add_argument("--quick", action="store_true", help="small inputs")
        p.add_argument("--out", type=Path, help="results JSON (default under .perfbench/)")
    p = sub.add_parser("compare", help="apply the bounds of BENCHMARK.json to two results files")
    p.add_argument("a", type=Path, help="baseline (parent) results")
    p.add_argument("b", type=Path, help="change results")
    sub.add_parser("expect", help="recompute perfbench/expected.json")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from .compare import main as compare_main

        return compare_main(args.a, args.b)
    if args.command == "expect":
        _expect()
        return 0
    trace = int(args.command == "trace")
    results = _collect(args, trace)
    (_print_trace if trace else _print_run)(results)
    # ``trace`` also fails on its own health checks
    ok = all(r["correct"] and r["exit_code"] == 0 and not r["detail"].get("health")
             for runs in results["workloads"].values() for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
