"""Command-line entry points.

``repro-analyze``
    OSACA-style static analysis of an assembly file::

        repro-analyze loop.s --arch zen4
        repro-analyze loop.s --arch grace --compare   # + simulator + MCA
        repro-analyze loop.s --arch spr --backend all # side-by-side table
        repro-analyze loop.s --arch genoa --trace t.json  # pipeline trace

    ``--backend model|mca|sim|all`` selects the prediction backend from
    the registry (:mod:`repro.backends`); ``all`` runs every backend
    over one shared lowering and prints a side-by-side table.

    ``--trace PATH`` runs the core simulator with the
    :mod:`repro.obs` tracer attached and writes a Chrome trace-event
    JSON of the pipeline schedule (per-instruction dispatch/µop/retire
    events on port lanes, cause-attributed stalls) — open it in
    Perfetto or ``chrome://tracing``.

``repro-bench``
    Regenerate the paper's tables and figures::

        repro-bench table3
        repro-bench fig4
        repro-bench all --jobs 4 --cache .repro-cache
        repro-bench fig3 --backends model,sim
        repro-bench fig3 --run-report r.json --trace engine.json

    ``--jobs N`` shards the corpus work across N worker processes;
    ``--cache DIR`` memoizes simulator/analyzer results in an on-disk
    content-addressed store (see ``docs/engine.md``).  A sub-benchmark
    failure is reported and the exit code is nonzero.  On an
    interactive terminal, per-unit progress renders as a stderr bar.
    ``--run-report PATH`` writes a structured manifest of the run
    (config, model digests, per-benchmark accuracy, timings).
    ``--error-policy collect|quarantine`` lets a sweep survive failing
    work units (structured failure reports, nonzero exit while any
    remain); ``--max-retries`` / ``--unit-timeout`` bound transient
    failures and hung units (see ``docs/robustness.md``).

``repro-report``
    Diff two run-report manifests and flag accuracy or runtime
    regressions::

        repro-report baseline.json current.json
        repro-report baseline.json current.json --check   # CI gate

    ``--check`` exits nonzero when regressions are found (see
    ``docs/observability.md``).

``repro-serve``
    Long-running analysis-as-a-service daemon over the corpus engine::

        repro-serve --port 8472 --jobs 4 --cache .repro-cache
        curl -d '{"assembly": "...", "arch": "spr"}' \
            http://127.0.0.1:8472/v1/analyze

    Bounded admission (429 backpressure), per-request deadlines (504),
    per-backend circuit breakers (503), fault-isolated workers, and
    graceful SIGTERM drain — see ``docs/serving.md``.

``repro-serve-bench``
    Deterministic load-generator benchmark of the daemon (hot cache,
    cold batch, overload backpressure scenarios); writes/gates the
    ``BENCH_serve.json`` baseline::

        repro-serve-bench                 # refresh the baseline
        repro-serve-bench --check         # CI gate
"""

from __future__ import annotations

import argparse
import sys


def analyze_main(argv: list[str] | None = None) -> int:
    from .analysis import analyze_kernel
    from .machine import available_models

    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="OSACA-style in-core analysis of an assembly loop body",
    )
    parser.add_argument("file", help="assembly file (AT&T x86-64 or AArch64); '-' for stdin")
    parser.add_argument(
        "--arch",
        required=True,
        help=f"machine model or chip alias ({', '.join(available_models())}, "
             "spr, genoa, grace, ...)",
    )
    parser.add_argument(
        "--backend",
        choices=("model", "mca", "sim", "all"),
        default="model",
        help="prediction backend to run: the OSACA-style static model "
             "(default, full bottleneck report), the MCA baseline, the "
             "cycle-level core simulator, or 'all' for a side-by-side "
             "table over one shared lowering",
    )
    parser.add_argument(
        "--heuristic",
        action="store_true",
        help="use the OSACA equal-split port binding instead of the exact LP",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="also run the core simulator (measurement) and the MCA baseline",
    )
    parser.add_argument(
        "--whole-file",
        action="store_true",
        help="analyze the input verbatim instead of extracting the "
             "marked/innermost loop",
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="render an llvm-mca-style pipeline timeline of the first "
             "iterations on the core simulator",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="simulate the kernel with the pipeline tracer attached and "
             "write a Chrome trace-event JSON (open in Perfetto or "
             "chrome://tracing)",
    )
    args = parser.parse_args(argv)

    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    if not args.whole_file:
        from .isa.markers import extract_kernel
        from .machine import get_machine_model

        isa = get_machine_model(args.arch).isa
        extracted = extract_kernel(source, isa)
        if extracted.method != "whole":
            print(
                f"[extracted loop body: lines {extracted.start_line}-"
                f"{extracted.end_line} via {extracted.method}]"
            )
        source = extracted.source

    if args.backend != "model":
        return _analyze_backends(source, args)

    result = analyze_kernel(source, args.arch, optimal_binding=not args.heuristic)
    print(result.report())

    if args.timeline:
        from .simulator.timeline import timeline

        print()
        print("Pipeline timeline (core simulator, first 3 iterations):")
        print(timeline(source, args.arch, iterations=3))

    meas = None
    if args.trace:
        from .obs.trace import Tracer
        from .simulator import simulate_kernel

        tracer = Tracer()
        meas = simulate_kernel(
            source, args.arch, tracer=tracer, collect_stalls=True
        )
        tracer.write(
            args.trace,
            other_data={
                "arch": args.arch,
                "cycles_per_iteration": meas.cycles_per_iteration,
                "total_cycles": meas.total_cycles,
                "iterations": meas.iterations,
                "warmup_iterations": meas.warmup_iterations,
                "stall_cycles": meas.stall_cycles,
            },
        )
        print()
        print(
            f"[trace: {len(tracer.events)} events "
            f"({meas.total_cycles:.0f} simulated cycles) "
            f"written to {args.trace}]"
        )
        top = sorted(
            meas.stall_cycles.items(), key=lambda kv: -kv[1]
        )[:3]
        shown = ", ".join(f"{k}={v:.0f}" for k, v in top if v > 0)
        if shown:
            print(f"[stall cycles by cause: {shown}]")

    if args.compare:
        from .mca import mca_predict
        from .simulator import simulate_kernel

        if meas is None:
            meas = simulate_kernel(source, args.arch)
        mca = mca_predict(source, args.arch)
        print()
        print(f"Simulated measurement:      {meas.cycles_per_iteration:8.2f} cy/iter")
        print(f"MCA baseline prediction:    {mca.cycles_per_iteration:8.2f} cy/iter")
        rpe = (
            (meas.cycles_per_iteration - result.prediction)
            / meas.cycles_per_iteration
        )
        print(f"Relative prediction error:  {rpe*100:+8.1f} %")
    return 0


def _analyze_backends(source: str, args) -> int:
    """``repro-analyze --backend mca|sim|all`` — registry dispatch paths.

    All backends predict from one shared lowering of the block
    (:mod:`repro.lowering`), so the comparison can never drift through
    divergent parsing.
    """
    from .backends import predict_all

    names = ["model", "mca", "sim"] if args.backend == "all" else [args.backend]
    opts = {"model": {"optimal_binding": not args.heuristic}}
    results = predict_all(source, args.arch, backends=names, opts=opts)

    if args.backend != "all":
        r = results[args.backend]
        detail = r.detail
        if hasattr(detail, "summary"):
            print(detail.summary())
        else:
            print(f"{r.backend} (v{r.version}): "
                  f"{r.cycles_per_iteration:.2f} cy/iter")
            for k, v in sorted(r.stats.items()):
                print(f"  {k}: {v:.4g}" if isinstance(v, float) else f"  {k}: {v}")
        return 0

    meas = results["sim"].cycles_per_iteration
    print(f"{'backend':10s} {'cy/iter':>9s}   {'vs sim':>8s}   note")
    for name in names:
        r = results[name]
        if name == "sim":
            note = "(measurement)"
            vs = ""
        else:
            rpe = (meas - r.cycles_per_iteration) / meas if meas else 0.0
            vs = f"{rpe*100:+7.1f}%"
            note = r.bottleneck or ""
        print(
            f"{name:10s} {r.cycles_per_iteration:9.2f}   {vs:>8s}   {note}"
        )
    return 0


def bench_main(argv: list[str] | None = None) -> int:
    import contextlib
    import time

    from .bench import EXPERIMENTS, render_experiment
    from .engine import CorpusEngine, use_engine

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="regenerate the paper's tables and figures",
    )
    parser.add_argument(
        "experiment",
        nargs="*",
        help=f"experiment name(s): {', '.join(EXPERIMENTS)}, 'verify', or 'all'",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="additionally dump the structured results of all named "
             "experiments as JSON",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard corpus-style work across N worker processes "
             "(default: 1, the exact serial path)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="memoize simulator/analyzer results in an on-disk "
             "content-addressed cache rooted at DIR",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome trace-event JSON of the engine's work-unit "
             "schedule (worker lanes, cache hit/miss events)",
    )
    parser.add_argument(
        "--run-report",
        metavar="PATH",
        dest="run_report",
        help="write a structured run-report manifest (config, model "
             "digests, per-benchmark accuracy stats, timings); diff two "
             "with repro-report",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        help="profile the run (hierarchical phase timers, per-cycle "
             "port/ROB attribution) and write the snapshot JSON to "
             "PATH; also prints the ranked attribution report",
    )
    parser.add_argument(
        "--flamegraph",
        metavar="PATH",
        help="with profiling on, additionally write the phase tree in "
             "collapsed-stack format (feed to flamegraph.pl or "
             "speedscope)",
    )
    parser.add_argument(
        "--backends",
        metavar="NAMES",
        help="comma-separated subset of fig3's prediction backends "
             "(model,mca,sim); 'sim' is always required — it is the "
             "measurement every RPE is computed against",
    )
    parser.add_argument(
        "--error-policy",
        choices=("fail_fast", "collect", "quarantine"),
        default="fail_fast",
        dest="error_policy",
        help="what a failed work unit does to the run: abort it "
             "(fail_fast, default), finish the sweep and report "
             "structured failures (collect — the exit code is still "
             "nonzero when failures remain), or additionally skip the "
             "failed units in later batches (quarantine); see "
             "docs/robustness.md",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        dest="max_retries",
        help="re-attempts for transiently failed units (deterministic "
             "exponential backoff; default: 2, 0 disables retries)",
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        dest="unit_timeout",
        help="per-attempt deadline for one work unit; a unit running "
             "past it fails transiently and is retried within the "
             "retry budget (default: no deadline)",
    )
    parser.add_argument(
        "--list-quarantine",
        action="store_true",
        dest="list_quarantine",
        help="list the units quarantined under --cache (persisted "
             "skip-list from earlier quarantine-policy runs) and exit",
    )
    parser.add_argument(
        "--clear-quarantine",
        action="store_true",
        dest="clear_quarantine",
        help="release every unit quarantined under --cache so the next "
             "sweep re-attempts them, and exit (the result cache itself "
             "is untouched)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.list_quarantine or args.clear_quarantine:
        if not args.cache:
            parser.error(
                "--list-quarantine/--clear-quarantine operate on the "
                "persistent skip-list under --cache DIR"
            )
        return _quarantine_admin(args)
    if not args.experiment:
        parser.error("name at least one experiment (or 'all')")
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.unit_timeout is not None and args.unit_timeout <= 0:
        parser.error("--unit-timeout must be positive")
    backends: tuple[str, ...] | None = None
    if args.backends:
        from .bench.fig3 import _normalize_backends

        try:
            backends = _normalize_backends(
                tuple(s.strip() for s in args.backends.split(",") if s.strip())
            )
        except ValueError as exc:
            parser.error(str(exc))

    from .obs.progress import ProgressBar

    progress = ProgressBar.if_tty()
    engine = CorpusEngine(
        jobs=args.jobs,
        cache_dir=args.cache,
        progress=progress,
        error_policy=args.error_policy,
        max_retries=args.max_retries,
        unit_timeout=args.unit_timeout,
    )
    names = list(EXPERIMENTS) if "all" in args.experiment else args.experiment
    structured = bool(args.json or args.run_report)
    collected: dict[str, object] = {}
    bench_records: dict[str, dict] = {}
    failures: list[str] = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if args.run_report:
        from .obs.metrics import get_registry

        registry_since = get_registry().snapshot()
    tracer = None
    profiler = None
    with contextlib.ExitStack() as stack:
        stack.enter_context(engine)
        stack.enter_context(use_engine(engine))
        if progress is not None:
            stack.callback(progress.finish)
        if args.trace:
            from .obs.trace import Tracer, use_tracer

            tracer = Tracer()
            stack.enter_context(use_tracer(tracer))
        if args.profile or args.flamegraph:
            from .obs.prof import PhaseProfiler, use_profiler

            profiler = PhaseProfiler()
            stack.enter_context(use_profiler(profiler))
        for name in names:
            t0 = time.perf_counter()
            try:
                if name == "verify":
                    _run_verify()
                elif name == "report":
                    from .bench.report import generate_report

                    summary = generate_report()
                    print(
                        f"report written to {summary['path']}: "
                        f"{summary['passed']}/{summary['total']} acceptance "
                        f"criteria pass ({summary['seconds']:.0f} s)"
                    )
                elif name == "fig3" and backends is not None:
                    result = EXPERIMENTS[name].run(backends=backends)
                    collected[name] = result
                    if progress is not None:
                        progress.finish()
                    print(render_experiment(name, result))
                    print()
                elif structured and name in EXPERIMENTS:
                    result = EXPERIMENTS[name].run()
                    collected[name] = result
                    if progress is not None:
                        progress.finish()
                    print(render_experiment(name, result))
                    print()
                else:
                    print(render_experiment(name))
                    print()
            except Exception as exc:
                failures.append(name)
                bench_records[name] = {
                    "status": "error",
                    "seconds": time.perf_counter() - t0,
                    "error": str(exc),
                }
                print(f"ERROR: {name} failed: {exc}", file=sys.stderr)
            else:
                record: dict = {
                    "status": "ok",
                    "seconds": time.perf_counter() - t0,
                }
                if args.run_report and name in collected:
                    from .obs.report import benchmark_stats

                    record["stats"] = benchmark_stats(name, collected[name])
                bench_records[name] = record
            finally:
                if progress is not None:
                    progress.finish()
    if args.jobs > 1 or args.cache:
        print(f"[{engine.totals.summary()}]")
    if tracer is not None:
        tracer.write(
            args.trace,
            other_data={"command": "repro-bench", "experiments": names},
        )
        print(f"[engine trace written to {args.trace}]")
    if profiler is not None:
        print(profiler.report(top=8))
        if args.profile:
            profiler.write(args.profile)
            print(f"[profile written to {args.profile}]")
        if args.flamegraph:
            profiler.write_collapsed(args.flamegraph)
            print(f"[collapsed stacks written to {args.flamegraph}]")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(_jsonable(collected), fh, indent=1)
        print(f"[structured results written to {args.json}]")
    if args.run_report:
        from .obs.metrics import get_registry
        from .obs.report import build_manifest, write_manifest

        manifest = build_manifest(
            command="repro-bench",
            config={
                "experiments": names,
                "jobs": args.jobs,
                "cache": bool(args.cache),
                "trace": bool(args.trace),
                "backends": list(backends) if backends else None,
            },
            benchmarks=bench_records,
            wall_seconds=time.perf_counter() - wall0,
            cpu_seconds=time.process_time() - cpu0,
            engine=engine,
            registry=get_registry(),
            registry_since=registry_since,
            failures=failures,
            unit_failures=engine.failure_log,
        )
        write_manifest(manifest, args.run_report)
        print(f"[run report written to {args.run_report}]")
    if engine.failure_log:
        print(
            f"ERROR: {len(engine.failure_log)} work unit(s) failed "
            f"(error_policy={args.error_policy}):",
            file=sys.stderr,
        )
        for f in engine.failure_log[:20]:
            print(f"  {f.summary()}", file=sys.stderr)
        if len(engine.failure_log) > 20:
            print(
                f"  ... and {len(engine.failure_log) - 20} more",
                file=sys.stderr,
            )
    if failures:
        print(
            f"ERROR: {len(failures)} experiment(s) failed: "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 1 if engine.failure_log else 0


def _quarantine_admin(args) -> int:
    """``repro-bench --list-quarantine/--clear-quarantine`` under --cache.

    Operators recover from a poisoned skip-list here instead of
    deleting the cache directory by hand (which would also throw away
    every good memoized result).
    """
    from .engine import CorpusEngine

    engine = CorpusEngine(
        jobs=1, cache_dir=args.cache, error_policy="quarantine"
    )
    entries = engine.quarantine_entries()
    if args.list_quarantine:
        if not entries:
            print(f"no quarantined units under {args.cache}")
        else:
            print(f"{len(entries)} quarantined unit(s) under {args.cache}:")
            for key, info in sorted(entries.items()):
                label = info.get("label") or "?"
                print(
                    f"  {key[:16]}  {label}  "
                    f"[{info.get('error_class', '?')}: "
                    f"{info.get('message', '')[:60]}]"
                )
    if args.clear_quarantine:
        released = engine.clear_quarantine()
        print(
            f"released {released} quarantined unit(s); the next sweep "
            "re-attempts them"
        )
    return 0


def fuzz_main(argv: list[str] | None = None) -> int:
    import contextlib

    from .engine import CorpusEngine, use_engine

    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="seeded kernel fuzzing with differential backend "
                    "validation: generate a deterministic mutated-kernel "
                    "corpus, fan it out over the model/mca/sim backends, "
                    "and triage where they disagree (docs/fuzzing.md)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="corpus seed; the same (seed, count) always regenerates the "
             "identical corpus and triage manifest (default: 0)",
    )
    parser.add_argument(
        "--count",
        type=int,
        default=1000,
        metavar="N",
        help="number of fuzzed kernels to generate (default: 1000)",
    )
    parser.add_argument(
        "--isa",
        choices=("x86", "aarch64", "both"),
        default="both",
        help="restrict the corpus to one ISA's machines/personas "
             "(default: both)",
    )
    parser.add_argument(
        "--backends",
        metavar="NAMES",
        default="model,sim,mca",
        help="comma-separated backends to cross-check (>= 2 of "
             "model,mca,sim; default: all three)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="REL",
        help="relative spread beyond which backend disagreement counts "
             "as a divergence (default: %s)" % "0.25",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="simulator iterations per kernel (default: 60; mca/warmup "
             "budgets derive from it exactly as for the paper corpus)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard the sweep across N worker processes (default: 1; "
             "the triage manifest is identical at any jobs count)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="memoize backend results in an on-disk cache rooted at DIR "
             "(fuzz sweeps default to cache-less)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="write the triage report as a run-report manifest; diff "
             "against a committed baseline with repro-report --check",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="divergences/clusters to show in the console summary "
             "(default: 10)",
    )
    parser.add_argument(
        "--error-policy",
        choices=("fail_fast", "collect", "quarantine"),
        default="collect",
        dest="error_policy",
        help="disposition of fuzzer-provoked unit failures (default: "
             "collect — a crashing kernel never kills the sweep; "
             "quarantine degrades to collect when no --cache is set)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        dest="max_retries",
        help="re-attempts for transiently failed units (default: 2)",
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        dest="unit_timeout",
        help="per-attempt deadline for one work unit (default: none)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.count < 1:
        parser.error("--count must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.tolerance is not None and args.tolerance <= 0:
        parser.error("--tolerance must be positive")
    if args.iterations is not None and args.iterations < 1:
        parser.error("--iterations must be >= 1")
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.unit_timeout is not None and args.unit_timeout <= 0:
        parser.error("--unit-timeout must be positive")
    backends = tuple(s.strip() for s in args.backends.split(",") if s.strip())

    from .fuzz import (
        DEFAULT_ITERATIONS,
        DEFAULT_TOLERANCE,
        build_triage_manifest,
        generate_fuzz_corpus,
        render_triage,
        run_differential,
    )
    from .fuzz.triage import write_manifest
    from .obs.progress import ProgressBar

    try:
        corpus = generate_fuzz_corpus(args.seed, args.count, isa=args.isa)
    except ValueError as exc:
        parser.error(str(exc))
    print(
        f"generated {len(corpus)} fuzzed kernels "
        f"(seed {args.seed}, isa {args.isa})"
    )
    progress = ProgressBar.if_tty()
    engine = CorpusEngine(
        jobs=args.jobs,
        cache_dir=args.cache,
        progress=progress,
        error_policy=args.error_policy,
        max_retries=args.max_retries,
        unit_timeout=args.unit_timeout,
    )
    with contextlib.ExitStack() as stack:
        stack.enter_context(engine)
        stack.enter_context(use_engine(engine))
        if progress is not None:
            stack.callback(progress.finish)
        try:
            result = run_differential(
                corpus,
                seed=args.seed,
                backends=backends,
                tolerance=(
                    args.tolerance if args.tolerance is not None
                    else DEFAULT_TOLERANCE
                ),
                iterations=(
                    args.iterations if args.iterations is not None
                    else DEFAULT_ITERATIONS
                ),
                engine=engine,
            )
        except ValueError as exc:
            parser.error(str(exc))
    manifest = build_triage_manifest(result, isa=args.isa)
    print(render_triage(manifest, limit=args.top))
    if args.jobs > 1 or args.cache:
        print(f"[{engine.totals.summary()}]")
    if args.report:
        write_manifest(manifest, args.report)
        print(f"[triage report written to {args.report}]")
    if engine.failure_log:
        print(
            f"ERROR: {len(engine.failure_log)} work unit(s) failed "
            f"(error_policy={args.error_policy}):",
            file=sys.stderr,
        )
        for f in engine.failure_log[:20]:
            print(f"  {f.summary()}", file=sys.stderr)
        if len(engine.failure_log) > 20:
            print(
                f"  ... and {len(engine.failure_log) - 20} more",
                file=sys.stderr,
            )
        return 1
    return 0


def report_main(argv: list[str] | None = None) -> int:
    """``repro-report`` — diff two run-report manifests."""
    from .obs.report import diff_manifests, load_manifest

    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="diff two repro-bench run-report manifests and flag "
                    "accuracy or runtime regressions",
    )
    parser.add_argument("baseline", help="baseline manifest JSON")
    parser.add_argument("current", help="current manifest JSON")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when regressions are found (CI gate mode)",
    )
    parser.add_argument(
        "--accuracy-tolerance",
        type=float,
        default=1e-6,
        metavar="REL",
        help="relative tolerance before an accuracy stat counts as "
             "regressed (default: 1e-6)",
    )
    parser.add_argument(
        "--runtime-tolerance",
        type=float,
        default=0.25,
        metavar="REL",
        help="relative wall-time growth tolerated before flagging a "
             "runtime regression (default: 0.25)",
    )
    parser.add_argument(
        "--min-runtime-seconds",
        type=float,
        default=1.0,
        metavar="SECONDS",
        dest="min_runtime_seconds",
        help="noise floor: wall times below this never count as "
             "runtime regressions (default: 1.0)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="additionally dump the findings as JSON",
    )
    args = parser.parse_args(argv)
    if args.min_runtime_seconds < 0:
        parser.error("--min-runtime-seconds must be >= 0")

    try:
        baseline = load_manifest(args.baseline)
        current = load_manifest(args.current)
    except (OSError, ValueError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    diff = diff_manifests(
        baseline,
        current,
        accuracy_tolerance=args.accuracy_tolerance,
        runtime_tolerance=args.runtime_tolerance,
        min_runtime_seconds=args.min_runtime_seconds,
    )
    print(diff.render())
    if args.json:
        import dataclasses
        import json

        with open(args.json, "w") as fh:
            json.dump(
                {
                    "ok": diff.ok,
                    "compared_metrics": diff.compared_metrics,
                    "findings": [dataclasses.asdict(f) for f in diff.findings],
                },
                fh,
                indent=1,
            )
    if args.check and not diff.ok:
        return 1
    return 0


def serve_main(argv: list[str] | None = None) -> int:
    """``repro-serve`` — the analysis-as-a-service daemon."""
    import logging

    from .serve.daemon import ServeConfig, run_server

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="fault-contained analysis-as-a-service daemon: "
                    "POST /v1/analyze with {assembly, arch, backend}; "
                    "bounded admission, deadlines, circuit breakers, "
                    "graceful drain (docs/serving.md)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8472,
        help="listen port; 0 picks a free one (default: 8472)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="engine worker processes (default: 2)",
    )
    parser.add_argument(
        "--cache", metavar="DIR", dest="cache",
        help="content-addressed result cache — the serving hot path "
             "(strongly recommended for any real deployment)",
    )
    parser.add_argument(
        "--error-policy", choices=("collect", "quarantine"),
        default="collect", dest="error_policy",
        help="failed-unit disposition: collect (default) or quarantine "
             "(repeat offenders are refused without re-evaluating; "
             "requires --cache)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=64, metavar="N",
        dest="queue_capacity",
        help="admission queue bound; requests beyond it get 429 + "
             "Retry-After (default: 64)",
    )
    parser.add_argument(
        "--batch-max", type=int, default=16, metavar="N", dest="batch_max",
        help="max requests coalesced into one engine batch (default: 16)",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        dest="request_timeout",
        help="end-to-end deadline per request, queue wait included; "
             "clients may shorten it per-request via X-Timeout "
             "(default: 30)",
    )
    parser.add_argument(
        "--unit-timeout", type=float, default=20.0, metavar="SECONDS",
        dest="unit_timeout",
        help="engine per-attempt deadline; a hung unit is killed and "
             "surfaces as 504 (default: 20; 0 disables)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=1, metavar="N",
        dest="max_retries",
        help="engine re-attempts for transient failures (default: 1)",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        dest="breaker_threshold",
        help="consecutive 5xx-class failures that open a backend's "
             "circuit breaker (default: 5)",
    )
    parser.add_argument(
        "--breaker-cooldown", type=float, default=5.0, metavar="SECONDS",
        dest="breaker_cooldown",
        help="seconds an open breaker waits before a half-open probe "
             "(default: 5)",
    )
    parser.add_argument(
        "--drain-deadline", type=float, default=10.0, metavar="SECONDS",
        dest="drain_deadline",
        help="how long a SIGTERM/SIGINT drain waits for in-flight "
             "requests before giving up (default: 10)",
    )
    parser.add_argument(
        "--manifest", metavar="PATH", dest="manifest",
        help="flush a run-report manifest (serving stats + metrics) "
             "here on drain",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="log at DEBUG instead of INFO",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.port < 0 or args.port > 65535:
        parser.error("--port must be 0..65535")
    if args.queue_capacity < 1:
        parser.error("--queue-capacity must be >= 1")
    if args.batch_max < 1:
        parser.error("--batch-max must be >= 1")
    if args.request_timeout <= 0:
        parser.error("--request-timeout must be positive")
    if args.unit_timeout < 0:
        parser.error("--unit-timeout must be >= 0 (0 disables)")
    if args.error_policy == "quarantine" and not args.cache:
        parser.error("--error-policy quarantine requires --cache")
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=args.cache,
        error_policy=args.error_policy,
        queue_capacity=args.queue_capacity,
        batch_max=args.batch_max,
        request_timeout=args.request_timeout,
        unit_timeout=args.unit_timeout or None,
        max_retries=args.max_retries,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        drain_deadline=args.drain_deadline,
        manifest_path=args.manifest,
    )
    return run_server(config)


def serve_bench_main(argv: list[str] | None = None) -> int:
    """``repro-serve-bench`` — deterministic serving load benchmark."""
    from .obs.report import diff_manifests, load_manifest, write_manifest
    from .serve.loadgen import (
        DEFAULT_SEED,
        SCENARIOS,
        render_summary,
        run_serve_bench,
    )

    default_baseline = "BENCH_serve.json"
    parser = argparse.ArgumentParser(
        prog="repro-serve-bench",
        description="drive a real repro-serve daemon with deterministic "
                    "load scenarios (hot cache, cold batch, overload "
                    "backpressure) and write/gate the serving baseline "
                    "manifest",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-run the scenarios and exit nonzero on regressions "
             "against the baseline (the baseline file is never "
             "rewritten)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=default_baseline,
        help=f"baseline manifest for --check (default: {default_baseline})",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="where to write the fresh manifest (default: the baseline "
             "path, or only printed in --check mode)",
    )
    parser.add_argument(
        "--scenarios",
        metavar="NAMES",
        help=f"comma-separated subset (default: all; known: "
             f"{', '.join(SCENARIOS)})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        metavar="N",
        help=f"fuzz-corpus seed for the request stream "
             f"(default: {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink every scenario (smoke tests; baselines and checks "
             "must agree on this)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.6,
        metavar="REL",
        help="relative tolerance for --check: latency/throughput may "
             "drift this much; structural gates (errors, availability, "
             "hit rate, 429 presence) are unaffected by noise "
             "(default: 0.6)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.tolerance <= 0:
        parser.error("--tolerance must be positive")
    scenarios = None
    if args.scenarios:
        scenarios = [
            s.strip() for s in args.scenarios.split(",") if s.strip()
        ]

    baseline = None
    quick = args.quick
    seed = args.seed
    if args.check:
        try:
            baseline = load_manifest(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"ERROR: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        cfg = baseline.get("config", {})
        quick = quick or bool(cfg.get("quick", False))
        if args.seed == DEFAULT_SEED and "seed" in cfg:
            seed = int(cfg["seed"])
        if scenarios is None and cfg.get("scenarios"):
            scenarios = list(cfg["scenarios"])

    mode = "check against " + args.baseline if args.check else "baseline run"
    print(f"repro-serve-bench: {mode} (seed={seed} quick={quick})")
    try:
        manifest = run_serve_bench(
            scenarios, seed=seed, quick=quick, echo=True
        )
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    print(render_summary(manifest))

    if args.out:
        write_manifest(manifest, args.out)
        print(f"[serve manifest written to {args.out}]")
    elif not args.check:
        write_manifest(manifest, args.baseline)
        print(f"[serve baseline written to {args.baseline}]")

    if manifest.get("failures"):
        print(
            f"ERROR: scenario(s) failed: {', '.join(manifest['failures'])}",
            file=sys.stderr,
        )
        if not args.check:
            return 1
    if not args.check:
        return 0
    if scenarios:
        baseline = dict(baseline)
        baseline["benchmarks"] = {
            name: rec
            for name, rec in baseline.get("benchmarks", {}).items()
            if name in manifest["benchmarks"]
        }
    diff = diff_manifests(
        baseline,
        manifest,
        # one generous relative tolerance: load-dependent latency and
        # throughput get headroom, while the structural gates stay
        # sharp — errors=0 regresses on any single error, and a
        # scenario with any failed request raises, which is a status
        # regression regardless of tolerance
        accuracy_tolerance=args.tolerance,
        runtime_tolerance=args.tolerance,
        min_runtime_seconds=1.0,
    )
    print(diff.render())
    return 0 if diff.ok else 1


def perf_main(argv: list[str] | None = None) -> int:
    """``repro-perf`` — run the standing perf suite / gate on a baseline."""
    from .bench.perf import (
        CASES,
        DEFAULT_BASELINE,
        DEFAULT_MIN_RUNTIME_SECONDS,
        DEFAULT_REPEATS,
        DEFAULT_RUNTIME_TOLERANCE,
        render_suite,
        run_suite,
    )
    from .obs.report import diff_manifests, load_manifest, write_manifest

    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="deterministic performance-baseline suite: fig3 "
                    "cold/warm, lowering throughput, the simulator hot "
                    "loop, and a seeded fuzz sweep — with profiler "
                    "attribution shares in every record",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-run the suite with the baseline's configuration and "
             "exit nonzero on wall-clock or attribution regressions "
             "(the baseline file is never rewritten)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=DEFAULT_BASELINE,
        help=f"baseline manifest for --check (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="where to write the fresh manifest (default: the baseline "
             "path, or only printed in --check mode)",
    )
    parser.add_argument(
        "--cases",
        metavar="NAMES",
        help=f"comma-separated subset of the cases (default: all; "
             f"known: {', '.join(CASES)})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink every case (~10x faster; smoke tests and quick "
             "local gates — baselines and checks must agree on this)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help=f"runs per case, best (minimum) wall time wins "
             f"(default: {DEFAULT_REPEATS})",
    )
    parser.add_argument(
        "--runtime-tolerance",
        type=float,
        default=DEFAULT_RUNTIME_TOLERANCE,
        metavar="REL",
        help="relative growth tolerated on wall times and stats before "
             f"--check flags a regression (default: "
             f"{DEFAULT_RUNTIME_TOLERANCE})",
    )
    parser.add_argument(
        "--min-runtime-seconds",
        type=float,
        default=DEFAULT_MIN_RUNTIME_SECONDS,
        metavar="SECONDS",
        dest="min_runtime_seconds",
        help="noise floor: case wall times below this never regress "
             f"(default: {DEFAULT_MIN_RUNTIME_SECONDS})",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=0.0,
        metavar="SECONDS",
        dest="inject_slowdown",
        help="add artificial seconds to every measured case — proves "
             "the --check gate fails when it should (self-test hook)",
    )
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    cases = None
    if args.cases:
        cases = [s.strip() for s in args.cases.split(",") if s.strip()]
        unknown = [c for c in cases if c not in CASES]
        if unknown:
            parser.error(
                f"unknown case(s) {', '.join(unknown)}; known: "
                f"{', '.join(CASES)}"
            )

    baseline = None
    quick = args.quick
    repeats = args.repeats
    if args.check:
        try:
            baseline = load_manifest(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"ERROR: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        # the comparison is only meaningful on the baseline's own
        # workload; explicit flags still override
        cfg = baseline.get("config", {})
        quick = quick or bool(cfg.get("quick", False))
        if repeats is None:
            repeats = int(cfg.get("repeats", DEFAULT_REPEATS))
        if cases is None and cfg.get("cases"):
            cases = list(cfg["cases"])
    if repeats is None:
        repeats = DEFAULT_REPEATS

    mode = "check against " + args.baseline if args.check else "baseline run"
    print(
        f"repro-perf: {mode} "
        f"(cases={','.join(cases) if cases else 'all'} "
        f"quick={quick} repeats={repeats})"
    )
    try:
        manifest = run_suite(
            cases=cases,
            quick=quick,
            repeats=repeats,
            inject_slowdown=args.inject_slowdown,
            echo=lambda msg: print(msg, flush=True),
        )
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    print(render_suite(manifest))

    if args.out:
        write_manifest(manifest, args.out)
        print(f"[perf manifest written to {args.out}]")
    elif not args.check:
        write_manifest(manifest, args.baseline)
        print(f"[perf baseline written to {args.baseline}]")

    if not args.check:
        return 0
    if args.cases:
        # a targeted subset gate compares only what it ran — don't flag
        # the deliberately skipped cases as missing
        baseline = dict(baseline)
        baseline["benchmarks"] = {
            name: rec
            for name, rec in baseline.get("benchmarks", {}).items()
            if name in manifest["benchmarks"]
        }
    diff = diff_manifests(
        baseline,
        manifest,
        # one relative tolerance for everything: deterministic work.*
        # counters pass it trivially, throughputs and attribution
        # shares get the same noise allowance as wall times
        accuracy_tolerance=args.runtime_tolerance,
        runtime_tolerance=args.runtime_tolerance,
        min_runtime_seconds=args.min_runtime_seconds,
    )
    print(diff.render())
    return 0 if diff.ok else 1


def _jsonable(obj):
    """Recursively convert dataclasses/tuples to JSON-safe structures."""
    from .obs.report import jsonable

    return jsonable(obj)


def _run_verify() -> None:
    """Model self-check: measure a sample of every entry (ibench-style)
    and flag data inconsistencies."""
    from .bench.ibench import verify_model
    from .machine import available_models, get_machine_model

    for name in available_models():
        model = get_machine_model(name)
        report = verify_model(model, sample_every=7)
        status = "OK" if not report["violations"] else "INCONSISTENT"
        print(
            f"{name:14s} checked {report['checked']:4d} entries "
            f"(skipped {report['skipped']}): {status}"
        )
        for v in report["violations"]:
            print(f"    VIOLATION: {v}")
        for s in report["interference"][:5]:
            print(f"    note (slower than bound, likely chain-bound): {s}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(analyze_main())
