"""One benchmark run: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  ``--out FILE`` also writes the full record (every
metric, sample counts, digests, trace health).  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Optional

from . import DEFAULT_SEED, WORKDIR, WORKLOADS, use_checkout_src
from .metrics import END_TO_END, EXTRA
from .stats import percentile, supported_percentile

#: set-ups per run; set-up time is reported as their median
SETUP_REPEATS = 3

#: limits a traced run checks on itself: the summed ``engine.evaluate``
#: spans against ``EngineMetrics.busy_seconds``, the share of timed wall
#: inside root spans, and what tracing costs
BUSY_TOLERANCE = 0.05
MIN_COVERAGE = 0.95
MAX_OVERHEAD = 0.15

#: length of each untraced/traced slice of a traced serving run
SERVE_SLICE_S = 0.5

_now = time.monotonic_ns


def _launch_ns() -> int:
    """When this process started, on the ``time.monotonic_ns`` clock."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        age = 0.0
    return _now() - int(age * 1e9)


_LAUNCH = _launch_ns()


def _peak_rss_mb() -> float:
    """Max RSS of this process or of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _window_s(replies) -> float:
    """Seconds from the first request sent to the last reply read."""
    return (max(r.t1 for r in replies) - min(r.t0 for r in replies)) / 1e9


def _latency(values: list[float]) -> dict[str, Any]:
    """Median, p99 and the highest percentile the sample supports."""
    tail = supported_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "p99": percentile(values, 99),
        "supported_percentile": tail,
        "supported_value": percentile(values, tail) if tail else None,
    }


class Run:
    """State of one run, filled in as it goes."""

    def __init__(self, args: argparse.Namespace):
        from .workloads import Context

        self.args = args
        self.name = args.workload
        WORKDIR.mkdir(exist_ok=True)
        scratch = WORKDIR / "tmp"
        scratch.mkdir(exist_ok=True)
        # keep every temporary file of the run (and of the daemon and the
        # pool workers, which inherit the environment) inside the checkout
        os.environ["TMPDIR"] = str(scratch)
        tempfile.tempdir = None
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=scratch))
        expected = json.loads((Path(__file__).parent / "expected.json").read_text())
        self.ctx = Context(args.seed, args.quick, self.workdir, expected)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.detail: dict[str, Any] = {}

    # -- helpers --------------------------------------------------------

    def _make(self):
        from .workloads import SWEEPS, ServeMixed

        if self.name == "serve_mixed":
            return ServeMixed(self.ctx, self.args.seconds)
        return SWEEPS[self.name](self.ctx)

    def _setup(self, wl) -> float:
        """Set up *wl* SETUP_REPEATS times; the set-up time of this run."""
        ready = _now()
        times = []
        for _ in range(SETUP_REPEATS):
            # stopping the previous set-up's daemon is not set-up work
            wl.close()
            t0 = _now()
            wl.setup()
            times.append((_now() - t0) / 1e9)
        self.detail["setup_repeats_s"] = times
        self.detail["launch_to_ready_s"] = (ready - _LAUNCH) / 1e9
        return (ready - _LAUNCH) / 1e9 + statistics.median(times)

    def _check_ops(self, wl, ops) -> None:
        expected = wl.expected()
        digests = sorted({op.digest for op in ops})
        self.detail["digests"] = digests
        if len(digests) != 1:
            self.problems.append(f"sweeps disagree: {digests}")
        if expected is not None and digests != [expected]:
            self.problems.append(f"digest {digests} != expected {expected}")
        for op in ops:
            self.attempted += op.units
            self.failed += op.failed
            self.problems.extend(op.problems)

    # -- untraced -------------------------------------------------------

    def measure(self) -> None:
        wl = self._make()
        try:
            setup_s = self._setup(wl)
            wl.warmup()
            if self.name == "serve_mixed":
                self._serve(wl, setup_s)
            else:
                self._sweeps(wl, setup_s)
        finally:
            wl.close()
        self._daemon_exits(wl)
        self.metrics["peak_rss_mb"] = _peak_rss_mb()
        self.metrics["error_rate"] = self.failed / max(self.attempted, 1)

    def _sweeps(self, wl, setup_s: float) -> None:
        ops = []
        start = _now()
        while not ops or _now() - start < self.args.seconds * 1e9:
            ops.append(wl.op())
        self._check_ops(wl, ops)
        ms = [op.seconds * 1e3 for op in ops]
        lat = _latency(ms)
        self.detail["latency_ms"] = lat
        self.metrics.update(
            setup_s=setup_s,
            units_per_s=ops[0].units / (lat["p50"] / 1e3),
        )

    def _serve(self, wl, setup_s: float) -> None:
        replies = wl.measure(self.args.seconds)
        failed, problems = wl.check(replies)
        self.attempted += len(replies)
        self.failed += failed
        self.problems.extend(problems)
        ok = [r for r in replies if r.status == 200]
        stream = wl.inputs.stream
        hot_ms = [r.ms for r in ok if stream[r.index].hot >= 0]
        cold_ms = [r.ms for r in ok if stream[r.index].hot < 0]
        every = _latency([r.ms for r in ok])
        self.detail.update(
            latency_ms=every, hot_ms=_latency(hot_ms), cold_ms=_latency(cold_ms)
        )
        rate = len(ok) / _window_s(replies)
        self.metrics.update(
            setup_s=setup_s,
            units_per_s=rate,
            latency_p50_ms=every["p50"],
            latency_p99_ms=every["p99"],
            hot_p99_ms=percentile(hot_ms, 99),
            cold_p50_ms=percentile(cold_ms, 50),
            cold_p90_ms=percentile(cold_ms, 90),
        )

    def _daemon_exits(self, wl) -> None:
        bad = [c for c in getattr(wl, "exit_codes", []) if c != 0]
        if bad:
            self.problems.append(f"repro-serve exited with {bad}")

    # -- traced ---------------------------------------------------------

    def trace(self) -> None:
        from .layers import busy_seconds, layer_metrics, window_of
        from .tracing import chrome_trace, load_jsonl

        trace_dir = self.workdir / "spans"
        trace_dir.mkdir()
        wl = self._make()
        try:
            if self.name == "serve_mixed":
                spans, layer_args = self._trace_serve(wl, trace_dir)
            else:
                spans, layer_args = self._trace_sweeps(wl, trace_dir)
        finally:
            wl.close()
        self._daemon_exits(wl)
        # keep what ran inside the timed windows (not the daemon's priming)
        windows = layer_args["windows"]
        spans = [
            s for s in spans + load_jsonl(trace_dir)
            if window_of(windows, s.t0) >= 0
        ]

        self.metrics = layer_metrics(spans, **layer_args)
        self._check_trace(*busy_seconds(spans))
        engines = {s.pid for s in spans if s.name == "engine.run"}
        names = {
            s.pid: "repro-serve" if s.pid in engines else "pool worker"
            for s in spans
        }
        names[os.getpid()] = f"perfbench {self.name}"
        quick = "-quick" if self.args.quick else ""
        out = WORKDIR / f"trace-{self.name}-{self.args.seed}{quick}.json"
        out.write_text(json.dumps(chrome_trace(spans, names)))
        self.detail["trace_file"] = str(out)
        self.detail["spans"] = len(spans)

    def _check_trace(self, evaluate_s: float, engine_s: float) -> None:
        """Check the trace itself.  A miss says the per-layer numbers are
        less trustworthy, not that the program's outputs are wrong, so it
        is reported as a warning and in ``detail["health"]``."""
        health = []
        if engine_s > 0 and abs(evaluate_s - engine_s) > BUSY_TOLERANCE * engine_s:
            health.append(
                f"engine.evaluate spans sum to {evaluate_s:.3f} s but the "
                f"engine measured {engine_s:.3f} s busy"
            )
        if self.metrics["trace.coverage"] < MIN_COVERAGE:
            health.append(f"trace.coverage {self.metrics['trace.coverage']:.3f} "
                          f"< {MIN_COVERAGE}")
        if self.metrics["trace.overhead"] > MAX_OVERHEAD:
            health.append(f"trace.overhead {self.metrics['trace.overhead']:.3f} "
                          f"> {MAX_OVERHEAD}")
        self.detail["busy_check"] = {
            "evaluate_spans_s": evaluate_s, "engine_busy_s": engine_s,
        }
        self.detail["health"] = health

    def _trace_sweeps(self, wl, trace_dir: Path):
        from .layers import coverage
        from .tracing import Recorder, Tracer

        recorder = Recorder(trace_dir)
        tracer = Tracer(recorder)
        wl.setup()
        wl.warmup()
        plain, traced, spans = [], [], []
        start = _now()
        # alternate untraced and traced sweeps, so drift hits both alike
        while (not traced or len(plain) != len(traced)
               or _now() - start < self.args.seconds * 1e9):
            if len(plain) == len(traced):
                plain.append(wl.op())
                continue
            tracer.install()
            try:
                traced.append(wl.op())
            finally:
                tracer.uninstall()
            spans += recorder.collect()
        self._check_ops(wl, plain + traced)
        overhead = (
            statistics.median(op.seconds for op in traced)
            / statistics.median(op.seconds for op in plain) - 1
        )
        tid = threading.get_ident()
        cov = coverage(spans, os.getpid(), [(tid, op.t0, op.t1) for op in traced])
        self.detail["sweeps"] = {"untraced": len(plain), "traced": len(traced)}
        return spans, dict(
            ops=len(traced), windows=[(op.t0, op.t1) for op in traced],
            overhead=overhead, coverage_ratio=cov,
        )

    def _trace_serve(self, wl, trace_dir: Path):
        from .layers import ClientRequest, coverage
        from .tracing import Span

        # an untraced and a traced daemon serve the same stream in
        # alternating slices, so the machine's slow spells hit both alike
        wl.setup()
        wl.daemons.append(wl.start(trace_dir))
        slices: tuple[list, list] = ([], [])
        start = _now()
        while _now() - start < self.args.seconds * 1e9:
            for k in (0, 1):
                done = sum(len(s) for s in slices[k])
                slices[k].append(wl.measure(SERVE_SLICE_S, k, done))
            if not slices[0][-1] or not slices[1][-1]:
                break  # the stream ran out
        wl.stop()
        plain, traced = ([r for s in side for r in s] for side in slices)
        for replies in (plain, traced):
            failed, problems = wl.check(replies)
            self.attempted += len(replies)
            self.failed += failed
            self.problems.extend(problems)
        common = min(len(plain), len(traced))
        if [r.cpi for r in plain[:common]] != [r.cpi for r in traced[:common]]:
            self.problems.append("traced and untraced replies differ")

        def per_request_s(side) -> float:
            return sum(_window_s(s) for s in side if s) / sum(len(s) for s in side)

        stream = wl.inputs.stream
        pid = os.getpid()
        spans = [
            Span(pid, -1 - r.index, 0, "serve.request", r.t0, r.t1, r.tid,
                 stream[r.index].rid, {"status": r.status, "cached": r.cached})
            for r in traced
        ]
        windows = [(s[0].t0, max(r.t1 for r in s)) for s in slices[1] if s]
        client_windows = [
            (tid, min(r.t0 for r in s if r.tid == tid), max(r.t1 for r in s if r.tid == tid))
            for s in slices[1] if s for tid in {r.tid for r in s}
        ]
        requests = [
            ClientRequest(stream[r.index].rid, r.t0, r.t1, bool(r.cached))
            for r in traced if r.status == 200
        ]
        self.detail["requests"] = {"untraced": len(plain), "traced": len(traced)}
        return spans, dict(
            ops=len(traced),
            windows=windows,
            overhead=per_request_s(slices[1]) / per_request_s(slices[0]) - 1,
            coverage_ratio=coverage(spans, pid, client_windows),
            requests=requests,
        )

    # -- output ---------------------------------------------------------

    def _units(self, extra: bool) -> dict[str, str]:
        """Name → unit of the metrics this run reports: with *extra*, also
        the end-to-end metrics that are not in BENCHMARK.json."""
        if self.args.trace:
            from .layers import PER_LAYER

            return PER_LAYER
        return {
            m.name: m.unit for m in END_TO_END + (EXTRA if extra else ())
            if m.workloads is None or self.name in m.workloads
        }

    def result_line(self) -> dict[str, Any]:
        units = self._units(extra=False)
        return {
            "correct": self.correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def record(self) -> dict[str, Any]:
        """The full record written by ``--out``."""
        units = self._units(extra=True)
        return {
            "workload": self.name,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "quick": self.args.quick,
            "trace": bool(self.args.trace),
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "metrics": {k: self.metrics[k] for k in units},
            "units": units,
            "detail": self.detail,
        }


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="small inputs (tests and smoke runs)")
    p.add_argument("--out", type=Path, help="also write the full record here")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_src()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        run.trace() if args.trace else run.measure()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    if args.out:
        args.out.write_text(json.dumps(run.record(), indent=1))
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for warning in run.detail.get("health", []):
        print(f"perfbench: trace health: {warning}", file=sys.stderr)
    print(json.dumps(run.result_line()))
    return 0 if run.correct else 1
