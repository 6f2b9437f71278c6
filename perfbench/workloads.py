"""The four workloads: set-up, one timed operation, and output checks.

Only the public entry points of ``repro`` are timed: ``fig3.run`` and
``run_differential`` in this process, and ``POST /v1/analyze`` against a
``repro-serve`` subprocess.  Every engine runs with ``jobs=2``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro import lowering
from repro.bench import fig3
from repro.engine import CorpusEngine, cache_key
from repro.fuzz import build_triage_manifest, manifest_digest, run_differential
from repro.kernels import enumerate_corpus

from . import JOBS, ROOT
from .inputs import COLD_EVERY, ServeInputs, serve_inputs, stratified_kernels

_now = time.monotonic_ns

#: fuzz kernels per timed sweep and per warm-up sweep (full, quick)
FUZZ_COUNT = {"full": (300, 30), "quick": (24, 8)}

#: hot (kernel, backend) pairs of the serving mix (full, quick)
HOT_PAIRS = {"full": 64, "quick": 8}

#: requests per second the serving stream is sized for (six times the
#: rate measured at the benchmark's introduction); a run that exhausts
#: the stream ends its window early
STREAM_RATE = 600

#: client connections driving the daemon (one per core)
CONNECTIONS = 2

#: seconds the daemon may take to print its listening line
READY_TIMEOUT = 60.0

#: requests per serving digest chunk
CHUNK = 100


@dataclass
class Context:
    seed: int
    quick: bool
    #: scratch directory of this run; removed when the run ends
    workdir: Path
    #: perfbench/expected.json
    expected: dict

    @property
    def mode(self) -> str:
        return "quick" if self.quick else "full"

    def scratch(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))


@dataclass
class Op:
    """One timed operation (a sweep)."""

    t0: int
    t1: int
    units: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return (self.t1 - self.t0) / 1e9


def _round(x: Optional[float]) -> Optional[float]:
    return None if x is None else round(x, 9)


def corpus_digest(result: "fig3.Fig3Result") -> str:
    """SHA-256 over (test_id, measurement, osaca, mca), rounded to 1e-9."""
    h = hashlib.sha256()
    for r in result.records:
        h.update(json.dumps([
            r.entry.test_id, _round(r.measurement),
            _round(r.prediction_osaca), _round(r.prediction_mca),
        ]).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def fig3_scope(quick: bool) -> dict:
    """``fig3.run`` arguments: the full corpus (416 units), or a 24-unit
    subset for quick runs."""
    if quick:
        return {"machines": ("spr", "genoa"), "kernels": ("striad",)}
    return {"machines": ("spr", "genoa", "gcs"), "kernels": None}


class _Fig3Sweep:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.scope = fig3_scope(ctx.quick)

    def expected(self) -> Optional[str]:
        # the Fig. 3 corpus does not depend on the seed
        return self.ctx.expected["corpus"][self.ctx.mode]

    def _run(self, engine: CorpusEngine, **overrides) -> "fig3.Fig3Result":
        return fig3.run(**{**self.scope, **overrides}, engine=engine)


class CorpusCold(_Fig3Sweep):
    """The Fig. 3 sweep as users run it: jobs=2, a fresh cache each time."""

    name = "corpus_cold"

    def setup(self) -> None:
        self.caches = self.ctx.scratch("cold-")

    def warmup(self) -> None:
        # one small sweep loads the parent-side modules; workers are
        # forked afresh by every batch either way
        cache = Path(tempfile.mkdtemp(dir=self.caches))
        self._run(CorpusEngine(jobs=JOBS, cache_dir=cache), kernels=("striad",))
        shutil.rmtree(cache)

    def op(self) -> Op:
        lowering.clear_memo()
        cache = Path(tempfile.mkdtemp(dir=self.caches))
        t0 = _now()
        result = self._run(CorpusEngine(jobs=JOBS, cache_dir=cache))
        t1 = _now()
        shutil.rmtree(cache)
        units = len(result.records) + result.skipped
        return Op(t0, t1, units, result.skipped, corpus_digest(result))

    def close(self) -> None:
        pass


class CorpusWarm(_Fig3Sweep):
    """The same units replayed against a cache primed during set-up."""

    name = "corpus_warm"

    def setup(self) -> None:
        cache = self.ctx.scratch("warm-")
        units = fig3.corpus_units(enumerate_corpus(**self.scope))
        # prime each distinct key once: 153 evaluations for 416 units
        digests: dict = {}
        distinct = {cache_key(u, digests): u for u in units}
        CorpusEngine(jobs=JOBS, cache_dir=cache).run(list(distinct.values()))
        self.engine = CorpusEngine(jobs=JOBS, cache_dir=cache)

    def warmup(self) -> None:
        self._run(self.engine)

    def op(self) -> Op:
        t0 = _now()
        result = self._run(self.engine)
        t1 = _now()
        units = len(result.records) + result.skipped
        op = Op(t0, t1, units, result.skipped, corpus_digest(result))
        if self.engine.metrics.cache_hits != units:
            op.problems.append(
                f"warm replay missed the cache on "
                f"{units - self.engine.metrics.cache_hits} of {units} units"
            )
        return op

    def close(self) -> None:
        pass


class FuzzHeldout:
    """A held-out, size-stratified fuzz sample; no cache, no shared work."""

    name = "fuzz_heldout"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.count, self.warm = FUZZ_COUNT[ctx.mode]

    def expected(self) -> Optional[str]:
        ref = self.ctx.expected
        return ref["fuzz"][self.ctx.mode] if self.ctx.seed == ref["seed"] else None

    def setup(self) -> None:
        self.corpus = stratified_kernels(self.ctx.seed + 2, self.count)

    def warmup(self) -> None:
        seed = self.ctx.seed + 3
        run_differential(
            stratified_kernels(seed, self.warm), seed=seed,
            engine=CorpusEngine(jobs=JOBS, error_policy="collect"),
        )

    def op(self) -> Op:
        lowering.clear_memo()
        engine = CorpusEngine(jobs=JOBS, error_policy="collect")
        t0 = _now()
        result = run_differential(
            self.corpus, seed=self.ctx.seed + 2, engine=engine
        )
        t1 = _now()
        digest = manifest_digest(build_triage_manifest(result))
        return Op(t0, t1, len(self.corpus), len(engine.failures), digest)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------


class Daemon:
    """A ``repro-serve`` subprocess, started through
    ``perfbench.serve_daemon`` (which adds the wrappers when traced)."""

    def __init__(self, ctx: Context, trace_dir: Optional[Path] = None):
        cache = ctx.scratch("serve-cache-")
        cmd = [sys.executable, "-m", "perfbench.serve_daemon"]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["--", "--port", "0", "--jobs", str(JOBS), "--cache", str(cache)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(cache.with_suffix(".log"), "w")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("repro-serve listening on"):
            self.stop()
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def stop(self) -> int:
        """Graceful SIGTERM drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


@dataclass
class Reply:
    index: int
    t0: int
    t1: int
    status: int
    tid: int
    cached: Optional[bool] = None
    cpi: Optional[float] = None

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) / 1e6


def _post(conn: http.client.HTTPConnection, index: int, body: bytes) -> Reply:
    t0 = _now()
    conn.request(
        "POST", "/v1/analyze", body=body,
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    data = resp.read()
    t1 = _now()
    reply = Reply(index, t0, t1, resp.status, threading.get_ident())
    if resp.status == 200:
        payload = json.loads(data)
        reply.cached = payload.get("cached")
        reply.cpi = payload.get("cycles_per_iteration")
    return reply


def drive(
    port: int, bodies: list[bytes], seconds: Optional[float] = None,
    start: int = 0,
) -> list[Reply]:
    """Closed loop over ``bodies[start:]`` in order from
    :data:`CONNECTIONS` keep-alive connections, each sending its next
    request when the previous reply is in.  With *seconds*, no request
    starts after the window; the replies are always a prefix of
    ``bodies[start:]``."""
    deadline = None if seconds is None else _now() + int(seconds * 1e9)
    replies: list[Optional[Reply]] = [None] * len(bodies)
    lock = threading.Lock()
    cursor = [start]

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while deadline is None or _now() < deadline:
                with lock:
                    i = cursor[0]
                    if i >= len(bodies):
                        return
                    cursor[0] = i + 1
                try:
                    replies[i] = _post(conn, i, bodies[i])
                except (http.client.HTTPException, OSError):
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=120
                    )
                    replies[i] = Reply(i, _now(), _now(), 599, threading.get_ident())
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [r for r in replies if r is not None]


def chunk_digests(rows: list[tuple[str, str, float]]) -> list[str]:
    """Digest of (request id, backend, cycles/iteration) rows per
    complete chunk of :data:`CHUNK` consecutive requests."""
    return [
        hashlib.sha256(json.dumps([
            [rid, backend, _round(cpi)]
            for rid, backend, cpi in rows[c * CHUNK:(c + 1) * CHUNK]
        ]).encode()).hexdigest()[:16]
        for c in range(len(rows) // CHUNK)
    ]


class ServeMixed:
    """Mixed hot/cold load on one daemon from two closed-loop clients."""

    name = "serve_mixed"

    def __init__(self, ctx: Context, seconds: float):
        self.ctx = ctx
        self.hot_pairs = HOT_PAIRS[ctx.mode]
        self.length = int(STREAM_RATE * seconds) + COLD_EVERY
        self.daemons: list[Daemon] = []
        self.inputs: Optional[ServeInputs] = None
        self.bodies: list[bytes] = []
        self.primed: list[Optional[float]] = []
        self.exit_codes: list[int] = []

    def expected(self) -> Optional[list[str]]:
        ref = self.ctx.expected
        return ref["serve"][self.ctx.mode] if self.ctx.seed == ref["seed"] else None

    def setup(self) -> None:
        """Generate the inputs and start one primed daemon."""
        self.stop()
        self.inputs = serve_inputs(self.ctx.seed, self.hot_pairs, self.length)
        self.bodies = [r.body for r in self.inputs.stream]
        self.daemons = [self.start()]

    def start(self, trace_dir: Optional[Path] = None) -> Daemon:
        """A daemon on a fresh cache, its hot pairs primed through it."""
        daemon = Daemon(self.ctx, trace_dir)
        prime = drive(daemon.port, self.inputs.prime_bodies)
        bad = [r for r in prime if r.status != 200 or r.cached is not False]
        primed = [r.cpi for r in prime]
        if bad or len(prime) != self.hot_pairs or self.primed not in ([], primed):
            daemon.stop()
            raise RuntimeError(f"priming the hot set failed: {bad[:3]}")
        self.primed = primed
        return daemon

    def warmup(self) -> None:
        pass

    def measure(self, seconds: float, daemon: int = 0, start: int = 0) -> list[Reply]:
        return drive(self.daemons[daemon].port, self.bodies, seconds, start)

    def check(self, replies: list[Reply]) -> tuple[int, list[str]]:
        """(failed requests, problems) of one measured window."""
        failed = 0
        problems: list[str] = []
        for r in replies:
            req = self.inputs.stream[r.index]
            if r.status != 200 or r.cpi is None:
                failed += 1
            elif req.hot >= 0 and (r.cached is not True or r.cpi != self.primed[req.hot]):
                problems.append(f"{req.rid}: hot reply {r.cpi} cached={r.cached}")
            elif req.hot < 0 and r.cached is not False:
                problems.append(f"{req.rid}: cold request answered from cache")
        expected = self.expected()
        if expected is not None and not failed:
            stream = self.inputs.stream
            got = chunk_digests([
                (stream[r.index].rid, stream[r.index].backend, r.cpi)
                for r in replies
            ])
            for c, (a, b) in enumerate(zip(got, expected)):
                if a != b:
                    problems.append(f"digest of requests {c * CHUNK}+ is {a}, expected {b}")
        return failed, problems[:20]

    def stop(self) -> None:
        while self.daemons:
            self.exit_codes.append(self.daemons.pop().stop())

    def close(self) -> None:
        self.stop()


SWEEPS = {w.name: w for w in (CorpusCold, CorpusWarm, FuzzHeldout)}
