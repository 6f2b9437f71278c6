"""Deterministic load generator + serving benchmark (`repro-serve-bench`).

Three scenarios drive a real in-process daemon (:class:`ServerThread`,
real sockets, real HTTP framing) with a corpus drawn from the seeded
kernel fuzzer — pure in ``(seed, index)``, so every run replays the
same requests:

* **serve_hot** — a primed working set served repeatedly: the cache
  hot path.  Gates: availability 1.0, zero errors, cache hit rate 1.0.
* **serve_cold** — unique blocks straight through the batch path.
  Gates: availability 1.0, zero errors.
* **serve_overload** — a barrier-synchronized burst against a
  deliberately tiny admission queue.  The point is *backpressure*:
  the scenario errors out (→ status regression in the manifest diff)
  unless at least one request was shed with 429, and every request
  must still get a structured answer.

Latency stats are client-observed (request write → response read) and
named ``*_seconds`` so the manifest diff treats them as
lower-is-better with the noise floor of its relative tolerance;
deliberately load-dependent counts (how *many* requests got 429)
carry neutral names so run-to-run scheduling noise can never flap the
``repro-report --check`` gate.
"""

from __future__ import annotations

import http.client
import json
import queue as queue_mod
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from ..fuzz.generator import generate_fuzz_corpus
from ..obs.report import build_manifest
from .daemon import ServeConfig, ServerThread

#: default corpus seed — a nod to OSACA (arXiv:1809.00912)
DEFAULT_SEED = 1809


@dataclass
class Response:
    """One client-observed exchange."""

    status: int
    seconds: float
    body: dict[str, Any]
    cached: bool = False


# ---------------------------------------------------------------------------
# HTTP client pool
# ---------------------------------------------------------------------------


def _post_once(
    conn: http.client.HTTPConnection,
    payload: dict[str, Any],
    headers: dict[str, str],
) -> Response:
    raw = json.dumps(payload).encode("utf-8")
    t0 = time.perf_counter()
    conn.request(
        "POST", "/v1/analyze", body=raw,
        headers={"Content-Type": "application/json", **headers},
    )
    resp = conn.getresponse()
    data = resp.read()
    seconds = time.perf_counter() - t0
    body = json.loads(data) if data else {}
    return Response(
        status=resp.status,
        seconds=seconds,
        body=body,
        cached=bool(body.get("cached")),
    )


def run_load(
    port: int,
    payloads: list[dict[str, Any]],
    *,
    concurrency: int = 8,
    headers: Optional[dict[str, str]] = None,
    barrier_start: bool = False,
) -> list[Response]:
    """Fire *payloads* at the daemon; responses in submission order.

    Each worker thread owns one keep-alive connection.  With
    ``barrier_start`` every worker holds its first request until all
    are connected — the synchronized burst the overload scenario needs
    to make queue-full rejections certain rather than probabilistic.
    """
    headers = headers or {}
    n = len(payloads)
    results: list[Optional[Response]] = [None] * n
    work: "queue_mod.Queue[int]" = queue_mod.Queue()
    for i in range(n):
        work.put(i)
    workers = min(concurrency, n) if n else 0
    barrier = threading.Barrier(workers) if barrier_start and workers else None

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        first = True
        try:
            while True:
                try:
                    i = work.get_nowait()
                except queue_mod.Empty:
                    return
                if first and barrier is not None:
                    barrier.wait(timeout=30)
                first = False
                try:
                    results[i] = _post_once(conn, payloads[i], headers)
                except (http.client.HTTPException, OSError):
                    # keep-alive raced a server-side close: one retry
                    # on a fresh connection, then record the failure
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=120
                    )
                    try:
                        results[i] = _post_once(conn, payloads[i], headers)
                    except (http.client.HTTPException, OSError) as exc:
                        results[i] = Response(
                            status=599, seconds=0.0,
                            body={"error": {"message": str(exc)}},
                        )
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
        for i in range(workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [r for r in results if r is not None]


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def _latency_stats(responses: list[Response]) -> dict[str, float]:
    lat = sorted(r.seconds for r in responses)
    return {
        "latency_p50_seconds": round(_quantile(lat, 0.50), 6),
        "latency_p99_seconds": round(_quantile(lat, 0.99), 6),
        "latency_max_seconds": round(lat[-1] if lat else 0.0, 6),
    }


def _payloads(
    seed: int, count: int, *, backend: str = "model",
    opts: Optional[dict[str, Any]] = None,
) -> list[dict[str, Any]]:
    kernels = generate_fuzz_corpus(seed, count)
    out = []
    for k in kernels:
        p: dict[str, Any] = {
            "assembly": k.assembly,
            "arch": k.machine,
            "backend": backend,
            "label": k.label,
        }
        if opts:
            p["opts"] = dict(opts)
        out.append(p)
    return out


def _require_all_ok(responses: list[Response], where: str) -> None:
    bad = [r for r in responses if r.status != 200]
    if bad:
        first = bad[0]
        raise RuntimeError(
            f"{where}: {len(bad)}/{len(responses)} requests failed; "
            f"first: HTTP {first.status} {first.body.get('error')}"
        )


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def scenario_hot(
    *, seed: int, tmp: Path, quick: bool = False
) -> dict[str, Any]:
    """Primed working set served repeatedly — the cache hot path.

    Hits are answered on the daemon's event loop in well under a
    millisecond, so the measured pass sends 6,000 of them: about a
    second at the ~5,000 req/s a 2-vCPU host reaches, long enough for
    the gate to resolve a change.
    """
    unique = 4 if quick else 8
    passes = 2 if quick else 750
    cfg = ServeConfig(
        port=0, jobs=2, cache_dir=str(tmp / "cache-hot"), batch_max=8
    )
    payloads = _payloads(seed, unique)
    with ServerThread(cfg) as st:
        prime = run_load(st.port, payloads, concurrency=1)
        _require_all_ok(prime, "hot prime pass")
        t0 = time.perf_counter()
        measured = run_load(st.port, payloads * passes, concurrency=8)
        wall = time.perf_counter() - t0
    _require_all_ok(measured, "hot measured pass")
    hits = sum(1 for r in measured if r.cached)
    return {
        "work": {
            "requests": len(measured),
            "errors": 0,
            "availability": 1.0,
            "cache_hit_rate": hits / len(measured),
        },
        "perf": {
            "requests_per_second": round(len(measured) / wall, 3),
            **_latency_stats(measured),
        },
    }


def scenario_cold(
    *, seed: int, tmp: Path, quick: bool = False
) -> dict[str, Any]:
    """Unique blocks straight through the engine batch path."""
    unique = 8 if quick else 24
    cfg = ServeConfig(
        port=0, jobs=2, cache_dir=str(tmp / "cache-cold"), batch_max=8
    )
    # offset the seed stream so cold blocks never alias hot ones
    payloads = _payloads(seed + 1, unique)
    with ServerThread(cfg) as st:
        t0 = time.perf_counter()
        measured = run_load(st.port, payloads, concurrency=8)
        wall = time.perf_counter() - t0
    _require_all_ok(measured, "cold pass")
    hits = sum(1 for r in measured if r.cached)
    return {
        "work": {
            "requests": len(measured),
            "errors": 0,
            "availability": 1.0,
            "cache_hit_rate": hits / len(measured),
        },
        "perf": {
            "requests_per_second": round(len(measured) / wall, 3),
            **_latency_stats(measured),
        },
    }


def scenario_overload(
    *, seed: int, tmp: Path, quick: bool = False
) -> dict[str, Any]:
    """A synchronized burst against a tiny queue: backpressure check.

    Queue capacity 2 + ``jobs`` (2) in-service batches of 2 means a
    burst of 16 slow requests *must* shed at least 10 with 429 —
    queuing them all would be the unbounded-buffering failure mode this
    daemon exists to avoid.  How many exactly is scheduling-dependent,
    so only the *existence* of 429s (and everyone getting a structured
    answer) gates; counts are recorded under neutral names.
    """
    burst = 8 if quick else 16
    cfg = ServeConfig(
        port=0,
        jobs=2,
        cache_dir=str(tmp / "cache-overload"),
        queue_capacity=2,
        batch_max=2,
        request_timeout=60.0,
    )
    payloads = _payloads(
        seed + 2, burst, backend="sim",
        opts={"iterations": 60 if quick else 150},
    )
    with ServerThread(cfg) as st:
        responses = run_load(
            st.port, payloads, concurrency=burst, barrier_start=True
        )
    counts: dict[int, int] = {}
    for r in responses:
        counts[r.status] = counts.get(r.status, 0) + 1
    unanswered = counts.get(599, 0)
    if unanswered:
        raise RuntimeError(
            f"overload: {unanswered} request(s) got no structured answer"
        )
    if not counts.get(429):
        raise RuntimeError(
            f"overload: no 429 observed (statuses: {counts}) — "
            "admission control failed to shed the burst"
        )
    retry_after_seen = any(
        "retry_after" in (r.body.get("error") or {})
        for r in responses
        if r.status == 429
    )
    if not retry_after_seen:
        raise RuntimeError("overload: 429 responses carried no retry_after")
    return {
        "work": {
            "requests": len(responses),
            "answered": len(responses) - unanswered,
            "http_200": counts.get(200, 0),
            "http_429": counts.get(429, 0),
            "http_5xx": sum(
                v for k, v in counts.items() if 500 <= k < 600
            ),
        },
        "perf": _latency_stats([r for r in responses if r.status == 200]),
    }


SCENARIOS: dict[str, Callable[..., dict[str, Any]]] = {
    "serve_hot": scenario_hot,
    "serve_cold": scenario_cold,
    "serve_overload": scenario_overload,
}


# ---------------------------------------------------------------------------
# the benchmark runner
# ---------------------------------------------------------------------------


def run_serve_bench(
    scenarios: Optional[list[str]] = None,
    *,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    echo: bool = False,
) -> dict[str, Any]:
    """Run the serving scenarios; return a run-report manifest.

    A scenario that raises is recorded with ``status: "error"`` and
    listed under ``failures`` — against a baseline where it was
    ``"ok"``, that is a status regression and fails the check gate.
    """
    names = scenarios or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {unknown}; known: {sorted(SCENARIOS)}"
        )
    benchmarks: dict[str, dict[str, Any]] = {}
    failures: list[str] = []
    wall_t0 = time.perf_counter()
    cpu_t0 = time.process_time()
    for name in names:
        if echo:
            print(f"  {name} ...", flush=True)
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix=f"repro-{name}-") as tmp:
            try:
                stats = SCENARIOS[name](
                    seed=seed, tmp=Path(tmp), quick=quick
                )
                benchmarks[name] = {
                    "status": "ok",
                    "seconds": round(time.perf_counter() - t0, 3),
                    "stats": stats,
                }
            except Exception as exc:  # noqa: BLE001 — record, keep going
                failures.append(name)
                benchmarks[name] = {
                    "status": "error",
                    "seconds": round(time.perf_counter() - t0, 3),
                    "error": f"{type(exc).__name__}: {exc}",
                }
        if echo:
            b = benchmarks[name]
            print(
                f"  {name}: {b['status']} in {b['seconds']}s", flush=True
            )
    return build_manifest(
        command="repro-serve-bench",
        config={
            "seed": seed,
            "quick": quick,
            "scenarios": names,
        },
        benchmarks=benchmarks,
        wall_seconds=time.perf_counter() - wall_t0,
        cpu_seconds=time.process_time() - cpu_t0,
        failures=failures,
    )


def render_summary(manifest: dict[str, Any]) -> str:
    """Human-readable per-scenario summary for the console."""
    lines = []
    for name, b in manifest.get("benchmarks", {}).items():
        if b.get("status") != "ok":
            lines.append(f"{name:<16} ERROR  {b.get('error', '')}")
            continue
        stats = b.get("stats", {})
        work = stats.get("work", {})
        perf = stats.get("perf", {})
        bits = [f"{name:<16} {b['seconds']:>7.3f}s"]
        if "requests_per_second" in perf:
            bits.append(f"{perf['requests_per_second']:>8.1f} req/s")
        if "latency_p50_seconds" in perf:
            bits.append(
                f"p50 {perf['latency_p50_seconds'] * 1e3:7.2f} ms  "
                f"p99 {perf['latency_p99_seconds'] * 1e3:7.2f} ms"
            )
        if "cache_hit_rate" in work:
            bits.append(f"hit {work['cache_hit_rate']:.2f}")
        if "http_429" in work:
            bits.append(
                f"429s {work['http_429']}/{work['requests']}"
            )
        lines.append("  ".join(bits))
    return "\n".join(lines)
