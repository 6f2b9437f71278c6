"""The ``repro-serve`` daemon: analysis-as-a-service over the engine.

One process serves throughput predictions over HTTP/JSON (stdlib
``asyncio`` only — request framing is hand-rolled HTTP/1.1 with
keep-alive, enough for curl/``http.client``/load balancers, on purpose
not a web framework).  Every ``POST /v1/analyze`` body becomes one
engine work unit, so serving inherits the platform's robustness
machinery wholesale:

* the **content-addressed result cache** answers repeat requests on
  the event loop, before admission: a hit never queues, never waits
  for the engine, and never touches a worker (the hot path under real
  traffic);
* the **bounded admission queue** (:mod:`.admission`) refuses overload
  with 429 + ``Retry-After`` instead of buffering it;
* **per-request deadlines** shed work whose client has stopped caring
  (504), and the engine's ``unit_timeout`` converts in-worker hangs to
  :class:`~repro.engine.errors.UnitTimeoutError` (also 504);
* **per-backend circuit breakers** (:mod:`.breaker`) turn a
  persistently failing backend into fast 503s;
* the engine's ``collect``/``quarantine`` error policies isolate a
  crashing unit to *one* structured 500 while its worker is replaced;
* **SIGTERM/SIGINT drain**: stop admitting, finish in-flight work up
  to a drain deadline, flush a run-report manifest, exit 0.

Threading model: the asyncio loop owns all daemon state.  It answers
cache hits itself: it builds the request's cache key and reads the
entry through the daemon's own :class:`~repro.engine.cache.ResultCache`
on the engine's cache directory (entries are written atomically, so
the loop never reads a torn one), and touches no ``CorpusEngine``
state.  Misses are admitted, and up to ``jobs`` engine batches run at
once, each on its own thread of a ``jobs``-thread executor; they share
the engine's ``jobs`` worker *processes*, which evaluate every unit
(``--jobs 1`` runs one batch at a time).  While a request's miss is
admitted and unanswered, a second request with the same cache key
waits for it and then reads the cache, so a key is evaluated once at a
time.  Workers fork from the executor threads while the loop runs, so
no thread may import a module once serving starts (a worker forked
while another thread holds a module's import lock would inherit the
lock held forever): :meth:`ReproServer.start` imports and digests
every machine model, and imports the backend registry the cache key
reads, before the listener opens.  The engine enforces a unit deadline
by killing the worker, so with a ``unit_timeout`` (the default) the
daemon process never evaluates a request itself, at any ``jobs``: a
crash or a hang costs one worker and one structured 500 or 504.
Shutdown closes the engine once every in-flight batch has returned.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Optional

from ..context import current_context
from ..engine.cache import ResultCache
from ..engine.cachekey import cache_key
from ..engine.pool import CorpusEngine
from ..lowering.digests import machine_model_digest
from ..machine import available_models
from ..obs.metrics import LATENCY_BUCKETS
from ..obs.trace import (
    PID_SERVE,
    TID_SERVE_DISPATCH,
    TID_SERVE_LOOP,
    TID_SERVE_SLOT_BASE,
)
from .admission import AdmissionQueue, Ticket
from .breaker import BreakerBoard
from .protocol import (
    MAX_BODY_BYTES,
    SCHEMA,
    AnalyzeRequest,
    CircuitOpenError,
    DeadlineError,
    DrainingError,
    QueueFullError,
    ServeError,
    ValidationError,
    failure_body,
    parse_analyze_request,
    result_body,
    status_for_failure,
)

log = logging.getLogger("repro.serve")

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: keep-alive idle timeout per connection, in seconds
IDLE_TIMEOUT = 30.0
#: the engine's first retry delay, in seconds (doubling per retry)
RETRY_BACKOFF = 0.05


@dataclass
class ServeConfig:
    """Everything an operator can tune; see ``docs/serving.md``."""

    host: str = "127.0.0.1"
    port: int = 8472
    #: engine worker processes, and the most engine batches in flight
    jobs: int = 2
    cache_dir: Optional[str] = None
    #: "collect" or "quarantine" (quarantine needs a cache_dir)
    error_policy: str = "collect"
    #: admission queue capacity (429 beyond this)
    queue_capacity: int = 64
    #: max requests coalesced into one engine batch
    batch_max: int = 16
    #: default end-to-end deadline per request (queue wait + compute);
    #: clients may only shorten it via the ``X-Timeout`` header
    request_timeout: float = 30.0
    #: engine per-attempt deadline (hang -> UnitTimeoutError -> 504)
    unit_timeout: Optional[float] = 20.0
    max_retries: int = 1
    breaker_threshold: int = 5
    breaker_cooldown: float = 5.0
    #: how long a SIGTERM drain waits for in-flight work
    drain_deadline: float = 10.0
    #: run-report manifest flushed on drain (optional)
    manifest_path: Optional[str] = None


class ReproServer:
    """The daemon: listener + admission queue + dispatcher + engine."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        cfg = self.config
        self.engine = CorpusEngine(
            jobs=cfg.jobs,
            cache_dir=cfg.cache_dir,
            error_policy=cfg.error_policy,
            max_retries=cfg.max_retries,
            retry_backoff=RETRY_BACKOFF,
            unit_timeout=cfg.unit_timeout,
        )
        # the loop thread's own reader of the engine's cache (hits are
        # answered before admission); the engine's is its thread's alone
        self._cache = ResultCache(cfg.cache_dir) if cfg.cache_dir else None
        self._model_digests: dict[str, str] = {}
        self.queue = AdmissionQueue(
            capacity=cfg.queue_capacity, batch_max=cfg.batch_max
        )
        self.breakers = BreakerBoard(
            threshold=cfg.breaker_threshold, cooldown=cfg.breaker_cooldown
        )
        # the run context's registry, which the engine's batches and
        # their attempts' counters also land in
        self.registry = current_context().metrics
        # one thread per batch in flight; the batches share the
        # engine's workers while the loop stays responsive
        self._executor = ThreadPoolExecutor(
            max_workers=self.engine.jobs,
            thread_name_prefix="repro-serve-engine",
        )
        #: cache key -> done once the admitted request that evaluates
        #: that key is answered (see :meth:`_analyze`)
        self._inflight: dict[str, asyncio.Future] = {}
        self.draining = False
        self.stopped = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._dispatcher: Optional[asyncio.Task] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._started_monotonic = time.monotonic()
        self._batches = 0
        # validated analyze requests, for /stats: each is a loop hit,
        # admitted, or refused (queue full, breaker open)
        self._requests = 0
        self.port: Optional[int] = None  # actual port (for port=0)

        m = self.registry
        self._m_requests = m.counter(
            "serve.requests", "validated analyze requests (not draining)"
        )
        self._m_loop_hits = m.counter(
            "serve.loop_hits",
            "requests answered from the result cache on the event loop, "
            "without admission",
        )
        self._m_admitted = m.counter(
            "serve.admitted", "requests admitted to the queue"
        )
        self._m_rejected = m.counter(
            "serve.rejected", "requests refused with 429 (queue full)"
        )
        self._m_breaker_refused = m.counter(
            "serve.breaker_refused", "requests refused while a breaker is open"
        )
        self._m_drain_refused = m.counter(
            "serve.drain_refused", "requests refused during drain"
        )
        self._m_timeouts = m.counter(
            "serve.timeouts", "requests that hit their end-to-end deadline"
        )
        self._m_responses_2xx = m.counter(
            "serve.responses_2xx", "successful analysis responses"
        )
        self._m_responses_4xx = m.counter(
            "serve.responses_4xx", "client-error responses"
        )
        self._m_responses_5xx = m.counter(
            "serve.responses_5xx", "service-error responses"
        )
        self._m_cache_hits = m.counter(
            "serve.cache_hits",
            "responses answered from the result cache (on the loop or "
            "by the engine)",
        )
        self._m_batches = m.counter(
            "serve.batches", "engine batches dispatched"
        )
        self._m_depth = m.gauge(
            "serve.queue_depth", "admission queue depth"
        )
        self._m_latency = m.histogram(
            "serve.latency_seconds",
            "end-to-end request latency (validated request to response)",
            buckets=LATENCY_BUCKETS,
        )
        self._m_queue_wait = m.histogram(
            "serve.queue_wait_seconds",
            "admitted request's wait from admission to its batch's start",
            buckets=LATENCY_BUCKETS,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Import and digest every machine model, then bind the listener
        and start the dispatcher task."""
        cfg = self.config
        # what a request makes the loop thread import (its machine
        # model, the cache key's backend registry), imported before an
        # engine worker can fork: see the module docstring
        from .. import backends  # noqa: F401

        for name in available_models():
            self._model_digests[name] = machine_model_digest(name)
        self._drain_requested = asyncio.Event()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="repro-serve-dispatcher"
        )
        self._server = await asyncio.start_server(
            self._handle_conn, cfg.host, cfg.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        self._started_monotonic = time.monotonic()
        log.info("repro-serve listening on %s:%d", cfg.host, self.port)

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only; tests
        hosting the loop in a background thread call
        :meth:`request_drain` directly)."""
        if threading.current_thread() is not threading.main_thread():
            return
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.request_drain)

    def request_drain(self) -> None:
        """Flag a graceful drain (idempotent, loop-thread only)."""
        self.draining = True
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def run_until_drained(self) -> None:
        """Serve until a drain is requested, then shut down cleanly."""
        assert self._drain_requested is not None, "call start() first"
        await self._drain_requested.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful drain: stop admitting, finish in-flight work up to
        the drain deadline, flush metrics, release the engine."""
        if self.stopped:
            return
        self.draining = True
        log.info("draining: refusing new work, finishing in-flight")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.queue.close()
        if self._dispatcher is not None:
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._dispatcher),
                    timeout=self.config.drain_deadline,
                )
            except (asyncio.TimeoutError, TimeoutError):
                log.warning(
                    "drain deadline (%.1fs) expired with work in flight; "
                    "cancelling the dispatcher",
                    self.config.drain_deadline,
                )
                self._dispatcher.cancel()
                try:
                    await self._dispatcher
                except (asyncio.CancelledError, Exception):
                    pass
        # anything still unresolved gets a structured 503
        self._fail_pending(DrainingError("daemon shut down before dispatch"))
        # give handlers one loop turn to write their final responses,
        # then close idle keep-alive connections waiting for input
        await asyncio.sleep(0.05)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *self._conn_tasks, return_exceptions=True
            )
        await asyncio.to_thread(self._close_engine)
        if self.config.manifest_path:
            try:
                from ..obs.report import write_manifest

                write_manifest(
                    self.build_manifest(), self.config.manifest_path
                )
                log.info("flushed manifest to %s", self.config.manifest_path)
            except OSError as exc:
                log.warning("could not flush manifest: %s", exc)
        self.stopped = True
        log.info("drained cleanly")

    def _close_engine(self) -> None:
        """Close the engine once every in-flight batch has returned."""
        self._executor.shutdown(wait=True)
        self.engine.close()

    def _fail_pending(self, err: ServeError) -> None:
        for t in self.queue.drain_pending():
            self._release(t)
            if not t.future.done():
                t.future.set_exception(err)

    def build_manifest(self) -> dict[str, Any]:
        """Run-report manifest of this serving session (drain flush)."""
        from ..obs.report import build_manifest

        uptime = time.monotonic() - self._started_monotonic
        stats = self.stats()
        return build_manifest(
            command="repro-serve",
            config=asdict(self.config),
            benchmarks={"serving": {"stats": stats}},
            wall_seconds=uptime,
            cpu_seconds=time.process_time(),
            engine=self.engine,
            registry=self.registry,
            unit_failures=self.engine.failure_log,
        )

    # ------------------------------------------------------------------
    # HTTP framing
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request_line = await asyncio.wait_for(
                        reader.readline(), timeout=IDLE_TIMEOUT
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    break
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, path, version, headers = await self._read_head(
                        request_line, reader
                    )
                except ValueError:
                    await self._write_response(
                        writer, 400, {},
                        ValidationError("malformed HTTP request").to_body(),
                        close=True,
                    )
                    break

                length = int(headers.get("content-length", "0") or "0")
                if length > MAX_BODY_BYTES:
                    # refuse without reading: a body this large is the
                    # one thing we must not buffer
                    await self._write_response(
                        writer, 413, {},
                        _too_large(length).to_body(),
                        close=True,
                    )
                    break
                body = await reader.readexactly(length) if length else b""

                status, extra_headers, payload = await self.handle_request(
                    method, path, headers, body
                )
                close = (
                    headers.get("connection", "").lower() == "close"
                    or version == "HTTP/1.0"
                )
                # during a drain every response is the connection's
                # last — don't leave keep-alives lingering
                close = close or self.draining
                await self._write_response(
                    writer, status, extra_headers, payload, close=close
                )
                if close:
                    break
        except asyncio.CancelledError:
            pass  # drain closed an idle keep-alive connection
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away mid-request; nothing to answer
        except Exception:
            log.exception("connection handler error")
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                # An engine worker forked while this connection was open
                # holds a copy of its socket, so close() alone sends no
                # FIN; shutting down the write side does.
                if writer.can_write_eof():
                    writer.write_eof()
            except OSError:
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except (
                asyncio.CancelledError,
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):
                pass

    @staticmethod
    async def _read_head(
        request_line: bytes, reader: asyncio.StreamReader
    ) -> tuple[str, str, str, dict[str, str]]:
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ValueError("bad request line")
        method, path, version = parts
        headers: dict[str, str] = {}
        for _ in range(100):  # header-count bomb guard
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return method, path, version, headers
            key, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise ValueError("bad header line")
            headers[key.strip().lower()] = value.strip()
        raise ValueError("too many headers")

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        extra_headers: dict[str, str],
        payload: dict[str, Any] | str,
        *,
        close: bool = False,
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            ctype = "text/plain; charset=utf-8"
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
            ctype = "application/json"
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for k, v in extra_headers.items():
            head.append(f"{k}: {v}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    async def handle_request(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
    ) -> tuple[int, dict[str, str], dict[str, Any] | str]:
        """Route one request; never raises (errors become structured
        bodies).  Separated from the socket framing so tests can drive
        the daemon without a real connection."""
        try:
            if path == "/healthz":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._healthz()
            if path == "/readyz":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._readyz()
            if path == "/metrics":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return 200, {}, self.registry.render_text() + "\n"
            if path == "/stats":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return 200, {}, self.stats()
            if path == "/v1/analyze":
                if method != "POST":
                    return self._method_not_allowed("POST")
                return await self._analyze(headers, body)
            err = ServeError(f"no such route: {path}")
            err.status, err.code = 404, "not-found"
            return 404, {}, err.to_body()
        except ServeError as exc:
            hdrs = {}
            if exc.retry_after is not None:
                hdrs["Retry-After"] = f"{exc.retry_after:.3f}"
            self._count_status(exc.status)
            return exc.status, hdrs, exc.to_body()
        except Exception as exc:  # noqa: BLE001 — the daemon must not die
            log.exception("unhandled error serving %s %s", method, path)
            err = ServeError(f"internal error: {type(exc).__name__}: {exc}")
            self._count_status(500)
            return 500, {}, err.to_body()

    @staticmethod
    def _method_not_allowed(
        allow: str,
    ) -> tuple[int, dict[str, str], dict[str, Any]]:
        err = ServeError(f"use {allow} on this route")
        err.status, err.code = 405, "method-not-allowed"
        return 405, {"Allow": allow}, err.to_body()

    def _healthz(self) -> tuple[int, dict[str, str], dict[str, Any]]:
        """Liveness: is the dispatcher task still running?  (A dead
        dispatcher means admitted work would wait forever — restart.)"""
        alive = self._dispatcher is not None and not self._dispatcher.done()
        if alive or self.stopped or self.draining:
            return 200, {}, {"status": "ok", "draining": self.draining}
        return 500, {}, {"status": "dispatcher-dead"}

    def _readyz(self) -> tuple[int, dict[str, str], dict[str, Any]]:
        """Readiness: should a load balancer route traffic here?"""
        if self.draining:
            return 503, {}, {"status": "draining"}
        if self._dispatcher is None or self._dispatcher.done():
            return 503, {}, {"status": "dispatcher-dead"}
        if self.breakers.all_open():
            return 503, {}, {
                "status": "all-breakers-open",
                "breakers": self.breakers.snapshot(),
            }
        return 200, {}, {"status": "ready"}

    def stats(self) -> dict[str, Any]:
        t = self.engine.totals
        breakers = self.breakers.snapshot()
        return {
            "schema": SCHEMA,
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "draining": self.draining,
            "queue": self.queue.snapshot(),
            "breakers": breakers,
            "requests": {
                "total": self._requests,
                "cache_hits": (
                    0 if self._cache is None else self._cache.stats.hits
                ),
                "admitted": self.queue.admitted,
                "refused": self.queue.rejected
                + sum(b["refusals"] for b in breakers.values()),
            },
            "batches": self._batches,
            "engine": {
                "jobs": t.jobs,
                "total_units": t.total_units,
                "cache_hits": t.cache_hits,
                "evaluated": t.evaluated,
                "coalesced": t.coalesced,
                "failed": t.failed,
                "retries": t.retries,
                "worker_respawns": t.worker_respawns,
            },
        }

    # ------------------------------------------------------------------
    # the analyze path
    # ------------------------------------------------------------------

    async def _analyze(
        self, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, str], dict[str, Any]]:
        if self.draining:
            self._m_drain_refused.inc()
            raise DrainingError("daemon is draining; retry elsewhere")
        request = parse_analyze_request(body)

        timeout = self.config.request_timeout
        raw = headers.get("x-timeout")
        if raw:
            try:
                timeout = min(timeout, float(raw))
            except ValueError:
                raise ValidationError(
                    f"X-Timeout must be a number, got {raw!r}"
                ) from None
            if timeout <= 0:
                raise ValidationError("X-Timeout must be positive")

        start = time.monotonic()
        deadline = start + timeout
        key = (
            None if self._cache is None
            else cache_key(request.to_unit(), self._model_digests)
        )
        hit = self._cached_answer(request, key, start)
        # One evaluation per key at a time: a miss whose key an admitted
        # request holds waits for that request's batch, then reads the
        # cache again (a failed evaluation leaves it a miss).
        while hit is None and key in self._inflight:
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._inflight[key]),
                    timeout=deadline - time.monotonic(),
                )
            except (asyncio.TimeoutError, TimeoutError):
                break  # admitted below, it times out as a queued one does
            hit = self._cached_answer(request, key, start)
        if hit is not None:
            return 200, {}, hit
        if self.draining:  # the drain began while this request waited
            self._m_drain_refused.inc()
            raise DrainingError("daemon is draining; retry elsewhere")
        self._count_request()

        breaker = self.breakers.get(request.backend)
        probe = False
        if breaker.state != "closed":
            if not breaker.allow():
                self._m_breaker_refused.inc()
                raise CircuitOpenError(
                    f"backend {request.backend!r} breaker is "
                    f"{breaker.state}",
                    retry_after=breaker.retry_after() or 0.5,
                    detail={"backend": request.backend},
                )
            probe = True

        try:
            ticket = self.queue.submit(request, deadline=deadline)
        except Exception as exc:
            if probe:
                breaker.release_probe()
            if isinstance(exc, QueueFullError):
                self._m_rejected.inc()
            raise
        ticket.probe = probe  # type: ignore[attr-defined]
        if key is not None and key not in self._inflight:
            ticket.key = key
            self._inflight[key] = asyncio.get_running_loop().create_future()
        self._m_admitted.inc()
        self._m_depth.set(self.queue.depth())

        try:
            status, hdrs, payload = await asyncio.wait_for(
                asyncio.shield(ticket.future),
                timeout=deadline - time.monotonic(),
            )
        except (asyncio.TimeoutError, TimeoutError):
            ticket.abandoned = True
            if not ticket.dispatched:
                # the dispatcher will drop it unevaluated
                self._release(ticket)
            if probe:
                breaker.release_probe()
            self._m_timeouts.inc()
            self._m_latency.observe(time.monotonic() - start)
            raise DeadlineError(
                f"deadline of {timeout:.3f}s exceeded "
                f"(queue depth {self.queue.depth()})",
                detail={"label": request.label},
            ) from None
        self._m_latency.observe(time.monotonic() - start)
        self._count_status(status)
        return status, hdrs, payload

    def _cached_answer(
        self, request: AnalyzeRequest, key: Optional[str], start: float
    ) -> Optional[dict[str, Any]]:
        """The 200 body of a request whose result is in the cache, or
        ``None`` (a miss, or no cache: ``key`` is ``None``).  Runs on
        the loop thread: a hit skips the breakers, the queue and the
        executor, because a cached answer needs no backend.  A corrupt
        entry is moved aside by the cache and reads as a miss, so the
        engine evaluates it afresh."""
        if key is None:
            return None
        result = self._cache.get(key)
        if result is None:
            return None
        body = result_body(result, cached=True, seconds=0.0)
        self._count_request()
        self._m_loop_hits.inc()
        self._m_cache_hits.inc()
        seconds = time.monotonic() - start
        self._m_latency.observe(seconds)
        self._count_status(200)
        tracer = current_context().tracer
        if tracer is not None:
            tracer.serve_lanes(self.queue.batch_max)
            tracer.complete(
                f"req {request.label}", tracer.now_us() - seconds * 1e6,
                seconds * 1e6, PID_SERVE, TID_SERVE_LOOP, cat="request",
                args={
                    "backend": request.backend,
                    "arch": request.arch,
                    "cached": True,
                    "failed": False,
                    "queue_wait_us": 0,
                },
            )
        return body

    def _count_request(self) -> None:
        """Count a validated request, answered on the loop or admitted
        (or refused at admission)."""
        self._requests += 1
        self._m_requests.inc()

    def _release(self, ticket: Ticket) -> None:
        """End *ticket*'s hold on its cache key: the requests waiting
        for that key read the cache again."""
        if ticket.key is not None:
            self._inflight.pop(ticket.key).set_result(None)
            ticket.key = None

    def _count_status(self, status: int) -> None:
        if status < 300:
            self._m_responses_2xx.inc()
        elif status < 500:
            self._m_responses_4xx.inc()
        else:
            self._m_responses_5xx.inc()

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Start the next batch whenever fewer than ``jobs`` are in
        flight; return once the queue is closed and every batch has
        returned."""
        slots = asyncio.Semaphore(self.engine.jobs)
        running: set[asyncio.Task] = set()

        def finished(task: asyncio.Task) -> None:
            running.discard(task)
            slots.release()

        try:
            while True:
                await slots.acquire()
                batch = await self.queue.next_batch()
                if batch is None:
                    break
                for ticket in batch:
                    ticket.dispatched = True
                task = asyncio.get_running_loop().create_task(
                    self._serve_batch(batch)
                )
                running.add(task)
                task.add_done_callback(finished)
            await asyncio.gather(*running)
        except asyncio.CancelledError:
            for task in running:
                task.cancel()
            await asyncio.gather(*running, return_exceptions=True)
            raise

    async def _serve_batch(self, batch: list[Ticket]) -> None:
        try:
            await self._run_batch(batch)
        except asyncio.CancelledError:
            for t in batch:
                if not t.future.done():
                    t.future.set_exception(
                        DrainingError("drain deadline expired")
                    )
            raise
        except Exception as exc:  # noqa: BLE001 — keep dispatching
            log.exception("batch dispatch failed")
            err = ServeError(
                f"batch dispatch failed: {type(exc).__name__}: {exc}"
            )
            for t in batch:
                if not t.future.done():
                    t.future.set_exception(err)

    async def _run_batch(self, batch: list[Ticket]) -> None:
        loop = asyncio.get_running_loop()
        units = [t.request.to_unit() for t in batch]
        self._m_depth.set(self.queue.depth())
        self._batches += 1
        self._m_batches.inc()

        tracer = current_context().tracer
        tracing = tracer is not None
        if tracing:
            tracer.serve_lanes(self.queue.batch_max)
            t0_us = tracer.now_us()

        t0 = time.monotonic()
        for ticket in batch:
            self._m_queue_wait.observe(t0 - ticket.enqueued_at)
        try:
            outcomes = await loop.run_in_executor(
                self._executor,
                functools.partial(self.engine.run, units, outcomes=True),
            )
        finally:
            # the batch's results are cached now (or failed): requests
            # waiting on its keys read the cache again
            for ticket in batch:
                self._release(ticket)
        service = time.monotonic() - t0
        self.queue.observe_service(service)

        for i, (ticket, outcome) in enumerate(zip(batch, outcomes)):
            breaker = self.breakers.get(ticket.request.backend)
            if outcome.failure is not None:
                status, _code = status_for_failure(outcome.failure)
                if status >= 500:
                    breaker.record_failure()
                else:
                    # the backend handled the request and rejected the
                    # *input*: the service is healthy
                    breaker.record_success()
                if status == 504:
                    self._m_timeouts.inc()
                self._resolve(
                    ticket, status, {}, failure_body(outcome.failure)
                )
            else:
                breaker.record_success()
                if outcome.cached:
                    self._m_cache_hits.inc()
                self._resolve(
                    ticket, 200, {},
                    result_body(
                        outcome.result,
                        cached=outcome.cached,
                        seconds=outcome.seconds,
                    ),
                )
            if tracing:
                tracer.complete(
                    f"req {ticket.request.label}",
                    t0_us, tracer.now_us() - t0_us,
                    PID_SERVE, TID_SERVE_SLOT_BASE + i, cat="request",
                    args={
                        "backend": ticket.request.backend,
                        "arch": ticket.request.arch,
                        "cached": outcome.cached,
                        "failed": outcome.failure is not None,
                        "queue_wait_us": round(
                            (t0 - ticket.enqueued_at) * 1e6
                        ),
                    },
                )
        if tracing:
            tracer.complete(
                "serve.batch", t0_us, tracer.now_us() - t0_us,
                PID_SERVE, TID_SERVE_DISPATCH, cat="batch",
                args={"units": len(batch), "seconds": round(service, 6)},
            )
        self._m_depth.set(self.queue.depth())

    @staticmethod
    def _resolve(
        ticket: Ticket,
        status: int,
        headers: dict[str, str],
        payload: dict[str, Any],
    ) -> None:
        if not ticket.future.done() and not ticket.abandoned:
            ticket.future.set_result((status, headers, payload))


def _too_large(length: int):
    from .protocol import PayloadTooLarge

    return PayloadTooLarge(
        f"Content-Length {length} exceeds limit {MAX_BODY_BYTES}"
    )


# ---------------------------------------------------------------------------
# process entry points
# ---------------------------------------------------------------------------


async def _amain(config: ServeConfig) -> int:
    server = ReproServer(config)
    await server.start()
    server.install_signal_handlers()
    # the one line supervisors and tests key on
    print(f"repro-serve listening on {config.host}:{server.port}", flush=True)
    await server.run_until_drained()
    return 0


def run_server(config: ServeConfig) -> int:
    """Blocking entry point used by the ``repro-serve`` console script."""
    return asyncio.run(_amain(config))


class ServerThread:
    """A daemon running on a background thread's event loop.

    The test-and-benchmark harness: ``start()`` returns once the port
    is bound; ``stop()`` requests a drain and joins.  All interaction
    with server state from the host thread goes through
    :meth:`call` (runs a callable on the loop thread).
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self.server: Optional[ReproServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        async def main() -> None:
            try:
                self.server = ReproServer(self.config)
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server.run_until_drained()

        try:
            asyncio.run(main())
        except Exception:
            if not self._ready.is_set():
                self._ready.set()
            log.exception("server thread died")

    def call(self, fn, *args: Any) -> Any:
        """Run ``fn(server, *args)`` on the loop thread, return result."""
        assert self._loop is not None and self.server is not None

        async def runner():
            return fn(self.server, *args)

        return asyncio.run_coroutine_threadsafe(
            runner(), self._loop
        ).result(timeout=30)

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_drain)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
