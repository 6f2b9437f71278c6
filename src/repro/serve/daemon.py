"""The ``repro-serve`` daemon: analysis-as-a-service over the engine.

One process serves throughput predictions over HTTP/JSON (stdlib
``asyncio`` only — request framing is hand-rolled HTTP/1.1 with
keep-alive, enough for curl/``http.client``/load balancers, on purpose
not a web framework).  Every ``POST /v1/analyze`` body becomes one
engine work unit, so serving inherits the platform's robustness
machinery wholesale:

* the **content-addressed result cache** answers repeat requests
  without touching a worker (the hot path under real traffic);
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

Threading model: the asyncio loop owns all daemon state.  Engine
batches run on a single-thread executor (``CorpusEngine`` is not
thread-safe; one thread serializes batches), and the engine sends
every evaluation to its worker *processes* from there.  The engine
enforces a unit deadline by killing the worker, so with a
``unit_timeout`` (the default) the daemon process never evaluates a
request itself, at any ``jobs``: a crash or a hang costs one worker and
one structured 500 or 504.  Shutdown closes the engine on the executor
thread, after the last batch.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Optional

from ..engine.pool import CorpusEngine
from ..obs.metrics import LATENCY_BUCKETS, MetricsRegistry, get_registry
from ..obs.trace import (
    PID_SERVE,
    TID_SERVE_DISPATCH,
    TID_SERVE_SLOT_BASE,
    active_tracer,
)
from .admission import AdmissionQueue, Ticket
from .breaker import BreakerBoard
from .protocol import (
    MAX_BODY_BYTES,
    SCHEMA,
    CircuitOpenError,
    DeadlineError,
    DrainingError,
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


@dataclass
class ServeConfig:
    """Everything an operator can tune; see ``docs/serving.md``."""

    host: str = "127.0.0.1"
    port: int = 8472
    #: engine worker processes
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
    retry_backoff: float = 0.05
    breaker_threshold: int = 5
    breaker_cooldown: float = 5.0
    #: how long a SIGTERM drain waits for in-flight work
    drain_deadline: float = 10.0
    max_body_bytes: int = MAX_BODY_BYTES
    #: keep-alive idle timeout per connection
    idle_timeout: float = 30.0
    #: run-report manifest flushed on drain (optional)
    manifest_path: Optional[str] = None


class ReproServer:
    """The daemon: listener + admission queue + dispatcher + engine."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.config = config or ServeConfig()
        cfg = self.config
        self.engine = CorpusEngine(
            jobs=cfg.jobs,
            cache_dir=cfg.cache_dir,
            error_policy=cfg.error_policy,
            max_retries=cfg.max_retries,
            retry_backoff=cfg.retry_backoff,
            unit_timeout=cfg.unit_timeout,
        )
        self.queue = AdmissionQueue(
            capacity=cfg.queue_capacity, batch_max=cfg.batch_max
        )
        self.breakers = BreakerBoard(
            threshold=cfg.breaker_threshold, cooldown=cfg.breaker_cooldown
        )
        self.registry = registry if registry is not None else get_registry()
        self._registry_at_start = self.registry.snapshot()
        # engine.run() is not thread-safe: one executor thread
        # serializes batches while the loop stays responsive
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self.draining = False
        self.stopped = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._dispatcher: Optional[asyncio.Task] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._started_monotonic = time.monotonic()
        self._batches = 0
        self.port: Optional[int] = None  # actual port (for port=0)

        m = self.registry
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
            "serve.cache_hits", "responses answered from the result cache"
        )
        self._m_batches = m.counter(
            "serve.batches", "engine batches dispatched"
        )
        self._m_depth = m.gauge(
            "serve.queue_depth", "admission queue depth"
        )
        self._m_latency = m.histogram(
            "serve.latency_seconds",
            "end-to-end request latency (admission to response)",
            buckets=LATENCY_BUCKETS,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the dispatcher task."""
        cfg = self.config
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
        # on the executor thread, so it runs after the last batch
        await asyncio.get_running_loop().run_in_executor(
            self._executor, self.engine.close
        )
        self._executor.shutdown(wait=False)
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

    def _fail_pending(self, err: ServeError) -> None:
        for t in self.queue.drain_pending():
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
            registry_since=self._registry_at_start,
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
                        reader.readline(), timeout=self.config.idle_timeout
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
                if length > self.config.max_body_bytes:
                    # refuse without reading: a body this large is the
                    # one thing we must not buffer
                    await self._write_response(
                        writer, 413, {},
                        _too_large(length, self.config).to_body(),
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
        return {
            "schema": SCHEMA,
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "draining": self.draining,
            "queue": self.queue.snapshot(),
            "breakers": self.breakers.snapshot(),
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
        request = parse_analyze_request(
            body, max_body_bytes=self.config.max_body_bytes
        )

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
            ticket = self.queue.submit(
                request, deadline=time.monotonic() + timeout
            )
        except Exception:
            if probe:
                breaker.release_probe()
            raise
        ticket.probe = probe  # type: ignore[attr-defined]
        self._m_admitted.inc()
        self._m_depth.set(self.queue.depth())

        try:
            status, hdrs, payload = await asyncio.wait_for(
                asyncio.shield(ticket.future), timeout=timeout
            )
        except (asyncio.TimeoutError, TimeoutError):
            ticket.abandoned = True
            if probe:
                breaker.release_probe()
            self._m_timeouts.inc()
            self._m_latency.observe(time.monotonic() - ticket.enqueued_at)
            raise DeadlineError(
                f"deadline of {timeout:.3f}s exceeded "
                f"(queue depth {self.queue.depth()})",
                detail={"label": request.label},
            ) from None
        self._m_latency.observe(time.monotonic() - ticket.enqueued_at)
        self._count_status(status)
        return status, hdrs, payload

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
        while True:
            batch = await self.queue.next_batch()
            if batch is None:
                return
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

        tracer = active_tracer()
        tracing = tracer is not None
        if tracing:
            tracer.serve_lanes(self.queue.batch_max)
            t0_us = tracer.now_us()

        t0 = time.monotonic()
        results = await loop.run_in_executor(
            self._executor, self.engine.run, units
        )
        del results  # outcome records carry everything, aligned by index
        service = time.monotonic() - t0
        self.queue.observe_service(service)

        by_index = {o.index: o for o in self.engine.last_outcomes}
        for i, ticket in enumerate(batch):
            outcome = by_index.get(i)
            breaker = self.breakers.get(ticket.request.backend)
            if outcome is None:
                # should be unreachable (collect aligns outcomes with
                # units); treat as an internal failure, count it 5xx
                breaker.record_failure()
                self._resolve(
                    ticket, 500, {},
                    ServeError("unit produced no outcome").to_body(),
                )
                continue
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
                        "cached": bool(outcome and outcome.cached),
                        "failed": bool(outcome and outcome.failure),
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


def _too_large(length: int, cfg: ServeConfig):
    from .protocol import PayloadTooLarge

    return PayloadTooLarge(
        f"Content-Length {length} exceeds limit {cfg.max_body_bytes}"
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

    def __init__(self, config: ServeConfig, **server_kwargs: Any):
        self.config = config
        self._server_kwargs = server_kwargs
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
                self.server = ReproServer(
                    self.config, **self._server_kwargs
                )
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
