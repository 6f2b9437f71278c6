"""Daemon tests: routing, deadlines, backpressure, drain — over real
sockets (``ServerThread``) and at the handler layer (no sockets)."""

import asyncio
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.context import use_context
from repro.faults import FaultPlan, FaultSpec
from repro.obs.metrics import MetricsRegistry
from repro.serve.daemon import ReproServer, ServeConfig, ServerThread
from repro.serve.protocol import MAX_BODY_BYTES

pytestmark = pytest.mark.serve

ASM = "fadd v0.2d, v1.2d, v2.2d\nfmul v3.2d, v4.2d, v5.2d\n"


def _cfg(**kw) -> ServeConfig:
    base = dict(port=0, jobs=2, request_timeout=20.0, unit_timeout=10.0,
                drain_deadline=5.0)
    base.update(kw)
    return ServeConfig(**base)


@pytest.fixture
def own_metrics():
    """A fresh metrics registry in the run context for the whole test:
    the daemon serves ``/metrics`` from the run context's registry."""
    with use_context(metrics=MetricsRegistry()) as ctx:
        yield ctx.metrics


@pytest.fixture
def server(tmp_path, own_metrics):
    st = ServerThread(_cfg(cache_dir=str(tmp_path / "cache")))
    st.start()
    yield st
    st.stop()


def _conn(st: ServerThread) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", st.port, timeout=30)


def _get(st, path):
    conn = _conn(st)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _post(st, payload, headers=None):
    conn = _conn(st)
    try:
        conn.request(
            "POST", "/v1/analyze", body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class TestSocketLevel:
    def test_health_and_ready(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, body = _get(server, "/readyz")
        assert status == 200
        assert json.loads(body)["status"] == "ready"

    def test_analyze_roundtrip_and_cache(self, server):
        payload = {"assembly": ASM, "arch": "gcs", "label": "rt"}
        status, body = _post(server, payload)
        assert status == 200
        assert body["backend"] == "model"
        assert body["cycles_per_iteration"] > 0
        assert body["cached"] is False
        status, body2 = _post(server, payload)
        assert status == 200
        assert body2["cached"] is True
        assert (
            body2["cycles_per_iteration"] == body["cycles_per_iteration"]
        )

    def test_unknown_route_404(self, server):
        status, body = _get(server, "/v2/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not-found"

    def test_wrong_method_405(self, server):
        conn = _conn(server)
        try:
            conn.request("POST", "/healthz", body=b"{}")
            resp = conn.getresponse()
            assert resp.status == 405
            assert resp.getheader("Allow") == "GET"
            resp.read()
        finally:
            conn.close()

    def test_bad_arch_400(self, server):
        status, body = _post(
            server, {"assembly": ASM, "arch": "atari2600"}
        )
        assert status == 400
        assert body["error"]["code"] == "bad-request"

    def test_oversized_body_413_without_buffering(self, server):
        conn = _conn(server)
        try:
            huge = MAX_BODY_BYTES + 1
            conn.putrequest("POST", "/v1/analyze")
            conn.putheader("Content-Length", str(huge))
            conn.endheaders()
            # daemon answers from the headers alone — no body sent
            resp = conn.getresponse()
            assert resp.status == 413
            assert (
                json.loads(resp.read())["error"]["code"]
                == "payload-too-large"
            )
        finally:
            conn.close()

    def test_keep_alive_serves_multiple_requests(self, server):
        conn = _conn(server)
        try:
            for i in range(3):
                conn.request(
                    "POST", "/v1/analyze",
                    body=json.dumps(
                        {"assembly": ASM, "arch": "gcs", "label": f"ka{i}"}
                    ).encode(),
                )
                resp = conn.getresponse()
                assert resp.status == 200
                assert resp.getheader("Connection") == "keep-alive"
                resp.read()
        finally:
            conn.close()

    def test_closed_connection_reaches_eof_after_workers_fork(self, server):
        # the first request forks the engine's workers while this
        # connection is open, so they hold copies of its socket
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            for label, close in (("eof0", False), ("eof1", True)):
                body = json.dumps(
                    {"assembly": ASM, "arch": "gcs", "label": label,
                     "backend": "sim"}
                ).encode()
                sock.sendall(
                    b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
                    + (b"Connection: close\r\n" if close else b"")
                    + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
                )
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    head += sock.recv(1)
                assert head.startswith(b"HTTP/1.1 200")
                length = int(
                    head.lower().split(b"content-length:")[1].split(b"\r\n")[0]
                )
                while length:
                    length -= len(sock.recv(length))
            assert sock.recv(1) == b""  # the daemon's close arrived
        finally:
            sock.close()

    def test_x_timeout_must_be_numeric(self, server):
        status, body = _post(
            server, {"assembly": ASM, "arch": "gcs"},
            headers={"X-Timeout": "soon"},
        )
        assert status == 400
        assert "X-Timeout" in body["error"]["message"]

    def test_tiny_x_timeout_times_out_then_daemon_recovers(self, server):
        # 1 ms is far below pool spin-up time: the handler's own
        # deadline fires first and the client gets a structured 504
        status, body = _post(
            server,
            {"assembly": ASM, "arch": "gcs", "label": "hurry"},
            headers={"X-Timeout": "0.001"},
        )
        assert status == 504
        assert body["error"]["code"] == "deadline"
        # the daemon itself is unharmed
        status, body = _post(
            server, {"assembly": ASM, "arch": "gcs", "label": "after"}
        )
        assert status == 200

    def test_metrics_endpoint(self, server):
        _post(server, {"assembly": ASM, "arch": "gcs", "label": "m"})
        status, body = _get(server, "/metrics")
        assert status == 200
        text = body.decode()
        assert "serve.admitted" in text
        assert "serve.latency_seconds" in text

    def test_stats_endpoint(self, server):
        _post(server, {"assembly": ASM, "arch": "gcs", "label": "s"})
        status, body = _get(server, "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["schema"] == "repro-serve/1"
        assert stats["queue"]["admitted"] >= 1
        assert stats["engine"]["total_units"] >= 1
        assert "breakers" in stats

    def test_drain_flushes_manifest(self, tmp_path, own_metrics):
        manifest_path = tmp_path / "serve-manifest.json"
        st = ServerThread(_cfg(manifest_path=str(manifest_path)))
        st.start()
        try:
            status, _ = _post(
                st, {"assembly": ASM, "arch": "gcs", "label": "mf"}
            )
            assert status == 200
        finally:
            st.stop()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "repro-serve"
        serving = manifest["benchmarks"]["serving"]["stats"]
        assert serving["queue"]["admitted"] >= 1
        metrics = manifest["metrics"]
        assert metrics["serve.responses_2xx"]["value"] >= 1


def _metric_values(st) -> dict[str, float]:
    status, body = _get(st, "/metrics")
    assert status == 200
    values = {}
    for line in body.decode().splitlines():
        name, _, value = line.partition("  ")
        if not value.strip().startswith("count="):
            values[name.strip()] = float(value)
    return values


def test_metrics_list_engine_and_worker_counters(tmp_path, own_metrics):
    # the engine records each batch, and each attempt's counters from
    # its worker, in the run context's registry: the one /metrics reads
    st = ServerThread(_cfg(jobs=2, cache_dir=str(tmp_path / "cache")))
    st.start()
    try:
        status, body = _post(
            st, {"assembly": ASM, "arch": "gcs", "backend": "sim",
                 "label": "cold"},
        )
        assert status == 200 and body["cached"] is False
        m = _metric_values(st)
    finally:
        st.stop()
    assert m["engine.units_total"] == 1
    assert m["lowering.requests"] == 1


@pytest.mark.usefixtures("own_metrics")
class TestCacheHitsOnTheLoop:
    """A cached answer is read on the event loop, before admission: it
    needs no backend, so it waits for no batch and no breaker."""

    PRIMED = {"assembly": ASM, "arch": "gcs", "label": "primed"}
    COLD = {"assembly": "fmul v1.2d, v2.2d, v3.2d\n", "arch": "gcs",
            "label": "cold"}

    def _primed_server(self, tmp_path, **cfg_kw) -> ServerThread:
        st = ServerThread(_cfg(cache_dir=str(tmp_path / "cache"), **cfg_kw))
        st.start()
        status, body = _post(st, self.PRIMED)
        assert status == 200 and body["cached"] is False
        self.primed_cpi = body["cycles_per_iteration"]
        return st

    def test_hit_is_answered_while_a_cold_batch_hangs(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(site="hang", rate=1.0, match="cold",
                       hang_seconds=30.0)],
            seed=1,
        )
        with use_context(faults=plan):
            st = self._primed_server(tmp_path, unit_timeout=2.0,
                                     max_retries=0)
            try:
                cold = {}
                t = threading.Thread(
                    target=lambda: cold.update(r=_post(st, self.COLD)),
                    daemon=True,
                )
                t.start()
                deadline = time.monotonic() + 10
                while st.call(lambda srv: srv.stats()["batches"]) < 2:
                    assert time.monotonic() < deadline, "cold never dispatched"
                    time.sleep(0.01)
                # the hung cold unit holds the dispatcher for 2 s; a hit
                # that queued behind it would miss its 1 s deadline
                status, body = _post(
                    st, self.PRIMED, headers={"X-Timeout": "1"}
                )
                assert status == 200
                assert body["cached"] is True
                assert body["cycles_per_iteration"] == self.primed_cpi
                t.join(timeout=30)
                assert not t.is_alive()
                assert cold["r"][0] == 504
            finally:
                st.stop()

    def test_open_breaker_refuses_misses_but_not_hits(self, tmp_path):
        st = self._primed_server(
            tmp_path, breaker_threshold=1, breaker_cooldown=60.0
        )
        try:
            st.call(lambda srv: srv.breakers.get("model").record_failure())
            status, body = _post(st, self.COLD)
            assert status == 503
            assert body["error"]["code"] == "circuit-open"
            status, body = _post(st, self.PRIMED)
            assert status == 200
            assert body["cached"] is True
            assert body["cycles_per_iteration"] == self.primed_cpi
        finally:
            st.stop()

    def test_corrupt_entry_is_moved_aside_and_evaluated(self, tmp_path):
        st = self._primed_server(tmp_path)
        try:
            [entry] = (tmp_path / "cache").glob("??/*.json")
            entry.write_text('{"truncated":')
            status, body = _post(st, self.PRIMED)
            assert status == 200
            assert body["cached"] is False
            assert body["cycles_per_iteration"] == self.primed_cpi
            assert (tmp_path / "cache" / "corrupt" / entry.name).exists()
            status, body = _post(st, self.PRIMED)
            assert status == 200 and body["cached"] is True
        finally:
            st.stop()

    def test_stats_and_metrics_count_every_request_once(self, tmp_path):
        st = self._primed_server(
            tmp_path, breaker_threshold=1, breaker_cooldown=60.0
        )
        try:
            for _ in range(2):
                assert _post(st, self.PRIMED)[0] == 200
            st.call(lambda srv: srv.breakers.get("model").record_failure())
            assert _post(st, self.COLD)[0] == 503
            status, body = _get(st, "/stats")
            assert status == 200
            requests = json.loads(body)["requests"]
            assert requests == {
                "total": 4, "cache_hits": 2, "admitted": 1, "refused": 1,
            }
            m = _metric_values(st)
            assert m["serve.requests"] == 4
            assert m["serve.loop_hits"] == 2
            assert m["serve.cache_hits"] == 2
            assert (
                m["serve.admitted"] + m["serve.loop_hits"]
                + m["serve.rejected"] + m["serve.breaker_refused"]
                == m["serve.requests"]
            )
            assert m["serve.responses_2xx"] == 3
        finally:
            st.stop()


def _histogram_count(st, name) -> int:
    status, body = _get(st, "/metrics")
    assert status == 200
    for line in body.decode().splitlines():
        metric, _, value = line.partition("  ")
        if metric.strip() == name:
            return int(value.split()[0].removeprefix("count="))
    raise AssertionError(f"{name} not in /metrics")


@pytest.mark.usefixtures("own_metrics")
class TestConcurrentBatches:
    """Up to ``jobs`` engine batches run at once, on the engine's shared
    workers; a key is evaluated once at a time."""

    COLD = {"assembly": "fmul v1.2d, v2.2d, v3.2d\n", "arch": "gcs",
            "label": "cold"}
    OTHER = {"assembly": "fadd v4.2d, v5.2d, v6.2d\n", "arch": "gcs",
             "label": "other"}

    @pytest.mark.parametrize("jobs,status", [(2, 200), (1, 504)])
    def test_miss_is_not_queued_behind_a_hung_miss(
        self, tmp_path, jobs, status
    ):
        plan = FaultPlan(
            [FaultSpec(site="hang", rate=1.0, match="cold",
                       hang_seconds=30.0)],
            seed=1,
        )
        with use_context(faults=plan):
            st = ServerThread(_cfg(jobs=jobs, cache_dir=str(tmp_path / "c"),
                                   unit_timeout=2.0, max_retries=0))
            st.start()
            try:
                cold = {}
                t = threading.Thread(
                    target=lambda: cold.update(r=_post(st, self.COLD)),
                    daemon=True,
                )
                t.start()
                deadline = time.monotonic() + 10
                while st.call(lambda srv: srv.stats()["batches"]) < 1:
                    assert time.monotonic() < deadline, "cold never dispatched"
                    time.sleep(0.01)
                # the hung unit holds its batch for 2 s: with a second
                # batch in flight the other miss is answered at once,
                # and at --jobs 1 it still waits out its 1 s deadline
                got, body = _post(st, self.OTHER, headers={"X-Timeout": "1"})
                assert got == status
                if status == 200:
                    assert body["cached"] is False
                t.join(timeout=30)
                assert not t.is_alive()
                assert cold["r"][0] == 504
            finally:
                st.stop()

    def test_identical_misses_are_evaluated_once(self, tmp_path):
        st = ServerThread(_cfg(cache_dir=str(tmp_path / "c")))
        st.start()
        try:
            barrier = threading.Barrier(2, timeout=10)
            replies = []

            def send():
                barrier.wait()
                replies.append(_post(st, self.COLD))

            threads = [threading.Thread(target=send) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert [status for status, _ in replies] == [200, 200]
            assert sorted(body["cached"] for _, body in replies) == [
                False, True,
            ]
            cpi = {body["cycles_per_iteration"] for _, body in replies}
            assert len(cpi) == 1
            assert _metric_values(st)["engine.units_evaluated"] == 1
        finally:
            st.stop()

    def test_queue_wait_is_observed_per_admitted_request(self, tmp_path):
        st = ServerThread(_cfg(cache_dir=str(tmp_path / "c")))
        st.start()
        try:
            assert _post(st, self.COLD)[1]["cached"] is False
            assert _histogram_count(st, "serve.queue_wait_seconds") == 1
            assert _post(st, self.COLD)[1]["cached"] is True
            assert _histogram_count(st, "serve.queue_wait_seconds") == 1
        finally:
            st.stop()


def test_start_imports_every_machine_model(tmp_path):
    # An engine worker forked while any daemon thread imports a module
    # inherits that module's import lock held, and hangs on it; so
    # start() must leave the loop and the executor threads nothing to
    # import, misses of every backend included.  A fresh interpreter,
    # because this one has imported every model already.
    script = (
        "import asyncio, json, sys\n"
        "from repro.serve.daemon import ReproServer, ServeConfig\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.startswith('repro.')}\n"
        "async def main():\n"
        "    srv = ReproServer(ServeConfig(port=0, cache_dir='cache'))\n"
        "    await srv.start()\n"
        "    try:\n"
        "        before = loaded()\n"
        "        for backend in ('model', 'mca', 'sim'):\n"
        "            body = json.dumps({'assembly': 'fadd v0.2d, v1.2d, v2.2d',\n"
        "                               'arch': 'gcs', 'backend': backend})\n"
        "            status, _, reply = await srv.handle_request(\n"
        "                'POST', '/v1/analyze', {}, body.encode())\n"
        "            assert status == 200 and reply['cached'] is False, reply\n"
        "        print(' '.join(sorted(before)))\n"
        "        print(' '.join(sorted(loaded() - before)))\n"
        "    finally:\n"
        "        await srv.shutdown()\n"
        "asyncio.run(main())\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    started, late = out.stdout.split("\n")[:2]
    for module in ("repro.machine.golden_cove", "repro.machine.zen4",
                   "repro.machine.neoverse_v2", "repro.backends"):
        assert module in started.split(), module
    assert late.split() == []


def _drive(coro):
    return asyncio.run(coro)


@pytest.mark.usefixtures("own_metrics")
class TestHandlerLevel:
    """Drive ``handle_request`` directly — no sockets, no dispatcher."""

    def _server(self, **cfg_kw) -> ReproServer:
        return ReproServer(_cfg(**cfg_kw))

    def test_draining_refuses_analyze_with_503(self):
        srv = self._server()
        srv.draining = True

        async def scenario():
            return await srv.handle_request(
                "POST", "/v1/analyze", {},
                json.dumps({"assembly": ASM, "arch": "gcs"}).encode(),
            )

        status, _hdrs, body = _drive(scenario())
        assert status == 503
        assert body["error"]["code"] == "draining"
        # but liveness stays green: draining is intentional
        status, _hdrs, body = _drive(
            srv.handle_request("GET", "/healthz", {}, b"")
        )
        assert status == 200

    def test_open_breaker_refuses_with_retry_after(self):
        srv = self._server(breaker_threshold=2)
        cb = srv.breakers.get("model")
        cb.record_failure()
        cb.record_failure()

        async def scenario():
            return await srv.handle_request(
                "POST", "/v1/analyze", {},
                json.dumps({"assembly": ASM, "arch": "gcs"}).encode(),
            )

        status, hdrs, body = _drive(scenario())
        assert status == 503
        assert body["error"]["code"] == "circuit-open"
        assert float(hdrs["Retry-After"]) > 0
        # a different backend's breaker is unaffected
        assert srv.breakers.get("sim").state == "closed"

    def test_all_breakers_open_turns_readyz_red(self):
        srv = self._server(breaker_threshold=1)
        srv.breakers.get("model").record_failure()

        async def ready():
            # readyz checks dispatcher liveness first; stand in a
            # stub task since this test never calls start()
            srv._dispatcher = asyncio.get_running_loop().create_task(
                asyncio.sleep(60)
            )
            try:
                return await srv.handle_request("GET", "/readyz", {}, b"")
            finally:
                srv._dispatcher.cancel()

        status, _hdrs, body = _drive(ready())
        assert status == 503
        assert body["status"] == "all-breakers-open"

    def test_queue_full_gives_429_with_retry_after(self):
        srv = self._server(queue_capacity=1)

        async def scenario():
            deadline = time.monotonic() + 30
            srv.queue.submit(
                __import__("repro.serve.protocol", fromlist=["_"])
                .parse_analyze_request(
                    json.dumps({"assembly": ASM, "arch": "gcs"}).encode()
                ),
                deadline=deadline,
            )
            return await srv.handle_request(
                "POST", "/v1/analyze", {},
                json.dumps({"assembly": ASM, "arch": "gcs"}).encode(),
            )

        status, hdrs, body = _drive(scenario())
        assert status == 429
        assert body["error"]["code"] == "queue-full"
        assert float(hdrs["Retry-After"]) >= 0.1

    def test_unparseable_json_400(self):
        srv = self._server()
        status, _hdrs, body = _drive(
            srv.handle_request("POST", "/v1/analyze", {}, b"]{[")
        )
        assert status == 400
        assert body["error"]["code"] == "bad-request"
