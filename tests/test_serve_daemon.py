"""Daemon tests: routing, deadlines, backpressure, drain — over real
sockets (``ServerThread``) and at the handler layer (no sockets)."""

import asyncio
import http.client
import json
import socket
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.daemon import ReproServer, ServeConfig, ServerThread

pytestmark = pytest.mark.serve

ASM = "fadd v0.2d, v1.2d, v2.2d\nfmul v3.2d, v4.2d, v5.2d\n"


def _cfg(**kw) -> ServeConfig:
    base = dict(port=0, jobs=2, request_timeout=20.0, unit_timeout=10.0,
                drain_deadline=5.0)
    base.update(kw)
    return ServeConfig(**base)


@pytest.fixture
def server(tmp_path):
    st = ServerThread(
        _cfg(cache_dir=str(tmp_path / "cache")), registry=MetricsRegistry()
    )
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
            huge = server.config.max_body_bytes + 1
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

    def test_drain_flushes_manifest(self, tmp_path):
        manifest_path = tmp_path / "serve-manifest.json"
        st = ServerThread(
            _cfg(manifest_path=str(manifest_path)),
            registry=MetricsRegistry(),
        )
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


def _drive(coro):
    return asyncio.run(coro)


class TestHandlerLevel:
    """Drive ``handle_request`` directly — no sockets, no dispatcher."""

    def _server(self, **cfg_kw) -> ReproServer:
        return ReproServer(_cfg(**cfg_kw), registry=MetricsRegistry())

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
