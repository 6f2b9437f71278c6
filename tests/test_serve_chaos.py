"""Chaos suite for the serving daemon: injected worker crashes and
hangs under live HTTP load.

The acceptance scenario from the serving work: under a seeded
``FaultPlan`` injecting ~10 % worker crashes/hangs at ``jobs=4``, a
500-request load run completes with **zero daemon crashes**, and every
request receives either a correct result (bit-identical to a clean
serial run) or a structured 5xx.  Plus the targeted scenarios: a
worker SIGKILL mid-request is one structured 500 and the next request
succeeds after respawn; a hung unit converts to a 504 at the unit
deadline; SIGTERM during load drains in-flight work and exits 0.

The run context is a module global, not a ``ContextVar``, so a plan
installed with ``use_context(faults=...)`` on the test thread is visible
to the daemon's engine executor thread, which sends it to the engine's
workers with every task.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.context import use_context
from repro.engine import CorpusEngine
from repro.faults import FaultPlan, FaultSpec
from repro.obs.metrics import MetricsRegistry
from repro.serve.daemon import ServeConfig, ServerThread
from repro.serve.loadgen import _payloads, run_load

pytestmark = [pytest.mark.chaos, pytest.mark.serve]


def _post(port, payload, headers=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST", "/v1/analyze", body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class TestAcceptanceLoad:
    """500 requests, jobs=4, ~10 % injected crashes + hangs."""

    SEED = 77
    UNIQUE = 60
    TOTAL = 500

    def test_chaos_load_correct_or_structured(self, tmp_path):
        payloads = _payloads(self.SEED, self.UNIQUE)
        # clean serial ground truth, computed before any plan is active
        clean_engine = CorpusEngine(jobs=1)
        from repro.serve.protocol import parse_analyze_request

        units = [
            parse_analyze_request(json.dumps(p).encode()).to_unit()
            for p in payloads
        ]
        clean = clean_engine.run(units)
        assert all(r is not None for r in clean)
        truth = {
            p["label"]: r["cycles_per_iteration"]
            for p, r in zip(payloads, clean)
        }

        plan = FaultPlan(
            [
                FaultSpec(site="exit", rate=0.05),
                FaultSpec(site="hang", rate=0.05, hang_seconds=5.0),
            ],
            seed=self.SEED,
        )
        cfg = ServeConfig(
            port=0,
            jobs=4,
            cache_dir=str(tmp_path / "cache"),
            queue_capacity=512,       # this test is about faults, not 429s
            batch_max=16,
            request_timeout=120.0,
            unit_timeout=0.8,         # converts injected hangs to 504s
            max_retries=1,
            breaker_threshold=10_000,  # keep breakers out of this scenario
            drain_deadline=30.0,
        )
        # 500 requests cycling through the 60 unique kernels
        reqs = [payloads[i % self.UNIQUE] for i in range(self.TOTAL)]
        with use_context(faults=plan, metrics=MetricsRegistry()):
            with ServerThread(cfg) as st:
                responses = run_load(st.port, reqs, concurrency=16)
                # the daemon survived: liveness green, stats coherent
                status, body = _get(st.port, "/healthz")
                assert status == 200
                status, body = _get(st.port, "/stats")
                assert status == 200
                stats = json.loads(body)

        assert len(responses) == self.TOTAL
        bad_statuses = [
            r.status for r in responses
            if r.status != 200 and not (500 <= r.status < 505)
        ]
        assert bad_statuses == [], (
            f"non-structured responses: {bad_statuses}"
        )
        for i, r in enumerate(responses):
            label = reqs[i]["label"]
            if r.status == 200:
                # bit-identical to the clean serial run
                assert r.body["cycles_per_iteration"] == truth[label], (
                    f"{label}: {r.body['cycles_per_iteration']} != "
                    f"{truth[label]}"
                )
            else:
                err = r.body.get("error")
                assert err, f"unstructured 5xx for {label}: {r.body}"
                assert err["status"] == r.status
                assert err["code"] in (
                    "internal", "deadline", "unavailable", "draining"
                )
        ok = sum(1 for r in responses if r.status == 200)
        # the plan is sparse enough that the vast majority must succeed
        assert ok >= self.TOTAL * 0.8, f"only {ok}/{self.TOTAL} succeeded"
        # accounting stayed coherent under injected crashes
        eng = stats["engine"]
        assert (
            eng["cache_hits"] + eng["evaluated"] + eng["failed"]
            == eng["total_units"]
        )

    def test_faults_actually_fired(self):
        """The plan above is not vacuous: both sites fire on this corpus."""
        plan = FaultPlan(
            [
                FaultSpec(site="exit", rate=0.05),
                FaultSpec(site="hang", rate=0.05, hang_seconds=5.0),
            ],
            seed=self.SEED,
        )
        labels = [p["label"] for p in _payloads(self.SEED, self.UNIQUE)]
        exits = sum(plan.would_fault("exit", l) for l in labels)
        hangs = sum(plan.would_fault("hang", l) for l in labels)
        assert exits >= 1
        assert hangs >= 1


class TestTargetedFaults:
    def test_worker_sigkill_mid_request_then_recovery(self, tmp_path):
        [doomed, healthy] = _payloads(5, 2)
        plan = FaultPlan(
            [FaultSpec(site="exit", rate=1.0, match=doomed["label"])],
            seed=5,
        )
        cfg = ServeConfig(
            port=0, jobs=2, cache_dir=str(tmp_path / "cache"),
            max_retries=0, request_timeout=60.0, drain_deadline=10.0,
        )
        with use_context(faults=plan, metrics=MetricsRegistry()):
            with ServerThread(cfg) as st:
                status, body = _post(st.port, doomed)
                assert status == 500
                err = body["error"]
                assert err["code"] == "internal"
                assert err["error_class"] == "WorkerCrashError"
                # the pool respawned: the next request succeeds
                status, body = _post(st.port, healthy)
                assert status == 200
                assert body["cycles_per_iteration"] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_hung_unit_converts_to_504_at_unit_deadline(self, tmp_path, jobs):
        # at jobs=1 too: the deadline sends evaluation to a worker
        [stuck, healthy] = _payloads(6, 2)
        plan = FaultPlan(
            [FaultSpec(site="hang", rate=1.0, match=stuck["label"],
                       hang_seconds=30.0)],
            seed=6,
        )
        cfg = ServeConfig(
            port=0, jobs=jobs, cache_dir=str(tmp_path / "cache"),
            unit_timeout=0.5, max_retries=0, request_timeout=60.0,
        )
        with use_context(faults=plan, metrics=MetricsRegistry()):
            with ServerThread(cfg) as st:
                t0 = time.monotonic()
                status, body = _post(st.port, stuck)
                elapsed = time.monotonic() - t0
                assert status == 504
                err = body["error"]
                assert err["code"] == "deadline"
                assert err["error_class"] == "UnitTimeoutError"
                # the unit deadline cut the 30 s hang short
                assert elapsed < 10.0
                status, _body = _post(st.port, healthy)
                assert status == 200


class TestSigtermDrain:
    def test_sigterm_during_load_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.cli import serve_main; "
                "sys.exit(serve_main(sys.argv[1:]))",
                "--port", "0", "--jobs", "2",
                "--drain-deadline", "20",
            ],
            cwd=Path(__file__).resolve().parents[1],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "repro-serve listening on" in line, line
            port = int(line.rsplit(":", 1)[1])

            # a slow sim request (a couple seconds of compute) rides in
            # flight, so the SIGTERM below lands mid-evaluation
            [kernel] = _payloads(9, 1, backend="sim",
                                 opts={"iterations": 30000})
            result = {}

            def fire():
                try:
                    result["resp"] = _post(port, kernel, timeout=60)
                except Exception as exc:  # pragma: no cover - diagnostics
                    result["exc"] = exc

            t = threading.Thread(target=fire, daemon=True)
            t.start()
            time.sleep(0.6)  # let it get admitted and dispatched
            proc.send_signal(signal.SIGTERM)
            t.join(timeout=60)
            assert not t.is_alive(), "in-flight request never answered"
            assert "exc" not in result, result.get("exc")
            status, body = result["resp"]
            assert status == 200, body
            assert body["cycles_per_iteration"] > 0
            rc = proc.wait(timeout=30)
            assert rc == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()
