"""Unit tests for the serving wire protocol (no sockets, no daemon)."""

import json

import pytest

from repro.engine.errors import (
    PermanentError,
    TransientError,
    UnitTimeoutError,
    WorkerCrashError,
    failure_payload,
)
from repro.engine.errors import UnitFailure
from repro.engine.units import WorkUnit
from repro.serve.protocol import (
    DEFAULT_ITERATIONS,
    DEFAULT_WARMUP,
    KNOWN_BACKENDS,
    MAX_BODY_BYTES,
    PayloadTooLarge,
    QueueFullError,
    ServeError,
    ValidationError,
    failure_body,
    parse_analyze_request,
    result_body,
    status_for_failure,
)

ASM = "fadd v0.2d, v1.2d, v2.2d\n"


def _body(**kw) -> bytes:
    base = {"assembly": ASM, "arch": "gcs"}
    base.update(kw)
    return json.dumps(base).encode()


class TestParse:
    def test_minimal_request(self):
        req = parse_analyze_request(_body())
        assert req.assembly == ASM
        assert req.arch == "gcs"
        assert req.backend == "model"
        assert req.iterations == DEFAULT_ITERATIONS
        assert req.warmup == DEFAULT_WARMUP
        assert req.label.startswith("req-")

    def test_explicit_fields(self):
        req = parse_analyze_request(
            _body(backend="sim", iterations=50, warmup=7, label="k1",
                  opts={"x": 1})
        )
        assert (req.backend, req.iterations, req.warmup) == ("sim", 50, 7)
        assert req.label == "k1"
        assert req.opts == {"x": 1}

    def test_label_is_content_addressed_by_default(self):
        a = parse_analyze_request(_body())
        b = parse_analyze_request(_body())
        c = parse_analyze_request(_body(assembly=ASM + "nop\n"))
        assert a.label == b.label
        assert a.label != c.label

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ({"assembly": ""}, "assembly"),
            ({"assembly": 7}, "assembly"),
            ({"arch": "atari2600"}, "arch"),
            ({"arch": ""}, "arch"),
            ({"backend": "llm"}, "backend"),
            ({"iterations": 0}, "iterations"),
            ({"iterations": "many"}, "iterations"),
            ({"iterations": True}, "iterations"),
            ({"warmup": -1}, "warmup"),
            ({"opts": []}, "opts"),
            ({"label": 9}, "label"),
            # the removed steady-state backend is refused like any other
            ({"backend": "fastpath"}, "unknown backend 'fastpath'"),
        ],
    )
    def test_validation_errors(self, mutation, fragment):
        with pytest.raises(ValidationError) as ei:
            parse_analyze_request(_body(**mutation))
        assert fragment in str(ei.value)

    def test_not_json(self):
        with pytest.raises(ValidationError):
            parse_analyze_request(b"]{[ nope")

    def test_not_an_object(self):
        with pytest.raises(ValidationError):
            parse_analyze_request(b"[1, 2]")

    def test_payload_too_large(self):
        with pytest.raises(PayloadTooLarge):
            parse_analyze_request(b" " * (MAX_BODY_BYTES + 1))

    def test_iterations_budget_cap(self):
        with pytest.raises(ValidationError):
            parse_analyze_request(_body(iterations=1_000_001))

    def test_known_backends_cover_registry(self):
        from repro.backends import get_backend

        for name in KNOWN_BACKENDS:
            assert get_backend(name) is not None


class TestToUnit:
    def test_predict_unit_shape(self):
        req = parse_analyze_request(_body(backend="sim", label="k"))
        unit = req.to_unit()
        assert isinstance(unit, WorkUnit)
        assert unit.kind == "predict"
        assert unit.params["backend"] == "sim"
        assert unit.params["assembly"] == ASM
        # window parameters ride in opts (and thus the cache key)
        assert unit.params["opts"]["iterations"] == DEFAULT_ITERATIONS
        assert unit.params["opts"]["warmup"] == DEFAULT_WARMUP

    def test_model_backend_gets_no_window_opts(self):
        unit = parse_analyze_request(_body(backend="model")).to_unit()
        assert "iterations" not in unit.params["opts"]

    def test_explicit_opts_win(self):
        req = parse_analyze_request(
            _body(backend="sim", opts={"iterations": 5})
        )
        assert req.to_unit().params["opts"]["iterations"] == 5

    def test_unit_evaluates(self):
        from repro.engine import CorpusEngine

        unit = parse_analyze_request(_body()).to_unit()
        [result] = CorpusEngine(jobs=1).run([unit])
        assert result["backend"] == "model"
        assert result["cycles_per_iteration"] > 0


def _failure(exc, attempts=1) -> UnitFailure:
    payload = failure_payload(exc)
    unit = WorkUnit.make("predict", label="u", backend="model",
                         assembly=ASM, arch="gcs", opts={})
    return UnitFailure(
        index=0, unit=unit, attempts=attempts,
        error_class=payload["error_class"], kind=payload["kind"],
        message=payload["message"],
        traceback_repr=payload["traceback_repr"], seconds=0.01,
    )


class TestStatusMapping:
    @pytest.mark.parametrize(
        "exc, status, code",
        [
            (UnitTimeoutError(2.0), 504, "deadline"),
            (WorkerCrashError("worker died"), 500, "internal"),
            (TransientError("flaky io"), 503, "unavailable"),
            (ValueError("bad operand"), 400, "unprocessable"),
            (PermanentError("evaluator bug"), 500, "internal"),
            (RuntimeError("boom"), 500, "internal"),
        ],
    )
    def test_taxonomy(self, exc, status, code):
        assert status_for_failure(_failure(exc)) == (status, code)

    def test_failure_body_is_structured(self):
        body = failure_body(_failure(UnitTimeoutError(2.0), attempts=3))
        err = body["error"]
        assert err["status"] == 504
        assert err["code"] == "deadline"
        assert err["error_class"] == "UnitTimeoutError"
        assert err["kind"] == "transient"
        assert err["attempts"] == 3

    def test_result_body_adds_serving_metadata(self):
        body = result_body(
            {"backend": "model", "cycles_per_iteration": 2.0},
            cached=True, seconds=0.001,
        )
        assert body["cached"] is True
        assert body["seconds"] == 0.001
        assert body["cycles_per_iteration"] == 2.0


class TestServeErrors:
    def test_to_body_with_retry_after(self):
        err = QueueFullError("full", retry_after=1.5)
        body = err.to_body()["error"]
        assert body["status"] == 429
        assert body["code"] == "queue-full"
        assert body["retry_after"] == 1.5

    def test_detail_merged(self):
        err = ServeError("x", detail={"backend": "sim"})
        assert err.to_body()["error"]["backend"] == "sim"

    def test_statuses_are_distinct_and_meaningful(self):
        from repro.serve.protocol import (
            CircuitOpenError,
            DeadlineError,
            DrainingError,
        )

        assert CircuitOpenError.status == DrainingError.status == 503
        assert CircuitOpenError.code != DrainingError.code
        assert DeadlineError.status == 504
        assert QueueFullError.status == 429
