"""Wire protocol of ``repro-serve``: request schema + error taxonomy.

The daemon speaks plain HTTP/1.1 + JSON (no framework, no new deps).
One request = one assembly block + a machine and backend selection; it
becomes exactly one engine :class:`~repro.engine.units.WorkUnit` of the
generic ``"predict"`` kind, so the serving path inherits the engine's
content-addressed cache, retry policy, and failure taxonomy without any
serving-specific evaluator code.

Error-code taxonomy (see ``docs/serving.md`` for the full table): every
failure a client can see is **structured** — a JSON body with a stable
``code``, the engine's ``error_class``/``kind`` where one exists, and a
``Retry-After`` header whenever retrying can help::

    400  bad-request        malformed JSON / schema / unknown arch-backend
    400  unprocessable      permanent *input* failure (assembly didn't parse)
    404  not-found          unknown route
    405  method-not-allowed wrong verb on a known route
    413  payload-too-large  body over the configured byte budget
    429  queue-full         admission queue at capacity (backpressure)
    500  internal           permanent evaluator failure / worker crash
    503  circuit-open       backend breaker is open (recent failures)
    503  draining           daemon is shutting down gracefully
    503  unavailable        transient failure survived its retry budget
    504  deadline           per-request deadline exceeded (queue + compute)

Mapping rule of thumb: *client* mistakes are 4xx and never trip the
circuit breaker; *service* trouble is 5xx, and only 5xx outcomes count
toward tripping the backend's breaker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..engine.errors import (
    UnitFailure,
    UnitTimeoutError,
    WorkerCrashError,
)
from ..engine.units import WorkUnit
from ..lowering.digests import sha256_text

SCHEMA = "repro-serve/1"

#: prediction backends a request may select (the registry's builtins)
KNOWN_BACKENDS = ("model", "mca", "sim")

#: default measurement window for the simulating backends — the fig. 3
#: corpus window, so served numbers match `repro-bench fig3` exactly
DEFAULT_ITERATIONS = 100
DEFAULT_WARMUP = 33

#: request-body byte budget (a corpus block is ~1 KiB; 256 KiB leaves
#: room for generous unrolling without letting one client buffer-bomb
#: the parser)
MAX_BODY_BYTES = 256 * 1024

#: engine ``error_class`` names that signal *bad input* rather than a
#: broken service: the lowering pipeline raises ``ValueError`` (and
#: subclasses) for unparsable assembly, unknown mnemonics, and unknown
#: machine references.  These map to 400, never 5xx, and never trip a
#: circuit breaker.
CLIENT_ERROR_CLASSES = frozenset(
    {"ValueError", "ParseError", "SyntaxError", "NotImplementedError"}
)


class ServeError(Exception):
    """Base of every structured serving error.

    ``status`` is the HTTP status; ``code`` the stable machine-readable
    token from the taxonomy table; ``retry_after`` (seconds, optional)
    becomes a ``Retry-After`` header so well-behaved clients back off
    instead of hammering.
    """

    status = 500
    code = "internal"

    def __init__(
        self,
        message: str,
        *,
        retry_after: Optional[float] = None,
        detail: Optional[dict[str, Any]] = None,
    ):
        super().__init__(message)
        self.message = message
        self.retry_after = retry_after
        self.detail = detail or {}

    def to_body(self) -> dict[str, Any]:
        body: dict[str, Any] = {
            "error": {
                "status": self.status,
                "code": self.code,
                "message": self.message,
                **self.detail,
            }
        }
        if self.retry_after is not None:
            body["error"]["retry_after"] = round(self.retry_after, 3)
        return body


class ValidationError(ServeError):
    status = 400
    code = "bad-request"


class PayloadTooLarge(ServeError):
    status = 413
    code = "payload-too-large"


class QueueFullError(ServeError):
    """Admission control: the bounded queue is at capacity (429)."""

    status = 429
    code = "queue-full"


class CircuitOpenError(ServeError):
    """The selected backend's circuit breaker is open (503)."""

    status = 503
    code = "circuit-open"


class DrainingError(ServeError):
    """The daemon is shutting down and no longer admits work (503)."""

    status = 503
    code = "draining"


class DeadlineError(ServeError):
    """The request's end-to-end deadline expired (504)."""

    status = 504
    code = "deadline"


@dataclass(frozen=True)
class AnalyzeRequest:
    """One validated ``POST /v1/analyze`` request."""

    assembly: str
    arch: str
    backend: str = "model"
    iterations: int = DEFAULT_ITERATIONS
    warmup: int = DEFAULT_WARMUP
    label: str = ""
    opts: dict[str, Any] = field(default_factory=dict)

    def to_unit(self) -> WorkUnit:
        """The engine work unit this request evaluates as.

        The ``"predict"`` kind dispatches one named backend over one
        shared lowering; simulation-window parameters ride in ``opts``
        (and therefore in the content-addressed cache key).
        """
        opts = dict(self.opts)
        if self.backend in ("sim", "mca"):
            opts.setdefault("iterations", self.iterations)
            opts.setdefault("warmup", self.warmup)
        return WorkUnit.make(
            "predict",
            label=self.label,
            backend=self.backend,
            assembly=self.assembly,
            arch=self.arch,
            opts=opts,
        )


def parse_analyze_request(body: bytes) -> AnalyzeRequest:
    """Validate a raw request body into an :class:`AnalyzeRequest`.

    Raises :class:`PayloadTooLarge` / :class:`ValidationError` with
    messages precise enough that a client can fix the request without
    reading server logs.
    """
    if len(body) > MAX_BODY_BYTES:
        raise PayloadTooLarge(
            f"request body is {len(body)} bytes; limit {MAX_BODY_BYTES}"
        )
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"body is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError("body must be a JSON object")

    assembly = obj.get("assembly")
    if not isinstance(assembly, str) or not assembly.strip():
        raise ValidationError("'assembly' must be a non-empty string")
    arch = obj.get("arch")
    if not isinstance(arch, str) or not arch:
        raise ValidationError(
            "'arch' must name a machine model or chip alias"
        )
    from ..machine import get_machine_model

    try:
        get_machine_model(arch)
    except ValueError as exc:
        raise ValidationError(f"unknown arch: {exc}") from None
    backend = obj.get("backend", "model")
    if backend not in KNOWN_BACKENDS:
        raise ValidationError(
            f"unknown backend {backend!r}; known: {', '.join(KNOWN_BACKENDS)}"
        )

    def _pos_int(name: str, default: int) -> int:
        v = obj.get(name, default)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValidationError(f"'{name}' must be a positive integer")
        return v

    iterations = _pos_int("iterations", DEFAULT_ITERATIONS)
    warmup = obj.get("warmup", DEFAULT_WARMUP)
    if not isinstance(warmup, int) or isinstance(warmup, bool) or warmup < 0:
        raise ValidationError("'warmup' must be a non-negative integer")
    if iterations > 100_000:
        raise ValidationError(
            "'iterations' above 100000 — split the request instead of "
            "monopolizing a worker"
        )
    opts = obj.get("opts", {})
    if not isinstance(opts, dict):
        raise ValidationError("'opts' must be a JSON object")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ValidationError("'label' must be a string")
    if not label:
        label = f"req-{sha256_text(assembly)[:10]}"
    return AnalyzeRequest(
        assembly=assembly,
        arch=arch,
        backend=backend,
        iterations=iterations,
        warmup=warmup,
        label=label,
        opts=opts,
    )


# ---------------------------------------------------------------------------
# Engine failure -> HTTP status
# ---------------------------------------------------------------------------


def status_for_failure(failure: UnitFailure) -> tuple[int, str]:
    """Map one engine :class:`UnitFailure` to ``(status, code)``.

    The split mirrors the engine's transient/permanent taxonomy:
    deadlines are 504, worker crashes 500, other exhausted transients
    503 (retrying later may help — a worker is replaced, memory
    pressure subsides), permanent *input* errors 400, and permanent evaluator
    errors 500.
    """
    if failure.error_class == UnitTimeoutError.__name__:
        return 504, "deadline"
    if failure.error_class == WorkerCrashError.__name__:
        return 500, "internal"
    if failure.kind == "transient":
        return 503, "unavailable"
    if failure.error_class in CLIENT_ERROR_CLASSES:
        return 400, "unprocessable"
    return 500, "internal"


def failure_body(failure: UnitFailure) -> dict[str, Any]:
    """Structured JSON body for a request that failed in the engine."""
    status, code = status_for_failure(failure)
    return {
        "error": {
            "status": status,
            "code": code,
            "error_class": failure.error_class,
            "kind": failure.kind,
            "message": failure.message,
            "attempts": failure.attempts,
        }
    }


def result_body(
    result: dict[str, Any], *, cached: bool, seconds: float
) -> dict[str, Any]:
    """Success body: the evaluator's result dict + serving metadata."""
    return {**result, "cached": cached, "seconds": round(seconds, 6)}
