"""Evaluators: the computations behind each work-unit kind.

An evaluator maps a unit's plain-data parameters to a plain-JSON
result dict — nothing else crosses the process or cache boundary.
Imports are deliberately deferred into the function bodies: the bench
and analysis layers import the engine, so module-level imports here
would be circular (and workers only pay for what they run).

Every assembly-consuming kind goes through the shared lowering
pipeline (:mod:`repro.lowering`) and dispatches to registered
prediction backends (:mod:`repro.backends`): a unit's block is parsed
and machine-resolved once, however many backends then fan out over it,
and the engine evaluates each distinct cache key once per batch.

Kinds
-----
``corpus``
    The Fig. 3 triple for one corpus block: core-simulator measurement,
    OSACA-style prediction, MCA baseline prediction — one lowering,
    three backends (subset with ``params["backends"]``).
``predict``
    One named backend over one block (``params["backend"]``) with that
    backend's options (``params["opts"]``: iteration window, MCA
    scheduling-data overrides, ...); the generic registry-dispatch kind.
    Like every assembly-consuming kind it accepts a serialized machine
    model (``params["model"]``) in place of a name, for what-if and
    ablation studies (the cache key then digests the edited model, so
    perturbations never collide with stock results).
``microbench``
    Table III instruction microbenchmarks for one chip.
``topdown``
    Top-down cycle attribution for one assembly block.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..context import current_context

Evaluator = Callable[[dict], Dict[str, Any]]

_EVALUATORS: dict[str, Evaluator] = {}

#: corpus result-dict fields, keyed by the backend that produces them
CORPUS_FIELDS = {
    "sim": "measurement",
    "model": "prediction_osaca",
    "mca": "prediction_mca",
}

#: the full corpus backend fan-out, in evaluation order
CORPUS_BACKENDS = ("model", "sim", "mca")


def evaluator(kind: str) -> Callable[[Evaluator], Evaluator]:
    """Register an evaluator for a unit kind."""

    def _register(fn: Evaluator) -> Evaluator:
        _EVALUATORS[kind] = fn
        return fn

    return _register


def known_kinds() -> list[str]:
    return sorted(_EVALUATORS)


def evaluate(kind: str, params: dict) -> dict[str, Any]:
    """Run one unit's computation; the core of every worker."""
    try:
        fn = _EVALUATORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown work-unit kind {kind!r}; known: {known_kinds()}"
        ) from None
    return fn(params)


def _model_from_params(p: dict):
    """Resolve the machine model a unit refers to (by name or value)."""
    from ..machine import get_machine_model

    if "model" in p and isinstance(p["model"], dict):
        from ..machine.io import model_from_dict

        return model_from_dict(p["model"])
    return get_machine_model(p.get("uarch") or p.get("chip") or p["arch"])


def _lowered(p: dict):
    """Lower the unit's assembly against its machine model."""
    from ..lowering import lower

    return lower(p["assembly"], _model_from_params(p))


def _predict_phase(name: str):
    """Profiler phase around one backend prediction (no-op when off)."""
    import contextlib

    prof = current_context().profiler
    if prof is not None:
        return prof.phase(f"predict/{name}")
    return contextlib.nullcontext()


def _corpus_backend_opts(iterations: int) -> dict[str, dict[str, Any]]:
    """The per-backend options of the Fig. 3 corpus triple.

    These iteration/warmup choices are part of the published corpus
    semantics (golden-gated); change them only with an engine-version
    bump.
    """
    return {
        "model": {},
        "sim": dict(iterations=iterations, warmup=max(10, iterations // 3)),
        "mca": dict(iterations=max(30, iterations // 2), warmup=15),
    }


@evaluator("corpus")
def _eval_corpus(p: dict) -> dict[str, Any]:
    from ..backends import get_backend

    block = _lowered(p)
    opts = _corpus_backend_opts(int(p["iterations"]))
    names = p.get("backends") or CORPUS_BACKENDS
    # evaluation order is fixed regardless of the subset's order
    names = [n for n in CORPUS_BACKENDS if n in names]

    out: dict[str, Any] = {}
    backend_errors: dict[str, str] = {}
    # the engine sets partial_results for each attempt iff its
    # error_policy is not fail_fast: one backend failing then yields a
    # partial result tagged with the backend error
    partial = current_context().partial_results
    for name in names:
        try:
            with _predict_phase(name):
                r = get_backend(name).predict(block, **opts[name])
        except Exception as exc:
            if not partial:
                raise
            backend_errors[name] = f"{type(exc).__name__}: {exc}"
            continue
        out[CORPUS_FIELDS[name]] = r.cycles_per_iteration
        if name == "model":
            out["bottleneck"] = r.bottleneck
    if backend_errors:
        if len(backend_errors) == len(names):
            # nothing succeeded — a fully empty "partial" result would
            # masquerade as data; fail the unit instead
            raise RuntimeError(
                "all corpus backends failed: "
                + "; ".join(
                    f"{n}: {e}" for n, e in sorted(backend_errors.items())
                )
            )
        out["degraded"] = True
        out["backend_errors"] = backend_errors
    return out


@evaluator("predict")
def _eval_predict(p: dict) -> dict[str, Any]:
    from ..backends import get_backend

    block = _lowered(p)
    with _predict_phase(p["backend"]):
        r = get_backend(p["backend"]).predict(block, **(p.get("opts") or {}))
    out: dict[str, Any] = {
        "backend": r.backend,
        "version": r.version,
        "cycles_per_iteration": r.cycles_per_iteration,
    }
    if r.bottleneck is not None:
        out["bottleneck"] = r.bottleneck
    if r.stats:
        out["stats"] = r.stats
    return out


@evaluator("microbench")
def _eval_microbench(p: dict) -> dict[str, Any]:
    import dataclasses

    from ..bench.microbench import run_microbenchmarks

    return {
        "results": [
            dataclasses.asdict(r) for r in run_microbenchmarks(p["chip"])
        ]
    }


@evaluator("topdown")
def _eval_topdown(p: dict) -> dict[str, Any]:
    from ..analysis.topdown import analyze_topdown

    block = _lowered(p)
    r = analyze_topdown(
        list(block.instructions), block.model, iterations=int(p["iterations"])
    )
    return {
        "dominant": r.dominant,
        "cycles_per_iteration": r.cycles_per_iteration,
    }
