"""Prediction-backend protocol and registry.

A *backend* is one way of turning a lowered assembly block into a
cycles-per-iteration estimate.  The three the paper compares — the
OSACA-style static model, the LLVM-MCA-style baseline, and the
cycle-level core simulator standing in for hardware — are registered
here as ``model``, ``mca``, and ``sim`` (:mod:`.builtin`); a new
predictor (a uiCA-style simulator, a learned model) is one registered
class away (see ``docs/architecture.md``).

Backends consume :class:`~repro.lowering.LoweredBlock` — parsing and
machine-model resolution happen exactly once in the shared lowering
pipeline, never inside a backend.

Every backend carries a ``version`` string that participates in the
engine's cache key: bump it on any semantic change so memoized results
from the old behaviour can never be served for the new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..lowering import LoweredBlock


@dataclass
class BackendResult:
    """What every backend returns, whatever its internals.

    ``cycles_per_iteration`` is the headline number the corpus
    comparisons consume; ``detail`` carries the backend's native result
    object (:class:`~repro.analysis.AnalysisResult`,
    :class:`~repro.mca.MCAResult`,
    :class:`~repro.simulator.SimulationResult`) for callers that want
    more; ``stats`` is a plain-JSON bag safe to cross process and cache
    boundaries.
    """

    backend: str
    version: str
    cycles_per_iteration: float
    bottleneck: Optional[str] = None
    detail: Any = None
    stats: dict[str, Any] = field(default_factory=dict)


@runtime_checkable
class Backend(Protocol):
    """The pluggable prediction interface."""

    name: str
    version: str

    def predict(self, block: "LoweredBlock", **opts: Any) -> BackendResult:
        """Predict steady-state cycles/iteration for a lowered block."""
        ...  # pragma: no cover - protocol


_BACKEND_CLASSES: dict[str, type] = {}
_INSTANCES: dict[str, Backend] = {}


def register_backend(cls: type) -> type:
    """Class decorator: register a :class:`Backend` implementation.

    The class must define ``name`` and ``version`` attributes and a
    ``predict`` method; registration is by ``name`` and duplicate names
    are an error (unregister first to replace).
    """
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(f"backend class {cls.__name__} needs a 'name' string")
    if not isinstance(getattr(cls, "version", None), str):
        raise ValueError(f"backend {name!r} needs a 'version' string")
    if not callable(getattr(cls, "predict", None)):
        raise ValueError(f"backend {name!r} needs a predict() method")
    if name in _BACKEND_CLASSES:
        raise ValueError(f"backend {name!r} already registered")
    _BACKEND_CLASSES[name] = cls
    return cls


def unregister_backend(name: str) -> None:
    """Remove a registered backend (tests; plugin teardown)."""
    _BACKEND_CLASSES.pop(name, None)
    _INSTANCES.pop(name, None)


def get_backend(name: str) -> Backend:
    """Return the (singleton) backend instance for *name*."""
    inst = _INSTANCES.get(name)
    if inst is None:
        try:
            cls = _BACKEND_CLASSES[name]
        except KeyError:
            raise ValueError(
                f"unknown backend {name!r}; known: {available_backends()}"
            ) from None
        inst = _INSTANCES[name] = cls()
    return inst


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_BACKEND_CLASSES)


def backend_version(name: str) -> str:
    return get_backend(name).version


# -- engine integration ----------------------------------------------------

#: which backends each engine work-unit kind dispatches to; the cache
#: key digests these backends' versions so refactored results never
#: collide with stale entries (see repro.engine.cachekey)
KIND_BACKENDS: dict[str, tuple[str, ...]] = {
    "corpus": ("mca", "model", "sim"),
    "topdown": ("sim",),
}


def unit_backends(kind: str, params: dict) -> tuple[str, ...]:
    """The backend names a work unit of *kind* will dispatch to."""
    if kind == "predict":
        b = params.get("backend")
        return (b,) if b else ()
    if kind == "corpus" and params.get("backends"):
        return tuple(sorted(params["backends"]))
    return KIND_BACKENDS.get(kind, ())


def versions_for_unit(kind: str, params: dict) -> dict[str, str]:
    """``{backend name: version}`` for a unit, for cache-key digestion.

    Unknown backend names map to ``"?"`` rather than raising — the key
    must still be computable (the evaluator will raise the real error).
    """
    out: dict[str, str] = {}
    for name in unit_backends(kind, params):
        try:
            out[name] = backend_version(name)
        except ValueError:
            out[name] = "?"
    return out

