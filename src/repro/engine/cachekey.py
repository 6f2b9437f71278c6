"""Content-addressed cache keys for engine work units.

The key must change exactly when the *result* could change:

* the assembly text, **modulo comments and insignificant whitespace**
  (two compilers emitting the same instructions in different layouts
  share one cache slot — the paper counts 290 unique representations
  out of 416 corpus blocks for the same reason),
* the machine-model parameters (any port, latency, width, buffer-size
  or table-entry edit reshapes predictions, so the full serialized
  model is digested),
* the simulation parameters (iteration counts, warmup, scheduling-data
  overrides),
* the **versions of the prediction backends** the unit dispatches to
  (:func:`repro.backends.versions_for_unit`) — a backend can change
  semantics independently of the engine, and its version string is the
  contract that invalidates its cached results, and
* :data:`ENGINE_VERSION` — bumped on any semantic change to the
  evaluators or the key schema itself, so stale caches self-invalidate.

The digest primitives live in :mod:`repro.lowering.digests`.

Everything is hashed with SHA-256 over canonical JSON.
"""

from __future__ import annotations

from typing import Any, Optional

from ..lowering.digests import (
    assembly_digest,
    canonical_json,
    machine_model_digest,
    sha256_text as _sha256,
)
from .units import WorkUnit

#: Bump on any change to evaluator semantics, simulator behaviour, or
#: the key schema itself.  Old cache entries become unreachable (not
#: wrong) — the cache is append-only and content-addressed.
#:
#: History: "1" pre-dated the unified lowering pipeline; "2" routes all
#: evaluators through repro.lowering + the backend registry and digests
#: backend versions into the key.
ENGINE_VERSION = "2"

#: parameter names that reference a machine model by name/alias and
#: must be expanded into a full model digest
_MODEL_REF_PARAMS = ("uarch", "chip", "arch")


def cache_key(
    unit: WorkUnit,
    model_digests: Optional[dict[str, str]] = None,
) -> str:
    """The content address of a work unit's result.

    ``model_digests`` memoizes per-model digests across a batch (the
    model serialization is the expensive part of key construction).
    """
    params = unit.params
    keyed: dict[str, Any] = {}
    for name, value in params.items():
        if name == "assembly":
            keyed["assembly_digest"] = assembly_digest(value)
        elif name == "model" and isinstance(value, dict):
            keyed["model_digest"] = machine_model_digest(value)
        elif name in _MODEL_REF_PARAMS and isinstance(value, str):
            if model_digests is not None:
                if value not in model_digests:
                    model_digests[value] = machine_model_digest(value)
                digest = model_digests[value]
            else:
                digest = machine_model_digest(value)
            keyed[name] = value
            keyed[f"{name}_model_digest"] = digest
        else:
            keyed[name] = value

    payload_obj: dict[str, Any] = {
        "engine_version": ENGINE_VERSION,
        "kind": unit.kind,
        "params": keyed,
    }
    # Deferred import: backends pull in the registry, which is cheap,
    # but the engine must stay importable without the analysis layers.
    from ..backends import versions_for_unit

    backends = versions_for_unit(unit.kind, params)
    if backends:
        payload_obj["backends"] = backends
    return _sha256(canonical_json(payload_obj))
