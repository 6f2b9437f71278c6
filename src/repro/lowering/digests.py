"""Content digests shared by the lowering memo and the engine cache.

Both caches answer the same question — "is this computation's input
identical to one we have seen?" — so they must share one notion of
identity:

* assembly text is canonicalized (comments, blank lines, and
  whitespace layout removed) before hashing, so two compilers emitting
  the same instructions in different layouts share one slot — the
  paper counts 290 unique representations out of 416 corpus blocks for
  the same reason;
* machine models are digested over their *full* serialized parameter
  set (any port, latency, width, buffer-size or table-entry edit
  reshapes predictions).

Everything is hashed with SHA-256 over canonical JSON.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from typing import Any


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonicalize_assembly(asm: str) -> str:
    """Normalize assembly text for hashing.

    Removed: blank lines, whole-line comments (``#``, ``//``, ``;`` —
    ``#`` only at line start, since AArch64 uses it for immediates),
    trailing ``//`` comments, and runs of whitespace.  Anything that
    survives — mnemonics, operands, labels, directives — is semantic
    and must affect the key.
    """
    out: list[str] = []
    for raw in asm.splitlines():
        line = raw.strip()
        if not line or line.startswith(("#", "//", ";")):
            continue
        cut = line.find("//")
        if cut >= 0:
            line = line[:cut].rstrip()
            if not line:
                continue
        out.append(" ".join(line.split()))
    return "\n".join(out)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def assembly_digest(asm: str) -> str:
    """Digest of canonicalized assembly text."""
    return sha256_text(canonicalize_assembly(asm))


def machine_model_digest(model_or_name: Any) -> str:
    """Digest of a machine model's full parameter set.

    Accepts a :class:`~repro.machine.model.MachineModel`, a model
    name/chip alias, or an already-serialized model dict.  A name
    resolves to one registered model instance, so its digest is
    memoized (:func:`cached_model_digest`).
    """
    from ..machine.io import model_to_dict

    if isinstance(model_or_name, str):
        from ..machine import get_machine_model

        return cached_model_digest(get_machine_model(model_or_name))
    if not isinstance(model_or_name, dict):
        model_or_name = model_to_dict(model_or_name)
    return sha256_text(canonical_json(model_or_name))


# -- per-instance digest memo ----------------------------------------------
#
# Serializing a full machine model dominates digest cost, and the same
# model instance is digested for every lowered block.  Models are
# treated as immutable after construction (what-if studies build new
# instances via dataclasses.replace); the memo is keyed by id() and
# guarded by a weak reference so a recycled id can never alias a dead
# model.

_INSTANCE_DIGESTS: dict[int, tuple[Any, str]] = {}


def cached_model_digest(model: Any) -> str:
    """:func:`machine_model_digest` memoized per model instance."""
    key = id(model)
    entry = _INSTANCE_DIGESTS.get(key)
    if entry is not None and entry[0]() is model:
        return entry[1]
    digest = machine_model_digest(model)
    try:
        ref = weakref.ref(model, lambda _: _INSTANCE_DIGESTS.pop(key, None))
    except TypeError:  # pragma: no cover - non-weakref-able stand-ins
        return digest
    _INSTANCE_DIGESTS[key] = (ref, digest)
    return digest
