"""``repro.lowering`` — the shared parse → normalize → resolve front-end.

Every prediction backend (static model, MCA baseline, core simulator)
consumes the same lowered form of an assembly block; this package runs
that front half once per call and keeps no state (see :mod:`.pipeline`).
The content digests behind the engine's on-disk cache key live in
:mod:`.digests`.

Entry points::

    from repro.lowering import lower

    block = lower(asm_text, "zen4")     # LoweredBlock
    block.instructions                   # parsed+normalized IR
    block.resolved                       # machine-resource bindings

See ``docs/architecture.md`` for the full pipeline diagram.
"""

from .digests import (
    assembly_digest,
    cached_model_digest,
    canonical_json,
    canonicalize_assembly,
    machine_model_digest,
    sha256_text,
)
from .pipeline import (
    LoweredBlock,
    clear_memo,
    lower,
    normalize_instructions,
)

__all__ = [
    "LoweredBlock",
    "assembly_digest",
    "cached_model_digest",
    "canonical_json",
    "canonicalize_assembly",
    "clear_memo",
    "lower",
    "machine_model_digest",
    "normalize_instructions",
    "sha256_text",
]
