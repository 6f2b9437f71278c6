"""Model registry: look up machine models by name or chip alias."""

from __future__ import annotations

from .model import MachineModel

_ALIASES = {
    "neoverse_v2": "neoverse_v2",
    "neoverse-v2": "neoverse_v2",
    "v2": "neoverse_v2",
    "grace": "neoverse_v2",
    "gcs": "neoverse_v2",
    "golden_cove": "golden_cove",
    "golden-cove": "golden_cove",
    "glc": "golden_cove",
    "spr": "golden_cove",
    "sapphire_rapids": "golden_cove",
    "sapphirerapids": "golden_cove",
    "zen4": "zen4",
    "zen-4": "zen4",
    "genoa": "zen4",
}


def available_models() -> list[str]:
    """Canonical model names."""
    return ["neoverse_v2", "golden_cove", "zen4"]


def get_machine_model(name: str) -> MachineModel:
    """Return the machine model for a microarchitecture or chip alias.

    Accepts microarchitecture names (``zen4``, ``golden_cove``,
    ``neoverse_v2``) and marketing aliases (``genoa``, ``spr``,
    ``grace``/``gcs``).
    """
    key = _ALIASES.get(name.strip().lower().replace(" ", "_"))
    if key is None:
        raise ValueError(
            f"unknown machine model {name!r}; known: {sorted(set(_ALIASES))}"
        )
    if key == "neoverse_v2":
        from .neoverse_v2 import NEOVERSE_V2

        return NEOVERSE_V2
    if key == "golden_cove":
        from .golden_cove import GOLDEN_COVE

        return GOLDEN_COVE
    from .zen4 import ZEN4

    return ZEN4


def coerce_model(arch: "str | MachineModel") -> MachineModel:
    """Accept a model instance, or look one up by name/chip alias.

    The single home of the ``arch if isinstance(arch, MachineModel)
    else get_machine_model(arch)`` idiom every public entry point
    needs.
    """
    if isinstance(arch, MachineModel):
        return arch
    return get_machine_model(arch)
