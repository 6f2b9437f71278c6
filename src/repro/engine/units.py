"""Work units: the engine's unit of schedulable, cacheable work.

A :class:`WorkUnit` is a *plain-data* description of one computation —
an evaluator kind plus a canonical JSON parameter blob.  Keeping units
pure data buys three properties at once:

* **picklable** — units cross the ``multiprocessing`` boundary without
  dragging machine models or parsed instruction lists along,
* **hashable** — the canonical JSON form is the basis of the
  content-addressed cache key (see :mod:`.cachekey`),
* **order-free** — results are reassembled by submission index, so a
  parallel run is bit-identical to the serial one.

Heavy objects (machine models, kernel specs) are referenced by *name*
or passed in serialized form (``repro.machine.io.model_to_dict``); the
evaluator rebuilds them inside the worker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..lowering.digests import canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .errors import UnitFailure


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable computation.

    Parameters live in ``params_json`` (canonical JSON) so the unit is
    hashable and deterministic; use :meth:`make` rather than the raw
    constructor.  ``label`` is a human-readable tag for progress hooks
    and metrics — it does *not* participate in the cache key.
    """

    kind: str
    params_json: str
    label: str = field(default="", compare=False)

    @classmethod
    def make(cls, kind: str, label: str = "", **params: Any) -> "WorkUnit":
        return cls(kind=kind, params_json=canonical_json(params), label=label)

    @property
    def params(self) -> dict[str, Any]:
        return json.loads(self.params_json)

    def get(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.kind}:{self.label or self.params_json[:48]}>"


@dataclass
class UnitOutcome:
    """Per-unit execution record kept by the engine for metrics/hooks.

    Exactly one of ``result``/``failure`` is set: ``failure`` carries
    the structured :class:`~repro.engine.errors.UnitFailure` when the
    unit failed under the ``collect``/``quarantine`` error policies
    (``result`` is then ``None``).  A unit that shared the evaluation of
    an earlier unit with the same content key in its batch reports that
    evaluation's ``seconds``.
    """

    index: int
    unit: WorkUnit
    cached: bool
    seconds: float
    result: Optional[dict[str, Any]]
    failure: Optional["UnitFailure"] = None
