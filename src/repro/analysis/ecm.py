"""Execution-Cache-Memory (ECM) model composition.

The paper's conclusion names this as the follow-up: feed the in-core
prediction into a node-level model.  The ECM model (Stengel et al.,
ICS'15) decomposes the runtime of one cache line's worth of iterations
into

* ``T_OL``   — in-core cycles that *overlap* with data transfers
  (arithmetic port pressure),
* ``T_nOL``  — non-overlapping in-core cycles (load/store µops in L1),
* ``T_L1L2``, ``T_L2L3``, ``T_L3Mem`` — inter-level transfer cycles.

Prediction for data in memory: ``max(T_OL, T_nOL + T_L1L2 + T_L2L3 +
T_L3Mem)`` (fully overlapping hierarchy for Grace/Genoa-style machines;
Intel server cores traditionally overlap nothing, selectable via
``overlap``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..machine import MachineModel, get_chip_spec
from .throughput import AnalysisResult


@dataclass(frozen=True)
class ECMPrediction:
    """Cycles per iteration with data resident in each level."""

    t_ol: float
    t_nol: float
    t_l1l2: float
    t_l2l3: float
    t_l3mem: float
    overlap: str

    def cycles(self, level: str) -> float:
        """Predicted cycles/iteration for data in ``level``.

        ``level`` is one of ``"L1"``, ``"L2"``, ``"L3"``, ``"MEM"``.
        """
        transfers = {
            "L1": 0.0,
            "L2": self.t_l1l2,
            "L3": self.t_l1l2 + self.t_l2l3,
            "MEM": self.t_l1l2 + self.t_l2l3 + self.t_l3mem,
        }[level.upper()]
        if self.overlap == "none":
            return self.t_ol + self.t_nol + transfers
        return max(self.t_ol, self.t_nol + transfers)

    def as_string(self) -> str:
        """Classic ECM shorthand ``{T_OL || T_nOL | L2 | L3 | MEM}``."""
        return (
            f"{{{self.t_ol:.1f} ∥ {self.t_nol:.1f} | {self.t_l1l2:.1f} | "
            f"{self.t_l2l3:.1f} | {self.t_l3mem:.1f}}} cy/it"
        )


@dataclass
class ECMModel:
    """ECM composition for one machine.

    Parameters
    ----------
    model:
        The in-core machine model (used to separate memory ports from
        arithmetic ports).
    chip:
        Chip alias for bandwidth data (``gcs``/``spr``/``genoa``).
    l2_bandwidth / l3_bandwidth:
        Inter-level bandwidths in bytes/cycle per core; defaults are
        typical server-core values.
    """

    model: MachineModel
    chip: str
    l2_bandwidth: float = 64.0
    l3_bandwidth: float = 32.0
    overlap: str = "full"  #: "full" (Arm/AMD-style) or "none" (Intel-style)

    def predict(
        self,
        analysis: AnalysisResult,
        *,
        bytes_l1l2: float,
        bytes_l2l3: float,
        bytes_l3mem: float,
        frequency_ghz: Optional[float] = None,
    ) -> ECMPrediction:
        """Compose the in-core analysis with per-iteration traffic.

        ``bytes_*`` are the data volumes one loop iteration moves across
        each boundary (from a layer-condition argument or the cache
        simulator).  ``T_OL`` and ``T_nOL`` read the per-port loads of
        the analysis' binding; the default (most balanced) binding is
        unique, so they depend on the block's µops alone.
        """
        mem_ports = (
            set(self.model.load_ports)
            | set(self.model.store_agu_ports)
            | set(self.model.store_data_ports)
        )
        t_nol = max(
            (analysis.pressure.totals[p] for p in mem_ports), default=0.0
        )
        t_ol = max(
            (
                analysis.pressure.totals[p]
                for p in self.model.ports
                if p not in mem_ports
            ),
            default=0.0,
        )
        t_ol = max(t_ol, analysis.divider_cycles, analysis.special_cycles)

        spec = get_chip_spec(self.chip)
        freq = frequency_ghz or spec.freq_base
        # memory bandwidth per core, in bytes per cycle at `freq`
        mem_bw = spec.memory.bw_sustained / spec.cores * 1e9 / (freq * 1e9) if freq else 1.0

        return ECMPrediction(
            t_ol=t_ol,
            t_nol=t_nol,
            t_l1l2=bytes_l1l2 / self.l2_bandwidth,
            t_l2l3=bytes_l2l3 / self.l3_bandwidth,
            t_l3mem=bytes_l3mem / mem_bw if mem_bw > 0 else float("inf"),
            overlap=self.overlap,
        )
