"""A LIKWID-like performance-counter facade over the simulators.

The paper reads hardware counters (LIKWID groups ``MEM``, ``CLOCK``,
``FLOPS_DP``) to obtain memory traffic, sustained frequency, and FLOP
rates.  :class:`PerfCounters` offers the same *readings* sourced from
the simulated hierarchy/governor, so benchmark code is written exactly
as it would be against LIKWID's Python API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..machine.specs import ChipSpec, get_chip_spec
from .frequency import FrequencyGovernor
from .memory import CacheHierarchy


@dataclass
class CounterReading:
    group: str
    values: dict[str, float]

    def __getitem__(self, key: str) -> float:
        return self.values[key]


class PerfCounters:
    """Counter groups measured from simulator state.

    Usage::

        counters = PerfCounters("spr")
        counters.attach_hierarchy(hierarchy)
        mem = counters.read("MEM")
        mem["read_bytes"], mem["write_bytes"]
    """

    GROUPS = ("MEM", "CLOCK", "FLOPS_DP", "CACHE")

    def __init__(self, chip: str | ChipSpec):
        self.spec = chip if isinstance(chip, ChipSpec) else get_chip_spec(chip)
        self.governor = FrequencyGovernor.for_chip(self.spec)
        self._hierarchy: Optional[CacheHierarchy] = None
        self._flops: float = 0.0
        self._cycles: float = 0.0
        self._active_cores: int = 1
        self._isa_class: str = self.spec.isa_classes[0]

    # -- wiring ------------------------------------------------------------

    def attach_hierarchy(self, hierarchy: CacheHierarchy) -> None:
        self._hierarchy = hierarchy

    def record_compute(self, flops: float, cycles: float) -> None:
        self._flops += flops
        self._cycles += cycles

    def set_affinity(self, active_cores: int, isa_class: str) -> None:
        if isa_class not in self.spec.frequency.power_coeff:
            raise ValueError(f"unknown ISA class {isa_class!r}")
        self._active_cores = active_cores
        self._isa_class = isa_class

    # -- reading -----------------------------------------------------------

    def read(self, group: str) -> CounterReading:
        group = group.upper()
        if group == "MEM":
            if self._hierarchy is None:
                raise RuntimeError("no cache hierarchy attached")
            s = self._hierarchy.stats
            return CounterReading(
                "MEM",
                {
                    "read_bytes": float(s.mem_read_bytes),
                    "write_bytes": float(s.mem_write_bytes),
                    "total_bytes": float(s.mem_read_bytes + s.mem_write_bytes),
                },
            )
        if group == "CLOCK":
            f = self.governor.sustained(self._active_cores, self._isa_class)
            return CounterReading(
                "CLOCK",
                {
                    "frequency_ghz": f,
                    "active_cores": float(self._active_cores),
                },
            )
        if group == "FLOPS_DP":
            f = self.governor.sustained(self._active_cores, self._isa_class)
            gflops = (
                self._flops / (self._cycles / (f * 1e9)) / 1e9
                if self._cycles
                else 0.0
            )
            return CounterReading(
                "FLOPS_DP",
                {"flops": self._flops, "cycles": self._cycles, "gflops": gflops},
            )
        if group == "CACHE":
            if self._hierarchy is None:
                raise RuntimeError("no cache hierarchy attached")
            values: dict[str, float] = {}
            for lvl in self._hierarchy.levels:
                st = lvl.flush_stats()
                values[f"{lvl.name}_hits"] = float(st["hits"])
                values[f"{lvl.name}_misses"] = float(st["misses"])
            return CounterReading("CACHE", values)
        raise ValueError(f"unknown counter group {group!r}; known: {self.GROUPS}")
