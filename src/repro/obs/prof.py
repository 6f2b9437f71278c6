"""Hierarchical phase profiler with per-unit cost attribution.

The paper's contribution is *explainability* — attributing cycles to
ports, dependency chains, and frontend limits.  This module applies the
same discipline to the reproduction's own wall clock: where does a
sweep's time go, phase by phase, unit by unit, instruction by
instruction?

One :class:`PhaseProfiler` collects four kinds of cost records:

* **phases** — nested wall+CPU timers.  :meth:`PhaseProfiler.phase`
  is a context manager; nesting builds slash-joined paths
  (``lower/parse``, ``predict/sim``) that aggregate by path, so the
  report can rank phases and export collapsed-stack flamegraphs.
* **cycles** — deterministic *simulated-cycle* attribution published
  by the core simulator's sub-phases (frontend dispatch, ROB
  backpressure, issue/port waits, retire).  Unlike wall time these are
  a pure function of the input, so serial and ``jobs=N`` runs agree
  bit-for-bit.
* **instructions / ports** — simulated cycles by mnemonic and
  execution-port occupancy (the "top instructions by sim cycles" view).
* **units** — one record per engine work unit (wall seconds + summed
  sim cycles), published by :class:`~repro.engine.pool.CorpusEngine`.

Every unit attempt runs under a fresh profiler that rides with its
task (:func:`repro.engine.pool._evaluate_task`); its plain-dict
:meth:`snapshot` crosses the pickle boundary and the parent
:meth:`absorb`\\ s the snapshots **in submission order**, so the merged
attribution is independent of worker scheduling.

Disabled profiling must cost (near) nothing.  A run installs a profiler
in its run context (``use_context(profiler=p)``, :mod:`repro.context`);
as with tracing, "off" is ``None``, and call sites hoist one boolean out
of their hot loops::

    prof = current_context().profiler
    profiling = prof is not None
    ...
    if profiling:
        prof.add_cycles({...})

See ``docs/observability.md`` ("Profiling & perf baselines").
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Iterator

SCHEMA = "repro-profile/1"

#: path separator for nested phases ("lower/parse"); collapsed-stack
#: export rewrites it to the flamegraph convention (";")
SEP = "/"


class PhaseProfiler:
    """Collects phase timings and deterministic cost attribution."""

    def __init__(self) -> None:
        #: path -> [count, wall_seconds, cpu_seconds]
        self.phases: dict[str, list[float]] = {}
        #: path -> simulated cycles (deterministic attribution)
        self.cycles: dict[str, float] = {}
        #: mnemonic -> simulated cycles of its µops
        self.instructions: dict[str, float] = {}
        #: execution port -> occupancy cycles
        self.ports: dict[str, float] = {}
        #: free-form deterministic counters (ROB occupancy, window gaps)
        self.counters: dict[str, float] = {}
        #: unit label -> [count, wall_seconds, sim_cycles]
        self.units: dict[str, list[float]] = {}
        self._stack: list[str] = []

    # -- phase timers ---------------------------------------------------

    def _join(self, name: str) -> str:
        cur = self._stack[-1] if self._stack else ""
        return f"{cur}{SEP}{name}" if cur else name

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the body as a nested phase (wall + CPU)."""
        path = self._join(name)
        self._stack.append(path)
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            yield
        finally:
            w = time.perf_counter() - w0
            c = time.process_time() - c0
            self._stack.pop()
            st = self.phases.get(path)
            if st is None:
                self.phases[path] = [1, w, c]
            else:
                st[0] += 1
                st[1] += w
                st[2] += c

    def record_phase(
        self, name: str, wall: float, cpu: float, count: int = 1
    ) -> None:
        """Record an externally timed phase (hot loops time themselves
        once instead of entering a context manager per event)."""
        path = self._join(name)
        st = self.phases.get(path)
        if st is None:
            self.phases[path] = [count, wall, cpu]
        else:
            st[0] += count
            st[1] += wall
            st[2] += cpu

    # -- deterministic attribution -------------------------------------

    def add_cycles(self, mapping: dict[str, float]) -> None:
        """Add simulated-cycle attribution under the current phase."""
        cyc = self.cycles
        cur = self._stack[-1] if self._stack else ""
        for name, v in mapping.items():
            path = f"{cur}{SEP}{name}" if cur else name
            cyc[path] = cyc.get(path, 0.0) + v

    def add_instruction_cycles(self, mapping: dict[str, float]) -> None:
        ins = self.instructions
        for mnem, v in mapping.items():
            ins[mnem] = ins.get(mnem, 0.0) + v

    def add_port_cycles(self, mapping: dict[str, float]) -> None:
        ports = self.ports
        for port, v in mapping.items():
            ports[port] = ports.get(port, 0.0) + v

    def add_counter(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def record_unit(
        self, label: str, wall_seconds: float, sim_cycles: float = 0.0
    ) -> None:
        """One engine work unit's cost (parent-side aggregation)."""
        st = self.units.get(label)
        if st is None:
            self.units[label] = [1, wall_seconds, sim_cycles]
        else:
            st[0] += 1
            st[1] += wall_seconds
            st[2] += sim_cycles

    # -- pickle-boundary round trip ------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-data dump (sorted keys — deterministic and picklable)."""
        return {
            "schema": SCHEMA,
            "phases": {
                k: list(self.phases[k]) for k in sorted(self.phases)
            },
            "cycles": {k: self.cycles[k] for k in sorted(self.cycles)},
            "instructions": {
                k: self.instructions[k] for k in sorted(self.instructions)
            },
            "ports": {k: self.ports[k] for k in sorted(self.ports)},
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "units": {k: list(self.units[k]) for k in sorted(self.units)},
        }

    def absorb(
        self, snapshot: dict[str, Any], prefix: str = ""
    ) -> None:
        """Merge a worker snapshot into this profiler.

        ``prefix`` re-roots the snapshot's phase/cycle paths (the engine
        absorbs worker unit profiles under ``unit``), keeping parent-side
        phases and worker-side phases distinguishable in one report.
        Merging is pure summation; absorbing snapshots in a fixed order
        makes the merged floats identical run to run.
        """

        def _p(path: str) -> str:
            return f"{prefix}{SEP}{path}" if prefix else path

        for path, (n, w, c) in snapshot.get("phases", {}).items():
            st = self.phases.setdefault(_p(path), [0, 0.0, 0.0])
            st[0] += n
            st[1] += w
            st[2] += c
        for path, v in snapshot.get("cycles", {}).items():
            p = _p(path)
            self.cycles[p] = self.cycles.get(p, 0.0) + v
        self.add_instruction_cycles(snapshot.get("instructions", {}))
        self.add_port_cycles(snapshot.get("ports", {}))
        for name, v in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0.0) + v
        for label, (n, w, cy) in snapshot.get("units", {}).items():
            st = self.units.setdefault(label, [0, 0.0, 0.0])
            st[0] += n
            st[1] += w
            st[2] += cy

    # -- analysis -------------------------------------------------------

    def self_wall(self) -> dict[str, float]:
        """Per-phase *self* wall time: total minus direct children."""
        out = {path: st[1] for path, st in self.phases.items()}
        for path, st in self.phases.items():
            head = path.rsplit(SEP, 1)[0] if SEP in path else None
            if head is not None and head in out:
                out[head] -= st[1]
        return {k: max(0.0, v) for k, v in out.items()}

    def attribution_shares(
        self, depth: int = 2, top: int = 8
    ) -> dict[str, float]:
        """Wall-time share by phase path truncated to ``depth`` levels.

        Shares are fractions of the summed root-phase wall time; the
        top ``top`` entries are returned (deterministic: sorted by
        share then path).
        """
        selfw = self.self_wall()
        rolled: dict[str, float] = {}
        total = 0.0
        for path, w in selfw.items():
            key = SEP.join(path.split(SEP)[:depth])
            rolled[key] = rolled.get(key, 0.0) + w
            total += w
        if total <= 0:
            return {}
        items = sorted(
            ((k, v / total) for k, v in rolled.items() if v > 0),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return dict(items[:top])

    def report(self, top: int = 10) -> str:
        """Ranked attribution report: phases, units, instructions."""
        lines = ["profile: top phases by wall time (self time)"]
        selfw = self.self_wall()
        ranked = sorted(
            self.phases.items(), key=lambda kv: (-selfw[kv[0]], kv[0])
        )
        if not ranked:
            lines.append("  (no phases recorded)")
        width = max((len(p) for p, _ in ranked[:top]), default=0)
        for path, (n, w, c) in ranked[:top]:
            lines.append(
                f"  {path:<{width}}  self {selfw[path]:8.3f} s  "
                f"total {w:8.3f} s  cpu {c:8.3f} s  x{int(n)}"
            )
        if self.cycles:
            lines.append("profile: simulated-cycle attribution")
            cyc = sorted(self.cycles.items(), key=lambda kv: (-kv[1], kv[0]))
            cwidth = max(len(p) for p, _ in cyc[:top])
            for path, v in cyc[:top]:
                lines.append(f"  {path:<{cwidth}}  {v:12.1f} cycles")
        if self.units:
            lines.append(f"profile: top units by sim cycles (of {len(self.units)})")
            units = sorted(
                self.units.items(), key=lambda kv: (-kv[1][2], kv[0])
            )
            uwidth = max(len(u) for u, _ in units[:top])
            for label, (n, w, cy) in units[:top]:
                lines.append(
                    f"  {label:<{uwidth}}  {cy:12.1f} cycles  "
                    f"{w:8.4f} s  x{int(n)}"
                )
        if self.instructions:
            lines.append("profile: top instructions by sim cycles")
            instrs = sorted(
                self.instructions.items(), key=lambda kv: (-kv[1], kv[0])
            )
            iwidth = max(len(m) for m, _ in instrs[:top])
            for mnem, v in instrs[:top]:
                lines.append(f"  {mnem:<{iwidth}}  {v:12.1f} cycles")
        if self.ports:
            busy = sorted(self.ports.items())
            lines.append(
                "profile: port occupancy (cycles): "
                + ", ".join(f"{p}={v:.0f}" for p, v in busy)
            )
        return "\n".join(lines)

    # -- export ---------------------------------------------------------

    def to_collapsed(self) -> str:
        """Collapsed-stack flamegraph lines (``a;b;c <wall µs>``).

        Feed to ``flamegraph.pl`` or paste into speedscope; values are
        integer self-wall microseconds.
        """
        selfw = self.self_wall()
        lines = []
        for path in sorted(selfw):
            us = int(round(selfw[path] * 1e6))
            if us > 0:
                lines.append(f"{path.replace(SEP, ';')} {us}")
        return "\n".join(lines)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=1, sort_keys=True)

    def write_collapsed(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_collapsed() + "\n")

