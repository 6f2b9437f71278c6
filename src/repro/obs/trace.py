"""Low-overhead span/event tracing with Chrome trace-event export.

One :class:`Tracer` collects events from the two instrumented layers
into a single file viewable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``:

* **simulator events** (``pid`` :data:`PID_SIM`) are stamped in
  *cycles* — one simulated cycle maps to one trace microsecond, so the
  time axis reads directly as the core clock.  Lanes (``tid``) are the
  frontend, the retire stage, a stall lane, and one lane per execution
  port; every µop becomes a complete (``"X"``) slice on its port lane.
* **engine events** (``pid`` :data:`PID_ENGINE`) are stamped in
  wall-clock microseconds since the tracer was created.  Work units
  become slices on worker lanes; cache hits are instant events.

The two clock domains never share a ``pid``, so the mismatch in units
is explicit rather than misleading.

Disabled tracing must cost (near) nothing.  "Off" is ``None``, and
call sites hoist a single boolean out of their hot loops::

    tracing = tracer is not None
    ...
    if tracing:
        tracer.complete(...)
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Iterator, Optional, Sequence

#: trace "process" of the cycle-level core simulator (cycle timestamps)
PID_SIM = 1
#: trace "process" of the corpus engine (wall-clock timestamps)
PID_ENGINE = 2
#: trace "process" of the lowering pipeline (wall-clock timestamps)
PID_LOWER = 3
#: trace "process" of the serving daemon (wall-clock timestamps)
PID_SERVE = 4

#: lowering lane (parse/resolve spans and memo-hit instants)
TID_LOWER = 0

#: simulator lanes
TID_FRONTEND = 0
TID_RETIRE = 1
TID_STALL = 2
#: first execution-port lane; port *i* of the model maps to tid 10+i
TID_PORT_BASE = 10

#: engine lanes
TID_ENGINE_CONTROL = 0
#: first worker lane; worker *i* maps to tid 1+i
TID_WORKER_BASE = 1

#: serving lanes: the dispatcher's batch spans, then one request lane
#: per batch slot (slot *i* maps to tid 1+i) — batches are serialized,
#: so slot occupancy is disjoint per lane by construction
TID_SERVE_DISPATCH = 0
TID_SERVE_SLOT_BASE = 1


class Tracer:
    """Collects Chrome trace events (plain dicts, appended in order)."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []
        self._processes: dict[int, str] = {}
        self._lanes: dict[tuple[int, int], str] = {}
        self._epoch = time.perf_counter()

    # -- clocks --------------------------------------------------------

    def now_us(self) -> float:
        """Wall-clock microseconds since the tracer was created."""
        return (time.perf_counter() - self._epoch) * 1e6

    # -- lane registration ---------------------------------------------

    def process(self, pid: int, name: str) -> None:
        if pid not in self._processes:
            self._processes[pid] = name

    def lane(self, pid: int, tid: int, name: str) -> None:
        if (pid, tid) not in self._lanes:
            self._lanes[(pid, tid)] = name

    def sim_lanes(self, ports: Sequence[str]) -> dict[str, int]:
        """Register the simulator's lanes; returns the port→tid map."""
        self.process(PID_SIM, "core simulator (1 cycle = 1 us)")
        self.lane(PID_SIM, TID_FRONTEND, "frontend (dispatch)")
        self.lane(PID_SIM, TID_RETIRE, "retire")
        self.lane(PID_SIM, TID_STALL, "stalls")
        port_tid = {}
        for i, p in enumerate(ports):
            tid = TID_PORT_BASE + i
            self.lane(PID_SIM, tid, f"port {p}")
            port_tid[p] = tid
        return port_tid

    def engine_lanes(self, jobs: int) -> None:
        """Register the engine's control + worker lanes."""
        self.process(PID_ENGINE, "corpus engine (wall clock)")
        self.lane(PID_ENGINE, TID_ENGINE_CONTROL, "engine")
        for i in range(jobs):
            self.lane(PID_ENGINE, TID_WORKER_BASE + i, f"worker {i}")

    def serve_lanes(self, batch_max: int) -> None:
        """Register the serving daemon's dispatcher + slot lanes."""
        self.process(PID_SERVE, "serving daemon (wall clock)")
        self.lane(PID_SERVE, TID_SERVE_DISPATCH, "dispatcher")
        for i in range(batch_max):
            self.lane(PID_SERVE, TID_SERVE_SLOT_BASE + i, f"slot {i}")

    # -- event emission ------------------------------------------------

    def complete(
        self,
        name: str,
        ts: float,
        dur: float,
        pid: int,
        tid: int,
        cat: str = "",
        args: Optional[dict[str, Any]] = None,
    ) -> None:
        """A ``"X"`` (complete) slice: ``[ts, ts + dur)`` on one lane.

        Slices on a single lane must not partially overlap (the viewer
        treats them as a call stack); the emitters below only use lanes
        whose occupancy is disjoint by construction.
        """
        e: dict[str, Any] = {
            "name": name, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid,
        }
        if cat:
            e["cat"] = cat
        if args:
            e["args"] = args
        self.events.append(e)

    def instant(
        self,
        name: str,
        ts: float,
        pid: int,
        tid: int,
        cat: str = "",
        args: Optional[dict[str, Any]] = None,
    ) -> None:
        """A thread-scoped ``"i"`` (instant) event."""
        e: dict[str, Any] = {
            "name": name, "ph": "i", "ts": ts, "s": "t",
            "pid": pid, "tid": tid,
        }
        if cat:
            e["cat"] = cat
        if args:
            e["args"] = args
        self.events.append(e)

    def counter(
        self, name: str, ts: float, pid: int, values: dict[str, float]
    ) -> None:
        """A ``"C"`` (counter) sample, rendered as a stacked area track."""
        self.events.append(
            {"name": name, "ph": "C", "ts": ts, "pid": pid, "args": values}
        )

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        pid: int,
        tid: int,
        cat: str = "",
        args: Optional[dict[str, Any]] = None,
    ) -> Iterator[None]:
        """Wall-clock span: a complete event around the ``with`` body."""
        t0 = self.now_us()
        try:
            yield
        finally:
            self.complete(name, t0, self.now_us() - t0, pid, tid, cat, args)

    # -- export --------------------------------------------------------

    def metadata_events(self) -> list[dict[str, Any]]:
        out: list[dict[str, Any]] = []
        for pid, name in self._processes.items():
            out.append(
                {"name": "process_name", "ph": "M", "pid": pid,
                 "args": {"name": name}}
            )
        for (pid, tid), name in self._lanes.items():
            out.append(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": name}}
            )
        return out

    def to_chrome(
        self, other_data: Optional[dict[str, Any]] = None
    ) -> dict[str, Any]:
        """The JSON-object form of the Chrome trace-event format."""
        doc: dict[str, Any] = {
            "traceEvents": self.metadata_events() + self.events,
            "displayTimeUnit": "ms",
        }
        if other_data:
            doc["otherData"] = other_data
        return doc

    def write(
        self, path, other_data: Optional[dict[str, Any]] = None
    ) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(other_data), fh, indent=1)


# ---------------------------------------------------------------------------
# Ambient tracer: the CLI installs one; the engine and other library
# paths pick it up without threading a tracer through every signature.
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` when tracing is off (default)."""
    return _ACTIVE


def set_active_tracer(tracer: Optional[Tracer]) -> None:
    global _ACTIVE
    _ACTIVE = tracer


@contextlib.contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Temporarily install *tracer* as the ambient tracer."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous
