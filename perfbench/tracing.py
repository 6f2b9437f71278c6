"""Outside-in tracing: timing wrappers around each layer's public functions.

The benchmark records spans from its own files only.  :class:`Tracer`
replaces each layer's entry point, at the name its caller resolves,
with a wrapper that times the call and records a span; ``uninstall()``
puts every original binding back.  Nothing under ``src/`` knows it is
being traced.

A span is ``[sid, parent, name, t0_ns, t1_ns, tid, rid, args]`` while
it is recorded (a list, so that recording stays cheap) and a
:class:`Span` once it has been collected.  Times are
``time.monotonic_ns()``, which every process on the host shares, so
spans of the benchmark, the daemon and the pool workers line up.

Pool workers are forked while the parent is inside a wrapper, and the
pool terminates them, so they never reach an end-of-run write.  The
first wrapped call in a new process therefore resets the inherited
recorder, and a worker appends its spans to ``<trace_dir>/<pid>.jsonl``
each time a wrapped ``evaluate`` returns.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.abc
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Optional

_now = time.monotonic_ns


class Span(NamedTuple):
    """One collected span."""

    pid: int
    sid: int
    parent: int
    name: str
    t0: int
    t1: int
    tid: int
    rid: Optional[str]
    args: Any

    @property
    def dur(self) -> int:
        return self.t1 - self.t0


class Recorder:
    """The in-memory span store of one process.

    ``unit_detail`` adds each batch's request ids and cache outcomes to
    the ``engine.run`` spans; the serving daemon needs them to join its
    batches to client requests, the sweeps do not pay for them.
    """

    def __init__(
        self, trace_dir: Optional[Path] = None, *, unit_detail: bool = False
    ):
        self.owner = os.getpid()
        self.pid = self.owner
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.unit_detail = unit_detail
        self.spans: list[list] = []
        self.local = threading.local()
        self.ids = itertools.count(1)
        self._worker_file = None

    def after_fork(self) -> None:
        """Forget the parent's spans and open-span stack in a new process.

        The inherited span list is set aside, not freed: freeing it would
        touch every page it lives on and copy them all, in a worker that
        the engine is already timing.
        """
        self.pid = os.getpid()
        self._inherited = self.spans
        self.spans = []
        self.local.stack = []
        self._worker_file = None

    def flush_worker(self) -> None:
        """Append this worker's spans to ``<trace_dir>/<pid>.jsonl``.

        The file stays open for the worker's life and every flush reaches
        the OS, so nothing is lost when the pool terminates the worker.
        """
        if self.trace_dir is None or not self.spans:
            return
        if self._worker_file is None:
            self._worker_file = open(self.trace_dir / f"{self.pid}.jsonl", "a")
        self._worker_file.write(self._jsonl())
        self._worker_file.flush()
        self.spans.clear()

    def collect(self) -> list[Span]:
        """This process's spans so far, and clear them."""
        out = [Span(self.pid, *s) for s in self.spans]
        self.spans.clear()
        return out

    def write_jsonl(self, path: Path) -> None:
        """Write this process's spans (the daemon's end-of-run dump)."""
        Path(path).write_text(self._jsonl())

    def _jsonl(self) -> str:
        return "".join(json.dumps([self.pid, *s]) + "\n" for s in self.spans)


def load_jsonl(trace_dir: Path) -> list[Span]:
    """Every span flushed to ``*.jsonl`` files under *trace_dir*."""
    out = []
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        with open(path) as fh:
            out.extend(Span(*json.loads(line)) for line in fh if line.strip())
    return out


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

AfterHook = Callable[[Recorder, list, tuple, dict, Any], None]


def _wrap(
    rec: Recorder,
    name: str,
    fn: Callable,
    after: Optional[AfterHook] = None,
    flush: bool = False,
) -> Callable:
    getpid = os.getpid
    ident = threading.get_ident

    @functools.wraps(fn)
    def wrapper(*a, **k):
        if getpid() != rec.pid:
            rec.after_fork()
        local = rec.local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        parent = stack[-1] if stack else 0
        sid = next(rec.ids)
        stack.append(sid)
        ok = False
        t0 = _now()
        try:
            out = fn(*a, **k)
            ok = True
            return out
        finally:
            t1 = _now()
            stack.pop()
            span = [sid, parent, name, t0, t1, ident(), None, None]
            if ok and after is not None:
                after(rec, span, a, k, out)
            rec.spans.append(span)
            if flush and rec.pid != rec.owner:
                rec.flush_worker()

    wrapper.__perfbench_original__ = fn
    return wrapper


def _arg(a: tuple, k: dict, pos: int, name: str, default: Any = None) -> Any:
    return a[pos] if len(a) > pos else k.get(name, default)


def _after_steady(rec, span, a, k, out) -> None:
    span[7] = {"confident": bool(out.confident)}


def _after_cycle_engine(rec, span, a, k, out) -> None:
    plan = _arg(a, k, 1, "plan")
    window = (_arg(a, k, 2, "iterations", 200), _arg(a, k, 3, "warmup", 50))
    # hash() is consistent within a process family (forked workers share
    # the parent's hash seed), which is all the unique ratio compares
    key = hash((plan.model.name, plan.instructions, plan.config, window))
    span[7] = {"instr": out.instructions_retired, "key": key}


def _after_engine_run(rec, span, a, k, out) -> None:
    m = a[0].metrics
    args = {
        "units": m.total_units, "hits": m.cache_hits,
        "evaluated": m.evaluated, "failed": m.failed,
        "busy_s": m.busy_seconds, "jobs": m.jobs,
    }
    if rec.unit_detail:
        units = _arg(a, k, 1, "units")
        cached = {o.index: o.cached for o in a[0].last_outcomes}
        args["rids"] = [[u.label, cached.get(i)] for i, u in enumerate(units)]
    span[7] = args


def _after_cache_get(rec, span, a, k, out) -> None:
    span[7] = out is not None


def unit_key(kind: str, params_json: str) -> str:
    """Digest of one unit's (kind, params): joins worker spans to units."""
    return hashlib.blake2b(
        f"{kind}\0{params_json}".encode(), digest_size=8
    ).hexdigest()


def _after_evaluate(rec, span, a, k, out) -> None:
    params = _arg(a, k, 1, "params")
    span[7] = unit_key(
        _arg(a, k, 0, "kind"),
        json.dumps(params, sort_keys=True, separators=(",", ":")),
    )


def _after_parse(rec, span, a, k, out) -> None:
    span[6] = out.label


#: (span name, module, attribute path, after-hook, flush) — each layer's
#: public entry point at the name its caller resolves
TARGETS: tuple[tuple[str, str, str, Optional[AfterHook], bool], ...] = (
    ("kernels.enumerate", "repro.bench.fig3", "enumerate_corpus", None, False),
    ("engine.units", "repro.bench.fig3", "corpus_units", None, False),
    ("isa.parse", "repro.lowering.pipeline", "parse_kernel", None, False),
    ("lowering.lower", "repro.lowering", "lower", None, False),
    ("lowering.lower", "repro.lowering.pipeline", "lower", None, False),
    ("simulator.plan", "repro.simulator.core", "build_uop_plan", None, False),
    ("simulator.plan", "repro.simulator.plan", "build_uop_plan", None, False),
    ("simulator.steadystate", "repro.simulator.steadystate",
     "predict_steady_state", _after_steady, False),
    ("simulator.engine", "repro.simulator.engine", "CycleEngine.run",
     _after_cycle_engine, False),
    ("analysis.model", "repro.backends.builtin", "ModelBackend.predict",
     None, False),
    ("mca", "repro.mca", "MCASimulator.run", None, False),
    ("engine.run", "repro.engine.pool", "CorpusEngine.run",
     _after_engine_run, False),
    ("engine.cache_key", "repro.engine.pool", "cache_key", None, False),
    ("engine.cache.get", "repro.engine.cache", "ResultCache.get",
     _after_cache_get, False),
    ("engine.cache.put", "repro.engine.cache", "ResultCache.put", None, False),
    ("engine.evaluate", "repro.engine.pool", "evaluate", _after_evaluate, True),
    ("engine.pool.spawn", "multiprocessing.pool", "Pool.__init__", None, False),
    ("engine.pool.terminate", "multiprocessing.pool", "Pool.terminate",
     None, False),
    ("engine.pool.join", "multiprocessing.pool", "Pool.join", None, False),
    ("serve.parse", "repro.serve.daemon", "parse_analyze_request",
     _after_parse, False),
)


def _binding(module: str, path: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, value)`` of one target in an imported module."""
    obj: Any = sys.modules[module]
    *parents, attr = path.split(".")
    for p in parents:
        obj = getattr(obj, p)
    value = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
    return obj, attr, value


class _NotifyingLoader(importlib.abc.Loader):
    """Runs a callback once the wrapped loader has executed a module."""

    def __init__(self, inner: Any, callback: Callable[[str], None]):
        self._inner = inner
        self._callback = callback

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module) -> None:
        self._inner.exec_module(module)
        self._callback(module.__name__)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _PostImportHook(importlib.abc.MetaPathFinder):
    """Calls back after any of *names* is imported (in this process or a
    child forked while the hook is on ``sys.meta_path``)."""

    def __init__(self, names: Iterable[str], callback: Callable[[str], None]):
        self.names = set(names)
        self._callback = callback

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.names:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                if spec.loader is not None:
                    spec.loader = _NotifyingLoader(spec.loader, self._callback)
                return spec
        return None


class Tracer:
    """Installs and removes the wrappers of :data:`TARGETS`.

    Targets in modules already imported are wrapped at once; the rest
    are wrapped the moment their module is imported, so tracing never
    imports anything itself.  (Pool workers import the simulator layers
    lazily; importing them in the parent ahead of time would make every
    traced sweep cheaper than an untraced one.)
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []
        self._wrappers: dict[int, Callable] = {}
        self._pending: dict[str, list[tuple]] = {}
        self._hook: Optional[_PostImportHook] = None

    def install(self) -> None:
        if self._hook is not None or self._saved:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            if target[1] in sys.modules:
                self._bind(target)
            else:
                self._pending.setdefault(target[1], []).append(target)
        self._hook = _PostImportHook(self._pending, self._on_import)
        sys.meta_path.insert(0, self._hook)

    def _on_import(self, module: str) -> None:
        for target in self._pending.pop(module, ()):
            self._bind(target)

    def _bind(self, target: tuple) -> None:
        name, module, path, after, flush = target
        owner, attr, value = _binding(module, path)
        original = getattr(value, "__perfbench_original__", None)
        if original is not None:
            # a name imported from an already wrapped module
            self._saved.append((owner, attr, original))
            return
        # one wrapper per function, however many names bind it
        wrapper = self._wrappers.get(id(value))
        if wrapper is None:
            wrapper = _wrap(self.recorder, name, value, after, flush)
            self._wrappers[id(value)] = wrapper
        self._saved.append((owner, attr, value))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        if self._hook is not None:
            sys.meta_path.remove(self._hook)
            self._hook = None
        self._pending.clear()
        self._wrappers.clear()
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()


def current_bindings() -> list[tuple[str, str, Any]]:
    """``(module, path, object)`` of every target in an imported module."""
    return [
        (module, path, _binding(module, path)[2])
        for _, module, path, _, _ in TARGETS
        if module in sys.modules
    ]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def union_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping intervals."""
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: Iterable[Span]) -> dict[tuple[int, int], int]:
    """Self time of each span, keyed by ``(pid, sid)``, in ns.

    A span's self time is its duration minus the part of it that its
    children on the same thread cover.  A child on another thread (the
    serving daemon hands batches to an executor thread) runs alongside
    its parent and takes nothing away from it.
    """
    spans = list(spans)
    kids: dict[tuple[int, int], list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent:
            kids[(s.pid, s.parent)].append(s)
    out = {}
    for s in spans:
        covered = union_ns(
            (max(c.t0, s.t0), min(c.t1, s.t1))
            for c in kids.get((s.pid, s.sid), ())
            if c.tid == s.tid and c.t1 > s.t0 and c.t0 < s.t1
        )
        out[(s.pid, s.sid)] = s.dur - covered
    return out


def chrome_trace(
    spans: Iterable[Span], process_names: dict[int, str]
) -> dict[str, Any]:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    spans = sorted(spans, key=lambda s: s.t0)
    base = spans[0].t0 if spans else 0
    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": label}}
        for pid, label in sorted(process_names.items())
    ]
    for s in spans:
        args: dict[str, Any] = {"sid": s.sid, "parent": s.parent}
        if s.rid is not None:
            args["rid"] = s.rid
        if s.args is not None and s.name != "engine.run":
            args["detail"] = s.args
        elif s.args is not None:
            args["detail"] = {k: v for k, v in s.args.items() if k != "rids"}
        events.append({
            "name": s.name, "ph": "X", "pid": s.pid, "tid": s.tid,
            "ts": (s.t0 - base) / 1e3, "dur": s.dur / 1e3, "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
