import sys

from perfbench.layers import coverage, window_of
from perfbench.tracing import (
    Recorder, Span, Tracer, _PostImportHook, chrome_trace, current_bindings,
    self_times, union_ns,
)


def span(sid, parent, t0, t1, *, tid=1, pid=100, name="x"):
    return Span(pid, sid, parent, name, t0, t1, tid, None, None)


def test_union_of_overlapping_intervals():
    assert union_ns([]) == 0
    assert union_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert union_ns([(0, 100), (10, 20)]) == 100


def test_self_time_of_nested_spans():
    spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),
        span(3, 2, 20, 30),
        span(4, 1, 50, 60),
    ]
    st = self_times(spans)
    assert st[(100, 1)] == 100 - 30 - 10
    assert st[(100, 2)] == 30 - 10
    assert st[(100, 3)] == 10
    assert st[(100, 4)] == 10
    # self times add up to the root's wall time
    assert sum(st.values()) == 100


def test_child_on_another_thread_takes_nothing_from_its_parent():
    spans = [
        span(1, 0, 0, 100, tid=1),
        span(2, 1, 10, 90, tid=2),
        span(3, 1, 95, 99, tid=1),
    ]
    st = self_times(spans)
    assert st[(100, 1)] == 100 - 4
    assert st[(100, 2)] == 80


def test_overlapping_children_count_once_and_other_processes_are_separate():
    spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 50),
        span(3, 1, 40, 60),
        # same sid and parent in another process
        span(2, 1, 0, 100, pid=200),
    ]
    st = self_times(spans)
    assert st[(100, 1)] == 100 - 50
    assert st[(200, 2)] == 100


def test_coverage_counts_root_spans_on_the_window_thread():
    spans = [
        span(1, 0, 0, 40, tid=1),
        span(2, 1, 10, 20, tid=1),      # a child adds nothing
        span(3, 0, 50, 100, tid=2),     # another thread
        span(4, 0, 60, 80, tid=1, pid=200),  # another process
    ]
    assert coverage(spans, 100, [(1, 0, 100)]) == 0.4
    assert coverage(spans, 100, [(1, 0, 100), (2, 0, 100)]) == 0.45


def test_window_of():
    windows = [(0, 10), (20, 30)]
    assert [window_of(windows, t) for t in (0, 5, 10, 15, 20, 30, 31, -1)] == [
        0, 0, 0, -1, 1, 1, -1, -1,
    ]


def test_chrome_trace_events():
    trace = chrome_trace(
        [span(1, 0, 1_000, 3_000), span(2, 1, 2_000, 2_500, name="y")],
        {100: "perfbench"},
    )
    events = trace["traceEvents"]
    assert events[0] == {
        "name": "process_name", "ph": "M", "pid": 100, "tid": 0,
        "args": {"name": "perfbench"},
    }
    x = [e for e in events if e["ph"] == "X"]
    assert [(e["name"], e["ts"], e["dur"]) for e in x] == [("x", 0.0, 2.0), ("y", 1.0, 0.5)]
    assert x[1]["args"]["parent"] == 1


def test_wrappers_record_nested_spans_and_uninstall_cleanly(tmp_path):
    from repro import lowering

    before = current_bindings()
    meta_path = list(sys.meta_path)
    recorder = Recorder(tmp_path)
    lowering.clear_memo()
    with Tracer(recorder):
        lowering.lower("vaddpd %ymm1, %ymm2, %ymm3\n", "zen4")
        lowering.lower("vaddpd %ymm1, %ymm2, %ymm3\n", "zen4")
    spans = recorder.collect()
    assert [s.name for s in spans] == ["isa.parse", "lowering.lower", "lowering.lower"]
    parse, first, second = spans
    assert parse.parent == first.sid and first.parent == 0
    assert first.t0 <= parse.t0 <= parse.t1 <= first.t1
    assert current_bindings() == before
    assert sys.meta_path == meta_path


def test_post_import_hook_fires_after_the_module_runs(tmp_path, monkeypatch):
    (tmp_path / "perfbench_probe_mod.py").write_text("VALUE = 42\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    seen = []
    hook = _PostImportHook(
        ["perfbench_probe_mod"],
        lambda name: seen.append((name, sys.modules[name].VALUE)),
    )
    sys.meta_path.insert(0, hook)
    try:
        import perfbench_probe_mod  # noqa: F401
    finally:
        sys.meta_path.remove(hook)
        sys.modules.pop("perfbench_probe_mod", None)
    assert seen == [("perfbench_probe_mod", 42)]
