"""The wrappers must not change what the program computes."""

import json
import sys

import pytest

from perfbench import ROOT
from perfbench.tracing import Recorder, Tracer, current_bindings, load_jsonl


def _fig3_subset(tmp_path, jobs: int):
    from repro.bench import fig3
    from repro.engine import CorpusEngine

    from perfbench.workloads import corpus_digest, fig3_scope

    result = fig3.run(
        **fig3_scope(quick=True),
        engine=CorpusEngine(jobs=jobs, cache_dir=tmp_path / f"cache-{jobs}"),
    )
    assert len(result.records) == 24
    return corpus_digest(result)


@pytest.mark.parametrize("jobs", [1, 2])
def test_wrappers_leave_the_fig3_subset_digest_unchanged(tmp_path, jobs):
    from repro import lowering

    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    before = current_bindings()
    meta_path = list(sys.meta_path)
    lowering.clear_memo()
    plain = _fig3_subset(tmp_path / "plain", jobs)

    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    recorder = Recorder(spans_dir)
    lowering.clear_memo()
    with Tracer(recorder):
        traced = _fig3_subset(tmp_path / "traced", jobs)

    assert plain == traced == expected["corpus"]["quick"]
    # the run may import target modules (multiprocessing.pool) for the
    # first time; every binding is an original either way
    after = {(m, p): v for m, p, v in current_bindings()}
    assert {(m, p): v for m, p, v in before}.items() <= after.items()
    assert not any(hasattr(v, "__perfbench_original__") for v in after.values())
    assert sys.meta_path == meta_path

    names = {s.name for s in recorder.collect() + load_jsonl(spans_dir)}
    layers = {
        "kernels.enumerate", "engine.units", "engine.run", "engine.cache_key",
        "engine.cache.get", "engine.cache.put", "engine.evaluate",
        "lowering.lower", "isa.parse", "simulator.plan", "simulator.engine",
        "analysis.model", "mca",
    }
    if jobs > 1:
        layers |= {"engine.pool.spawn", "engine.pool.terminate", "engine.pool.join"}
    assert layers <= names
