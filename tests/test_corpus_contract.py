"""The full-corpus contract (slow-ish: runs all 416 blocks once).

The central scientific property of the reproduction, asserted over the
*entire* validation corpus rather than samples:

* the static prediction is a lower bound on the simulated measurement
  for every block **except** the two documented exception families
  (Gauss-Seidel on the V2 with armclang's register rotation; scalar-
  divide-bound kernels on Zen 4);
* predictions are finite, positive, and within sane distance of the
  measurement (no silent 10x blowups anywhere);
* every block resolves without default fallbacks on its own machine
  model.
"""

import pytest

from repro.analysis import analyze_instructions
from repro.isa import parse_kernel
from repro.kernels import enumerate_corpus
from repro.machine import get_machine_model
from repro.simulator.engine import CycleEngine
from repro.simulator.plan import build_uop_plan


def _is_documented_exception(entry) -> bool:
    if entry.machine == "gcs" and entry.kernel == "gs2d5pt" and entry.persona == "armclang":
        return True
    if entry.machine == "genoa" and entry.kernel == "pi":
        return True
    return False


@pytest.fixture(scope="module")
def corpus_results():
    rows = []
    for e in enumerate_corpus():
        model = get_machine_model(e.uarch)
        instrs = parse_kernel(e.assembly, model.isa)
        resolved = [model.resolve(i) for i in instrs]
        ana = analyze_instructions(instrs, model)
        meas = CycleEngine().run(build_uop_plan(instrs, model), iterations=40, warmup=15)
        rows.append((e, instrs, resolved, ana, meas))
    return rows


def test_full_model_coverage(corpus_results):
    for e, instrs, resolved, *_ in corpus_results:
        defaults = [str(r.instruction) for r in resolved if r.from_default]
        assert not defaults, (e.test_id, defaults)


def test_lower_bound_contract(corpus_results):
    violations = []
    for e, _, _, ana, meas in corpus_results:
        if _is_documented_exception(e):
            continue
        if ana.prediction > meas.cycles_per_iteration * 1.005:
            violations.append(
                (e.test_id, ana.prediction, meas.cycles_per_iteration)
            )
    assert not violations, violations


def test_documented_exceptions_are_overpredicted(corpus_results):
    gs = [
        (ana, meas)
        for e, _, _, ana, meas in corpus_results
        if e.machine == "gcs" and e.kernel == "gs2d5pt" and e.persona == "armclang"
    ]
    assert gs and all(
        ana.prediction > meas.cycles_per_iteration for ana, meas in gs
    )


def test_no_runaway_predictions(corpus_results):
    for e, _, _, ana, meas in corpus_results:
        assert 0.0 < ana.prediction < 1e3, e.test_id
        # measurement within 2x of the bound everywhere (the paper's
        # worst case is one kernel at ~2x)
        assert meas.cycles_per_iteration <= ana.prediction * 2.0 + 1.0, e.test_id


def test_measurements_deterministic(corpus_results):
    e, instrs, _, _, first = corpus_results[0]
    model = get_machine_model(e.uarch)
    again = CycleEngine().run(build_uop_plan(instrs, model), iterations=40, warmup=15)
    assert again.cycles_per_iteration == first.cycles_per_iteration
