"""Golden regression values for the validation pipeline.

A fixed sample of corpus entries is pinned to its exact (prediction,
measurement, MCA-prediction) triple.  Any change to the machine models,
the analyzer, the simulator, or the code generator that moves one of
these numbers fails here first — with a clear diff of what moved.

Regenerate after an *intentional* change with::

    python tests/test_golden.py --regen
"""

import sys

import pytest

from repro.analysis import analyze_instructions
from repro.isa import parse_kernel
from repro.kernels import enumerate_corpus
from repro.machine import get_machine_model
from repro.mca import MCASimulator
from repro.simulator.engine import CycleEngine
from repro.simulator.plan import build_uop_plan

GOLDEN = {
    "spr/add/gcc/O2": (1, 1.17578, 1.83333),
    "spr/striad/clang/Ofast": (2.66667, 3.13105, 4.5),
    "spr/sum/gcc/O1": (9, 9.18, 10),
    "spr/sum/icx/Ofast": (9, 9.18, 10),
    "spr/pi/gcc/O2": (4, 4.08, 14),
    "spr/gs2d5pt/clang/O3": (15, 15.3, 17),
    "spr/j2d5pt/icx/O2": (2, 2.49854, 2.66667),
    "spr/j3d27pt/gcc/O3": (13.5, 19.2302, 13.5333),
    "spr/init/clang/O2": (1, 1.15909, 2),
    "spr/update/icx/O1": (1, 1.11736, 1.33333),
    "spr/copy/gcc/Ofast": (1, 1.15909, 1.5),
    "spr/j3d7pt/clang/O1": (3, 3.8811, 3.87778),
    "genoa/add/gcc/O2": (1, 1.17578, 2),
    "genoa/striad/clang/Ofast": (4, 4.69756, 8),
    "genoa/sum/icx/O3": (10, 10.2, 10),
    "genoa/pi/gcc/O1": (5, 4.08, 14),
    "genoa/pi/clang/Ofast": (5, 5.1, 5),
    "genoa/gs2d5pt/gcc/O2": (16, 16.32, 17),
    "genoa/j3d11pt/icx/O3": (11, 15.6781, 11),
    "genoa/update/clang/O2": (2, 2.31818, 4),
    "genoa/copy/icx/Ofast": (2, 2.31818, 4),
    "genoa/j2d5pt/gcc/O1": (2, 2.76095, 2.25556),
    "genoa/j3d27pt/clang/O2": (27, 43.2756, 27),
    "genoa/init/gcc/O3": (1, 1.15909, 2),
    "gcs/add/gcc-arm/O2": (0.875, 0.970109, 1),
    "gcs/striad/armclang/O3": (2.66667, 3.09049, 4),
    "gcs/sum/gcc-arm/Ofast": (2, 2.04, 3),
    "gcs/pi/armclang/O1": (2.5, 2.55, 11),
    "gcs/gs2d5pt/armclang/O2": (9, 7.14, 12),
    "gcs/gs2d5pt/gcc-arm/O2": (7, 7.14, 10),
    "gcs/j2d5pt/gcc-arm/O3": (1.5, 1.66304, 2),
    "gcs/j3d7pt/armclang/Ofast": (9.33333, 11.5909, 9.33333),
    "gcs/init/gcc-arm/O1": (1, 1.02, 1),
    "gcs/update/armclang/O2": (1.125, 1.24728, 2),
    "gcs/copy/gcc-arm/Ofast": (0.625, 1.02, 1),
    "gcs/j3d27pt/gcc-arm/O2": (9, 10.4318, 13.5),
}


def compute(test_id: str) -> tuple[float, float, float]:
    corpus = {e.test_id: e for e in enumerate_corpus()}
    e = corpus[test_id]
    m = get_machine_model(e.uarch)
    instrs = parse_kernel(e.assembly, m.isa)
    pred = analyze_instructions(instrs, m).prediction
    meas = CycleEngine().run(
        build_uop_plan(instrs, m), iterations=100, warmup=30
    ).cycles_per_iteration
    mca = MCASimulator(m).run(
        instrs, iterations=60, warmup=15
    ).cycles_per_iteration
    return pred, meas, mca


@pytest.fixture(scope="module")
def corpus_index():
    return {e.test_id: e for e in enumerate_corpus()}


@pytest.mark.parametrize("test_id", sorted(GOLDEN))
def test_pipeline_regression(test_id, corpus_index):
    e = corpus_index[test_id]
    m = get_machine_model(e.uarch)
    instrs = parse_kernel(e.assembly, m.isa)
    pred = analyze_instructions(instrs, m).prediction
    meas = CycleEngine().run(
        build_uop_plan(instrs, m), iterations=100, warmup=30
    ).cycles_per_iteration
    mca = MCASimulator(m).run(
        instrs, iterations=60, warmup=15
    ).cycles_per_iteration
    g_pred, g_meas, g_mca = GOLDEN[test_id]
    assert pred == pytest.approx(g_pred, rel=1e-4), "analyzer moved"
    assert meas == pytest.approx(g_meas, rel=1e-4), "simulator moved"
    assert mca == pytest.approx(g_mca, rel=1e-4), "MCA baseline moved"


if __name__ == "__main__" and "--regen" in sys.argv:  # pragma: no cover
    print("GOLDEN = {")
    for tid in sorted(GOLDEN):
        p, m, c = compute(tid)
        print(f'    "{tid}": ({p:.6g}, {m:.6g}, {c:.6g}),')
    print("}")
