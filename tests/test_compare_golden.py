"""Golden-file regression gate for the cross-architecture comparison.

:func:`repro.analysis.compare.compare_architectures` runs one kernel
through the static model and the simulator on all three chips, then
derives per-element cycles and GF/s per core.  This module pins every
row of a few kernels bit for bit against
``tests/golden/compare_architectures.json``: floats as float hex, the
rest as plain JSON.  ``tests/test_compare_semantics.py`` checks only
orderings and labels.  After an *intentional* change, regenerate
with::

    PYTHONPATH=src python tests/test_compare_golden.py --regen
"""

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.compare import compare_architectures

GOLDEN_PATH = Path(__file__).parent / "golden" / "compare_architectures.json"

#: paper-suite and extended kernels: vector, latency-bound, scalar
#: divide and reduction code
KERNELS = ("striad", "gs2d5pt", "add", "daxpy", "sum", "pi")


def _rows(kernel: str) -> list[dict]:
    return [
        {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}
        for row in compare_architectures(kernel, "O2").rows
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_kernels(golden):
    assert sorted(golden) == sorted(KERNELS)


@pytest.mark.parametrize("kernel", KERNELS)
def test_rows_match_golden(golden, kernel):
    assert _rows(kernel) == golden[kernel]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/test_compare_golden.py --regen")
    GOLDEN_PATH.write_text(
        json.dumps({k: _rows(k) for k in KERNELS}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
