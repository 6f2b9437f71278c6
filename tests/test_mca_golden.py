"""Golden-file regression gate for the MCA baseline's predictions.

Every distinct lowered block of the Fig. 3 corpus (153 of the 416
variants) is predicted by a fresh :class:`MCABackend` at the Fig. 3
MCA window (50 iterations after 15 of warmup), once under llvm-mca's
``-noalias`` default and once with memory dependencies, and compared
bit for bit against ``tests/golden/mca_fig3.json``.

Each row records ``cycles_per_iteration``, ``total_cycles`` and the
per-port resource pressure as float hex strings plus
``uops_per_iteration``, so the golden pins the baseline across the
whole corpus at the bit level (``tests/test_golden.py`` checks the
Fig. 3 statistics at rel 1e-4).  After an *intentional* change to the
baseline, regenerate with::

    PYTHONPATH=src python tests/test_mca_golden.py --regen
"""

import json
import sys
from pathlib import Path

from repro.backends.builtin import MCABackend
from repro.kernels import enumerate_corpus
from repro.lowering import assembly_digest, lower

GOLDEN_PATH = Path(__file__).parent / "golden" / "mca_fig3.json"

#: the Fig. 3 MCA window: (iterations, warmup)
WINDOW = (50, 15)


def _distinct_blocks():
    """``{first test_id: block}`` for each distinct fig3 lowering."""
    seen = set()
    out = {}
    for e in enumerate_corpus():
        key = (assembly_digest(e.assembly), e.uarch)
        if key not in seen:
            seen.add(key)
            out[e.test_id] = lower(e.assembly, e.uarch)
    return out


def _row(block, assume_noalias: bool) -> dict:
    iterations, warmup = WINDOW
    r = MCABackend().predict(
        block, iterations=iterations, warmup=warmup,
        assume_noalias=assume_noalias,
    )
    return {
        "cycles_per_iteration": r.cycles_per_iteration.hex(),
        "total_cycles": r.detail.total_cycles.hex(),
        "uops_per_iteration": r.stats["uops_per_iteration"],
        "resource_pressure": {
            p: v.hex() for p, v in r.detail.resource_pressure.items()
        },
    }


def compute_snapshot() -> dict:
    return {
        label: {
            "noalias": _row(block, True),
            "alias": _row(block, False),
        }
        for label, block in _distinct_blocks().items()
    }


def test_mca_predictions_match_golden():
    assert GOLDEN_PATH.is_file(), (
        f"golden file missing: {GOLDEN_PATH} — regenerate with "
        f"`python {__file__} --regen`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    current = compute_snapshot()
    assert len(current) == 153
    drifted = sorted(k for k in golden if current.get(k) != golden[k])
    assert current.keys() == golden.keys() and not drifted, (
        "MCA predictions drifted from the golden snapshot.\n"
        "If the baseline change is intentional, regenerate with:\n"
        f"    PYTHONPATH=src python {__file__} --regen\n"
        + "\n".join(
            f"{k}:\n  golden:  {golden.get(k)}\n  current: {current.get(k)}"
            for k in drifted[:10]
        )
    )


if __name__ == "__main__":
    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(compute_snapshot(), indent=1, sort_keys=True) + "\n"
        )
        print(f"regenerated {GOLDEN_PATH}")
    else:
        print(__doc__)
