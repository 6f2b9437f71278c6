"""Golden-file regression gate for the cycle engine's measurements.

Every distinct lowered block of the Fig. 3 corpus (153 of the 416
variants) is measured by a fresh :class:`SimBackend` at the fig3
window (100 iterations after 33 of warmup) and compared bit for bit
against ``tests/golden/sim_fig3.json``.

Each row records ``cycles_per_iteration`` and ``total_cycles`` as
float hex strings plus ``instructions_retired``, so the golden pins
engine output across the whole corpus at the bit level
(``tests/test_golden.py`` checks the Fig. 3 statistics at rel 1e-4).
After an *intentional* simulator change, regenerate with::

    PYTHONPATH=src python tests/test_sim_golden.py --regen
"""

import json
import sys
from pathlib import Path

from repro.backends.builtin import SimBackend
from repro.kernels import enumerate_corpus
from repro.lowering import assembly_digest, lower

GOLDEN_PATH = Path(__file__).parent / "golden" / "sim_fig3.json"

#: the fig3 measurement window: (iterations, warmup)
WINDOW = (100, 33)


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


def compute_snapshot() -> dict:
    iterations, warmup = WINDOW
    snap = {}
    for label, block in _distinct_blocks().items():
        r = SimBackend().predict(block, iterations=iterations, warmup=warmup)
        snap[label] = {
            "cycles_per_iteration": r.cycles_per_iteration.hex(),
            "total_cycles": r.stats["total_cycles"].hex(),
            "instructions_retired": r.stats["instructions_retired"],
        }
    return snap


def test_sim_measurements_match_golden():
    assert GOLDEN_PATH.is_file(), (
        f"golden file missing: {GOLDEN_PATH} — regenerate with "
        f"`python {__file__} --regen`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    current = compute_snapshot()
    assert len(current) == 153
    drifted = sorted(k for k in golden if current.get(k) != golden[k])
    assert current.keys() == golden.keys() and not drifted, (
        "cycle-engine measurements drifted from the golden snapshot.\n"
        "If the simulator change is intentional, regenerate with:\n"
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
