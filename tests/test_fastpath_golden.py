"""Golden-file regression gate for the fast-path backend's answers.

Every distinct lowered block of the Fig. 3 corpus (153 of the 416
variants) is predicted by a fresh :class:`FastpathBackend` at two
measurement windows and its answer is compared bit for bit against
``tests/golden/fastpath_fig3.json``:

* ``(100, 33)`` — the fig3 window.  Its ``simulated`` and
  ``analytical-mismatch`` rows are full cycle-engine runs, so the
  golden pins engine bits as well as probe verdicts.
* ``(40, 15)`` — a window whose measurement horizon (55 iterations)
  lies inside the probe's 96-iteration detection budget.

Each row records ``cycles_per_iteration`` as a float hex string plus
the ``reason``, ``fastpath_hit``, ``probe_iterations`` and ``period``
stats.  After an *intentional* simulator change, regenerate with::

    PYTHONPATH=src python tests/test_fastpath_golden.py --regen
"""

import json
import sys
from pathlib import Path

from repro.backends.builtin import FastpathBackend
from repro.kernels import enumerate_corpus
from repro.lowering import lower

GOLDEN_PATH = Path(__file__).parent / "golden" / "fastpath_fig3.json"

#: (iterations, warmup) measurement windows pinned by the golden
WINDOWS = ((100, 33), (40, 15))


def _distinct_blocks():
    """``{first test_id: block}`` for each distinct fig3 lowering."""
    seen = set()
    out = {}
    for e in enumerate_corpus():
        block = lower(e.assembly, e.uarch)
        if block.key not in seen:
            seen.add(block.key)
            out[e.test_id] = block
    return out


def compute_snapshot() -> dict:
    snap = {}
    for label, block in _distinct_blocks().items():
        row = {}
        for iterations, warmup in WINDOWS:
            r = FastpathBackend().predict(
                block, iterations=iterations, warmup=warmup
            )
            row[f"{iterations}/{warmup}"] = {
                "cycles_per_iteration": r.cycles_per_iteration.hex(),
                "reason": r.stats["reason"],
                "fastpath_hit": r.stats["fastpath_hit"],
                "probe_iterations": r.stats["probe_iterations"],
                "period": r.stats.get("period"),
            }
        snap[label] = row
    return snap


def test_fastpath_answers_match_golden():
    assert GOLDEN_PATH.is_file(), (
        f"golden file missing: {GOLDEN_PATH} — regenerate with "
        f"`python {__file__} --regen`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    current = compute_snapshot()
    assert len(current) == 153
    drifted = sorted(k for k in golden if current.get(k) != golden[k])
    assert current.keys() == golden.keys() and not drifted, (
        "fast-path answers drifted from the golden snapshot.\n"
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
