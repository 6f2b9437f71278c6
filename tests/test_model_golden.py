"""Golden-file regression gate for the static model's per-block terms.

Every distinct lowered block of the Fig. 3 corpus (153 of the 416
variants) is analyzed by a fresh :class:`ModelBackend` and compared
against ``tests/golden/model_fig3.json``.

Each row records the binding-independent terms — ``critical_path``,
``lcd``, ``frontend_cycles``, ``divider_cycles`` and ``special_cycles``
as float hex strings, plus ``lcd_chain`` — which are compared bit for
bit, and the headline ``prediction``, compared at rel 1e-12 so that the
port binding's last bits may differ between exact formulations of the
same optimum (``tests/test_golden.py`` checks the Fig. 3 statistics at
rel 1e-4).

``tests/golden/ecm_fig3.json`` pins what the ECM composition and the
report read from the port binding: ECM's in-core ``t_ol`` and ``t_nol``
(float hex, bit for bit) and the binding's ``bottleneck_ports``.  The
binding is the unique most balanced one, so these depend on the block's
µops alone.  After an *intentional* change to the model, regenerate
both with::

    PYTHONPATH=src python tests/test_model_golden.py --regen
"""

import json
import math
import sys
from pathlib import Path

from repro.analysis import ECMModel
from repro.backends.builtin import ModelBackend
from repro.kernels import enumerate_corpus
from repro.lowering import assembly_digest, lower

GOLDEN_PATH = Path(__file__).parent / "golden" / "model_fig3.json"
ECM_GOLDEN_PATH = Path(__file__).parent / "golden" / "ecm_fig3.json"

#: terms compared bit for bit (float hex)
EXACT_TERMS = (
    "critical_path",
    "lcd",
    "frontend_cycles",
    "divider_cycles",
    "special_cycles",
)

#: relative tolerance on the headline prediction
PREDICTION_REL = 1e-12


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


def _row(block) -> dict:
    ana = ModelBackend().predict(block).detail
    row = {term: getattr(ana, term).hex() for term in EXACT_TERMS}
    row["lcd_chain"] = list(ana.lcd_chain)
    row["prediction"] = ana.prediction.hex()
    return row


def compute_snapshot() -> dict:
    return {label: _row(block) for label, block in _distinct_blocks().items()}


def compute_ecm_snapshot() -> dict:
    out = {}
    for label, block in _distinct_blocks().items():
        ana = ModelBackend().predict(block).detail
        ecm = ECMModel(block.model, chip=label.split("/")[0]).predict(
            ana, bytes_l1l2=0.0, bytes_l2l3=0.0, bytes_l3mem=0.0
        )
        out[label] = {
            "t_ol": ecm.t_ol.hex(),
            "t_nol": ecm.t_nol.hex(),
            "bottleneck_ports": list(ana.pressure.bottleneck_ports),
        }
    return out


def _matches(golden: dict, current: dict) -> bool:
    exact = {k: v for k, v in golden.items() if k != "prediction"}
    if exact != {k: v for k, v in current.items() if k != "prediction"}:
        return False
    return math.isclose(
        float.fromhex(current["prediction"]),
        float.fromhex(golden["prediction"]),
        rel_tol=PREDICTION_REL,
    )


def test_model_terms_match_golden():
    assert GOLDEN_PATH.is_file(), (
        f"golden file missing: {GOLDEN_PATH} — regenerate with "
        f"`python {__file__} --regen`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    current = compute_snapshot()
    assert len(current) == 153
    drifted = sorted(
        k for k in golden if k not in current or not _matches(golden[k], current[k])
    )
    assert current.keys() == golden.keys() and not drifted, (
        "Model terms drifted from the golden snapshot.\n"
        "If the model change is intentional, regenerate with:\n"
        f"    PYTHONPATH=src python {__file__} --regen\n"
        + "\n".join(
            f"{k}:\n  golden:  {golden.get(k)}\n  current: {current.get(k)}"
            for k in drifted[:10]
        )
    )


def test_ecm_inputs_match_golden():
    assert ECM_GOLDEN_PATH.is_file(), (
        f"golden file missing: {ECM_GOLDEN_PATH} — regenerate with "
        f"`python {__file__} --regen`"
    )
    golden = json.loads(ECM_GOLDEN_PATH.read_text())
    current = compute_ecm_snapshot()
    assert len(current) == 153
    drifted = sorted(k for k in golden if current.get(k) != golden[k])
    assert current.keys() == golden.keys() and not drifted, (
        "ECM in-core inputs drifted from the golden snapshot.\n"
        "If the model change is intentional, regenerate with:\n"
        f"    PYTHONPATH=src python {__file__} --regen\n"
        + "\n".join(
            f"{k}:\n  golden:  {golden.get(k)}\n  current: {current.get(k)}"
            for k in drifted[:10]
        )
    )


if __name__ == "__main__":
    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        for path, snapshot in (
            (GOLDEN_PATH, compute_snapshot),
            (ECM_GOLDEN_PATH, compute_ecm_snapshot),
        ):
            path.write_text(
                json.dumps(snapshot(), indent=1, sort_keys=True) + "\n"
            )
            print(f"regenerated {path}")
    else:
        print(__doc__)
