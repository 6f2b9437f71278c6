"""Golden-file regression gate for the generated corpus assembly.

:func:`repro.kernels.enumerate_corpus` lowers every (machine, kernel,
persona, opt) combination to an inner-loop block.  The sim, MCA and
model goldens pin the predictions of the 153 distinct double-precision
Fig. 3 blocks, so they see the assembly only through what it predicts.
This module pins the text itself: the SHA-256 of every block, by test
id, for three corpora — the paper's double-precision one (416 blocks),
its single-precision variant (416) and the extended kernels (352).
After an *intentional* codegen change, regenerate with::

    PYTHONPATH=src python tests/test_corpus_golden.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.kernels import EXTENDED_KERNELS, enumerate_corpus, generate_assembly

GOLDEN_PATH = Path(__file__).parent / "golden" / "corpus_assembly.json"

#: corpus name -> (enumerate_corpus keyword arguments, block count)
CORPORA = {
    "dp": ({}, 416),
    "sp": ({"precision": "sp"}, 416),
    "extended": ({"kernels": tuple(EXTENDED_KERNELS)}, 352),
}


def _digests(name: str) -> dict[str, str]:
    kwargs, _ = CORPORA[name]
    return {
        e.test_id: hashlib.sha256(e.assembly.encode()).hexdigest()
        for e in enumerate_corpus(**kwargs)
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_corpora(golden):
    assert sorted(golden) == sorted(CORPORA)
    for name, (_, count) in CORPORA.items():
        assert len(golden[name]) == count, name


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_assembly_matches_golden(golden, name):
    got = _digests(name)
    assert len(got) == CORPORA[name][1]
    changed = sorted(t for t in golden[name] if got.get(t) != golden[name][t])
    assert not changed and got.keys() == golden[name].keys(), (
        f"{len(changed)} {name} block(s) changed, e.g. {changed[:5]}; if the "
        f"codegen change is intentional, regenerate with:\n"
        f"    PYTHONPATH=src python {__file__} --regen"
    )


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_every_entry_is_its_own_generation(name):
    # the corpus emits each distinct spec once and shares the text, so
    # each entry must still read what its own inputs generate alone
    kwargs, _ = CORPORA[name]
    precision = kwargs.get("precision", "dp")
    wrong = [
        e.test_id
        for e in enumerate_corpus(**kwargs)
        if e.assembly
        != generate_assembly(e.kernel, e.persona, e.opt, e.uarch, precision)
    ]
    assert not wrong, f"{len(wrong)} {name} block(s) differ, e.g. {wrong[:5]}"


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/test_corpus_golden.py --regen")
    GOLDEN_PATH.write_text(
        json.dumps({n: _digests(n) for n in CORPORA}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
