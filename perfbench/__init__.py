"""``perfbench`` — the repository's benchmark of record.

Four seeded workloads drive ``repro`` through its public entry points
(``repro.bench.fig3.run``, ``repro.fuzz.run_differential`` and the
``repro-serve`` daemon over HTTP) and report end-to-end metrics; a
traced run wraps each layer's public functions from the outside and
derives per-layer costs.  See ``perfbench/README.md``.

Entry points::

    python3 perfbench/run.py --workload corpus_cold --seed 2024 --seconds 15 --trace 0
    python -m perfbench run [--seed N] [--workloads ...] [--runs K]
    python -m perfbench trace [--seed N] [--workloads ...]
    python -m perfbench compare A.json B.json
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout root (the directory holding ``perfbench/`` and ``src/``)
ROOT = Path(__file__).resolve().parent.parent

#: where runs keep caches, traces and results (listed in .gitignore)
WORKDIR = ROOT / ".perfbench"

#: default workload seed; distinct from the seeds of ``repro-perf`` (0),
#: ``repro-serve-bench`` (1809) and the fuzz golden
DEFAULT_SEED = 2024

#: workload names, in report order
WORKLOADS = ("corpus_cold", "corpus_warm", "fuzz_heldout", "serve_mixed")

#: engine worker processes for every workload (the machine has 2 cores)
JOBS = 2


def use_checkout_src() -> Path:
    """Put this checkout's ``src/`` first on ``sys.path``.

    The benchmark measures the code of the checkout it sits in, never an
    installed copy, so a checkout without ``src/repro`` is an error.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return src
