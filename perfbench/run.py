"""Run one workload of the benchmark; see ``perfbench/harness.py``.

    python3 perfbench/run.py --workload corpus_cold --seed 2024 --seconds 15 --trace 0
"""

import sys
from pathlib import Path

# run as a script: import the package from the checkout root, not from
# this directory
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
