"""The runtime needs no scientific-Python stack.

The entry points are imported in a fresh interpreter, which then runs
one model analysis (the port binding and the dependency graph), and
must not have loaded numpy, scipy or networkx: the benchmark process,
every forked engine worker and the serving daemon would all pay for
them.  Only the test-only LP reference (``tests/lp_reference.py``)
imports scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HEAVY = ("numpy", "scipy", "networkx")
ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.engine",
    "repro.serve.daemon",
    "repro.bench.fig3",
)


def test_entry_points_load_no_heavy_libraries():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    probe = (
        f"import json, sys, {', '.join(ENTRY_POINTS)}\n"
        "from repro import analyze\n"
        "analyze('vaddpd (%rax), %ymm1, %ymm1\\naddq $32, %rax\\n', arch='spr')\n"
        f"print(json.dumps(sorted({{m.split('.')[0] for m in sys.modules}} & {set(HEAVY)!r})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == []
