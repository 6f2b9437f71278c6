"""LLVM-MCA-like baseline predictor.

LLVM's Machine Code Analyzer simulates an instruction stream against the
compiler's *scheduling models* — data written for instruction
scheduling, not for accuracy of standalone prediction.  The paper
compares OSACA's tuned models against MCA and finds MCA predicts 75 % of
kernels **slower** than hardware, with a fat tail beyond 2×.

This package reimplements that baseline:

* :mod:`~repro.mca.scheddata` — the generic scheduling data: a
  transformation of our machine models to LLVM-quality information
  (generic latencies, coarser port maps for SVE, no renamer tricks,
  optimistic gathers).
* :mod:`~repro.mca.simulator` — MCA's dispatch/issue/retire timeline:
  a plan of that data (unfused-µop dispatch accounting, no
  macro-fusion, no reorder buffer) replayed on the measurement's own
  cycle engine.
* Views mirroring the tool's output: summary, resource pressure.
"""

from .scheddata import MCASchedData
from .simulator import MCASimulator, MCAResult, mca_predict

__all__ = ["MCASchedData", "MCASimulator", "MCAResult", "mca_predict"]
