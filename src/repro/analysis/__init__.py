"""Static in-core analysis (the paper's primary contribution).

This package reimplements the OSACA methodology with the machine models
of :mod:`repro.machine`:

* :mod:`~repro.analysis.depgraph` — register/memory dependency graph,
  critical path, loop-carried dependency (LCD) detection;
* :mod:`~repro.analysis.portbinding` — µop→port assignment, both the
  OSACA-style equal-split heuristic and the unique most balanced
  binding, whose highest load is the exact minimax bound;
* :mod:`~repro.analysis.throughput` — block throughput and runtime
  prediction combining port pressure, divider occupancy, frontend
  width, and LCD;
* :mod:`~repro.analysis.report` — OSACA-style plain-text report;
* :mod:`~repro.analysis.ecm` / :mod:`~repro.analysis.roofline` — the
  paper's "future work": composing the in-core prediction with data
  transfer costs.

Quick start::

    from repro import analyze
    result = analyze(asm_text, arch="zen4")
    print(result.prediction, result.block_throughput, result.lcd)
    print(result.report())
"""

from .depgraph import DependencyGraph, build_dependency_graph
from .portbinding import PortPressure, assign_ports_heuristic, assign_ports_optimal
from .throughput import AnalysisResult, analyze_kernel, analyze_instructions
from .report import render_report
from .ecm import ECMModel, ECMPrediction
from .roofline import RooflineModel, RooflinePoint
from .layers import (
    LayerConditionAnalysis,
    analyze_layer_conditions,
    simulate_traffic,
)
from .portfinder import (
    PortInferenceResult,
    find_probes,
    infer_ports,
)
from .scaling import ScalingPoint, ScalingPrediction, predict_scaling
from .topdown import TopdownReport, analyze_topdown
from .compare import ArchComparison, compare_architectures

__all__ = [
    "DependencyGraph",
    "build_dependency_graph",
    "PortPressure",
    "assign_ports_heuristic",
    "assign_ports_optimal",
    "AnalysisResult",
    "analyze_kernel",
    "analyze_instructions",
    "render_report",
    "ECMModel",
    "ECMPrediction",
    "RooflineModel",
    "RooflinePoint",
    "LayerConditionAnalysis",
    "analyze_layer_conditions",
    "simulate_traffic",
    "PortInferenceResult",
    "find_probes",
    "infer_ports",
    "ScalingPoint",
    "ScalingPrediction",
    "predict_scaling",
    "TopdownReport",
    "analyze_topdown",
    "ArchComparison",
    "compare_architectures",
]
