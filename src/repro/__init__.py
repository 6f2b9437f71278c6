"""repro — in-core performance models of Grace, Sapphire Rapids, and Genoa.

Reproduction of *"Microarchitectural comparison and in-core modeling of
state-of-the-art CPUs: Grace, Sapphire Rapids, and Genoa"* (Laukemann,
Hager, Wellein; SC'24).  See ``DESIGN.md`` for the system inventory and
``EXPERIMENTS.md`` for the paper-vs-measured record.

Typical usage::

    import repro

    # static lower-bound prediction (the paper's OSACA-style model)
    result = repro.analyze(asm_text, arch="zen4")
    print(result.report())

    # "hardware" measurement on the cycle-level core simulator
    meas = repro.simulate(asm_text, arch="zen4")
    print(meas.cycles_per_iteration)

    # LLVM-MCA-style baseline
    base = repro.mca_predict(asm_text, arch="zen4")

    # generate a validation-kernel variant the way a compiler would
    asm = repro.generate_assembly("striad", "gcc", "O2", "golden_cove")
"""

from .analysis import analyze_kernel as analyze
from .analysis import (
    AnalysisResult,
    ECMModel,
    ECMPrediction,
    RooflineModel,
    RooflinePoint,
    analyze_topdown,
    compare_architectures,
    infer_ports,
    predict_scaling,
)
from .isa import parse_kernel
from .kernels import generate_assembly, enumerate_corpus, KERNELS
from .machine import (
    CHIP_SPECS,
    ChipSpec,
    MachineModel,
    available_models,
    get_chip_spec,
    get_machine_model,
)
from .mca import mca_predict
from .simulator import (
    FrequencyGovernor,
    SimulationResult,
    run_store_benchmark,
    simulate_with_memory,
    sustained_frequency,
    timeline,
)
from .simulator import simulate_kernel as simulate

__version__ = "1.0.0"

__all__ = [
    "analyze",
    "AnalysisResult",
    "simulate",
    "SimulationResult",
    "mca_predict",
    "parse_kernel",
    "generate_assembly",
    "enumerate_corpus",
    "KERNELS",
    "get_machine_model",
    "available_models",
    "MachineModel",
    "get_chip_spec",
    "ChipSpec",
    "CHIP_SPECS",
    "FrequencyGovernor",
    "sustained_frequency",
    "run_store_benchmark",
    "ECMModel",
    "ECMPrediction",
    "RooflineModel",
    "RooflinePoint",
    "analyze_topdown",
    "compare_architectures",
    "infer_ports",
    "predict_scaling",
    "simulate_with_memory",
    "timeline",
    "__version__",
]
