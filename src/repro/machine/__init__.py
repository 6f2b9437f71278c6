"""Machine models for the three microarchitectures under study.

A :class:`~repro.machine.model.MachineModel` bundles

* the out-of-order **port set** of the core,
* an **instruction table** mapping (mnemonic, operand signature) to µops
  with candidate ports, latency, and optional throughput caps,
* **frontend/backend parameters** (dispatch width, ROB and scheduler
  sizes) used by the cycle-level simulator, and
* **memory-path parameters** (load/store ports, L1 latency).

Models provided:

========================  =====================  ==========
name                      core                   ISA
========================  =====================  ==========
``neoverse_v2``           Nvidia Grace (GCS)     aarch64
``golden_cove``           Intel SPR (Xeon 8470)  x86
``zen4``                  AMD Genoa (EPYC 9684X) x86
========================  =====================  ==========
"""

from .model import (
    MachineModel,
    InstrEntry,
    Uop,
    ResolvedInstruction,
    UnknownInstructionError,
)
from .registry import (
    available_models,
    coerce_model,
    get_machine_model,
)
from .specs import CHIP_SPECS, ChipSpec, get_chip_spec
from .io import load_model, save_model, model_to_dict, model_from_dict
from .whatif import widen_neoverse_v2, elements_per_vector

__all__ = [
    "MachineModel",
    "InstrEntry",
    "Uop",
    "ResolvedInstruction",
    "UnknownInstructionError",
    "get_machine_model",
    "available_models",
    "coerce_model",
    "CHIP_SPECS",
    "ChipSpec",
    "get_chip_spec",
    "load_model",
    "save_model",
    "model_to_dict",
    "model_from_dict",
    "widen_neoverse_v2",
    "elements_per_vector",
]
