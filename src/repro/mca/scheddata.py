"""Generic (LLVM-quality) scheduling data.

LLVM scheduling models differ from carefully microbenchmarked machine
models in systematic ways that this module reproduces:

* **no renamer knowledge** — register moves and zeroing idioms execute
  on real ports; merging-predicated SVE destinations always chain;
* **generic FP latencies** — per-family defaults instead of measured
  per-form values (e.g. FADD 3 where Golden Cove does 2, SVE +1 on
  Neoverse V2, whose upstream model lagged hardware);
* **coarse SVE port maps** — predicated SVE arithmetic restricted to
  half the vector pipes (a well-known pessimism of the upstream
  Neoverse models);
* **optimistic gathers** — element µops without the serialization cap
  that real hardware shows;
* **uniform load-to-use latency** per ISA.

The data is expressed as a *transformation* of a
:class:`~repro.machine.model.MachineModel` resolution, keeping the two
predictors comparable instruction-by-instruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instruction import Instruction
from ..machine.model import MachineModel, ResolvedInstruction, Uop


def _is_fp(mnemonic: str, isa: str) -> str:
    """Classify mnemonics into coarse FP families ('' if not FP)."""
    m = mnemonic
    if isa == "x86":
        core = m[1:] if m.startswith("v") else m
        if core.startswith(("fmadd", "fmsub", "fnmadd", "fnmsub")):
            return "fma"
        if core.startswith(("add", "sub", "min", "max")) and core.endswith(
            ("pd", "ps", "sd", "ss")
        ):
            return "add"
        if core.startswith("mul") and core.endswith(("pd", "ps", "sd", "ss")):
            return "mul"
        if core.startswith("div") and core.endswith(("pd", "ps", "sd", "ss")):
            return "div"
        return ""
    # aarch64
    if m.startswith(("fmla", "fmls", "fmadd", "fmsub", "fnmadd", "fnmsub",
                     "fmad", "fmsb", "fnmla", "fnmls")):
        return "fma"
    if m.startswith(("fadd", "fsub", "fmin", "fmax")):
        return "add"
    if m.startswith(("fmul", "fnmul")):
        return "mul"
    if m.startswith(("fdiv", "fdivr")):
        return "div"
    return ""


#: generic FP latencies per ISA (LLVM sched-model defaults)
_GENERIC_FP_LAT = {
    "x86": {"add": 3.0, "mul": 4.0, "fma": 4.0, "div": 14.0},
    "aarch64": {"add": 3.0, "mul": 4.0, "fma": 5.0, "div": 11.0},
}

#: uniform load-to-use latency (sched models carry one number per class)
_GENERIC_LOAD_LAT = {"x86": 7.0, "aarch64": 6.0}


@dataclass
class MCASchedData:
    """Scheduling-data view of a machine model, MCA-style."""

    model: MachineModel
    #: restrict SVE arithmetic to this many of the FP pipes (upstream
    #: Neoverse model pessimism); 0 disables the restriction
    sve_pipe_limit: int = 2
    #: LLVM expresses ports as coarse *resource groups*; FP arithmetic
    #: frequently claims a narrower group than the hardware really has.
    #: Limit FP ops to this many of the model's FP pipes (0 disables).
    fp_port_limit: int = 2
    #: sched models decompose stores into extra AGU µops
    store_uop_inflation: int = 1

    def resolve(self, instr: Instruction) -> ResolvedInstruction:
        """Resolve an instruction with LLVM-quality data.

        Explicit serialization caps (gathers) are always dropped — MCA
        optimism.
        """
        # Base resolution WITHOUT renamer idioms: the table binding.
        model = self.model
        r = model.bind(instr)

        uops = list(r.uops)
        latency = r.latency
        load_latency = r.load_latency

        # Eliminated moves become real ALU/vector µops.
        if not uops and r.entry is not None and "elimination" in (r.entry.notes or ""):
            ports = self._move_ports(instr)
            uops = [Uop(ports=ports)]
            latency = max(latency, 1.0)

        # Generic FP latencies.
        family = _is_fp(instr.mnemonic, model.isa)
        if family:
            latency = _GENERIC_FP_LAT[model.isa][family]

        # Uniform load-to-use latency.
        if r.n_loads:
            load_latency = _GENERIC_LOAD_LAT[model.isa]

        # Coarse port groups: squeeze FP math onto the first pipes of
        # the class (SVE on Neoverse, packed FP on x86) — the way sched
        # models over-constrain resource groups.
        limit_n = 0
        if model.isa == "aarch64" and self.sve_pipe_limit and family and self._uses_sve(instr):
            limit_n = self.sve_pipe_limit
        elif model.isa == "x86" and self.fp_port_limit and family:
            limit_n = self.fp_port_limit
        if limit_n and model.fp_ports:
            limit = tuple(model.fp_ports[:limit_n])
            uops = [
                Uop(ports=limit, cycles=u.cycles)
                if set(u.ports) & set(model.fp_ports)
                else u
                for u in uops
            ]

        # Inflated store decomposition.
        if r.n_stores and self.store_uop_inflation:
            agu = model.store_agu_ports or model.load_ports
            for _ in range(r.n_stores * self.store_uop_inflation):
                uops.append(Uop(ports=agu))

        # Divider resource cycles: several LLVM models set the divider's
        # ReleaseAtCycles to the *latency* for scalar divides, fully
        # serializing them — a large over-prediction on divide-bound
        # loops (the paper's fat left tail).
        divider = r.divider
        if divider and family == "div" and self._is_scalar_fp(instr):
            divider = max(divider, latency)

        return ResolvedInstruction(
            instruction=instr,
            uops=tuple(uops),
            latency=latency,
            throughput=None,
            divider=divider,
            n_loads=r.n_loads,
            n_stores=r.n_stores,
            load_latency=load_latency,
            from_default=r.from_default,
            entry=r.entry,
        )

    # ------------------------------------------------------------------

    def _move_ports(self, instr: Instruction) -> tuple[str, ...]:
        if instr.is_vector or any(
            getattr(o, "reg_class", None) and o.reg_class.name == "VEC"
            for o in instr.operands
        ):
            return self.model.fp_ports or self.model.ports
        return self.model.int_alu_ports or self.model.ports

    def _is_scalar_fp(self, instr: Instruction) -> bool:
        """True for scalar-FP forms (x86 sd/ss, AArch64 d/s registers)."""
        from ..isa.operands import Register, RegisterClass

        if self.model.isa == "x86":
            return instr.mnemonic.endswith(("sd", "ss"))
        for o in instr.operands:
            if isinstance(o, Register) and o.reg_class is RegisterClass.VEC:
                if o.arrangement is not None or o.name.startswith("z"):
                    return False
        return True

    @staticmethod
    def _uses_sve(instr: Instruction) -> bool:
        from ..isa.operands import Register

        return any(
            isinstance(o, Register)
            and o.reg_class.name in ("VEC", "PRED")
            and o.name.startswith(("z", "p"))
            for o in instr.operands
        )
