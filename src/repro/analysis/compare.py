"""Cross-microarchitecture comparison of one kernel.

The paper's through-line is a three-way comparison; this helper runs
one kernel through codegen → analysis → simulation on all three
machines and lines the results up — the table a performance engineer
wants when deciding where a loop should run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bench.render import ascii_table
from ..engine import CorpusEngine, WorkUnit, resolve_engine
from ..kernels.codegen import generate_assembly
from ..kernels.extended import all_kernels
from ..kernels.personas import PERSONAS
from ..kernels.suite import KernelSpec
from ..machine import get_chip_spec
from ..simulator.frequency import FrequencyGovernor

_DEFAULT_PERSONA = {"golden_cove": "gcc", "zen4": "gcc", "neoverse_v2": "gcc-arm"}
_ELEMS = {"golden_cove": {"gcc": 8, "clang": 4, "icx": 8},
          "zen4": {"gcc": 4, "clang": 4, "icx": 4},
          "neoverse_v2": {"gcc-arm": 2, "armclang": 2}}

#: the simulator window of the comparison (not the corpus's derived one)
_SIM_OPTS = {"iterations": 80, "warmup": 25}


@dataclass
class ArchComparison:
    kernel: str
    opt: str
    rows: list[dict]

    def best_by(self, metric: str) -> str:
        reverse = metric in ("gflops_per_core",)
        key = (lambda r: -r[metric]) if reverse else (lambda r: r[metric])
        return min(self.rows, key=key)["chip"]

    def render(self) -> str:
        body = [
            [
                r["chip"].upper(),
                f"{r['prediction']:.2f}",
                f"{r['measured']:.2f}",
                r["bottleneck"],
                f"{r['cycles_per_element']:.3f}",
                f"{r['gflops_per_core']:.2f}",
            ]
            for r in self.rows
        ]
        return ascii_table(
            ["chip", "pred cy/it", "meas cy/it", "bottleneck",
             "cy/element", "GF/s/core"],
            body,
            title=f"{self.kernel} at -{self.opt} across microarchitectures",
        )


def compare_architectures(
    kernel: str | KernelSpec,
    opt: str = "O2",
    personas: dict[str, str] | None = None,
    *,
    engine: CorpusEngine | None = None,
) -> ArchComparison:
    """Run one kernel through all three machines and collect metrics.

    The static prediction and the simulation of the three chips are
    submitted to the execution engine as one batch of ``predict`` units,
    a ``model`` and a ``sim`` unit per chip (parallel and memoized under
    ``repro-bench --jobs/--cache``); the per-chip bookkeeping —
    vector-element accounting and frequency lookup — stays inline.
    """
    k = kernel if isinstance(kernel, KernelSpec) else all_kernels()[kernel]
    personas = personas or _DEFAULT_PERSONA
    cases = []
    units = []
    for chip in ("gcs", "spr", "genoa"):
        spec = get_chip_spec(chip)
        uarch = spec.uarch
        persona_name = personas.get(uarch, _DEFAULT_PERSONA[uarch])
        p = PERSONAS[persona_name]
        asm = generate_assembly(k, p, opt, uarch)
        cases.append((chip, spec, persona_name, p.config(opt)))
        label = f"{chip}/{k.name}/{opt}"
        units += [
            WorkUnit.make("predict", label=f"{label}/model", backend="model",
                          uarch=uarch, assembly=asm),
            WorkUnit.make("predict", label=f"{label}/sim", backend="sim",
                          uarch=uarch, assembly=asm, opts=_SIM_OPTS),
        ]
    outputs = resolve_engine(engine).run(units)

    rows = []
    for (chip, spec, persona_name, cfg), model, sim in zip(
        cases, outputs[0::2], outputs[1::2]
    ):
        uarch = spec.uarch
        vec = (
            cfg.vectorize
            and k.vectorizable
            and (not k.needs_fast_math or cfg.fast_math)
        )
        if not vec:
            elems = 1
        else:
            elems = _ELEMS[uarch][persona_name] * (
                1 if (k.uses_index or k.has_carried_dependency) else cfg.unroll
            )
        gov = FrequencyGovernor.for_chip(spec)
        isa = spec.isa_classes[-1] if vec else "scalar"
        freq = gov.sustained(1, isa if isa in spec.frequency.power_coeff else "scalar")
        measured = sim["cycles_per_iteration"]
        cy_elem = measured / elems
        rows.append(
            {
                "chip": chip,
                "prediction": model["cycles_per_iteration"],
                "measured": measured,
                "bottleneck": model.get("bottleneck"),
                "elements_per_iteration": elems,
                "cycles_per_element": cy_elem,
                "gflops_per_core": k.flops_per_element / cy_elem * freq
                if cy_elem
                else 0.0,
            }
        )
    return ArchComparison(kernel=k.name, opt=opt, rows=rows)
