"""Table III — instruction throughput & latency microbenchmarks."""

from __future__ import annotations

from ..bench.microbench import MicrobenchResult
from ..engine import CorpusEngine, WorkUnit, resolve_engine
from .render import ascii_table

CHIPS = ("gcs", "spr", "genoa")

#: the paper's Table III values: throughput in DP elements/cy (cache
#: lines/cy for the gather) and latency in cycles
PAPER_REFERENCE = {
    "gcs": {
        "gather": (1 / 4, 9), "vec_add": (8, 2), "vec_mul": (8, 3),
        "vec_fma": (8, 4), "vec_div": (0.4, 5), "scalar_add": (4, 2),
        "scalar_mul": (4, 3), "scalar_fma": (4, 4), "scalar_div": (0.4, 12),
    },
    "spr": {
        "gather": (1 / 3, 20), "vec_add": (16, 2), "vec_mul": (16, 4),
        "vec_fma": (16, 4), "vec_div": (0.5, 14), "scalar_add": (2, 2),
        "scalar_mul": (2, 4), "scalar_fma": (2, 5), "scalar_div": (0.25, 14),
    },
    "genoa": {
        "gather": (1 / 8, 13), "vec_add": (8, 3), "vec_mul": (8, 3),
        "vec_fma": (8, 4), "vec_div": (0.8, 13), "scalar_add": (2, 3),
        "scalar_mul": (2, 3), "scalar_fma": (2, 4), "scalar_div": (0.2, 13),
    },
}

ORDER = ("gather", "vec_add", "vec_mul", "vec_fma", "vec_div",
         "scalar_add", "scalar_mul", "scalar_fma", "scalar_div")


def run(
    *, engine: CorpusEngine | None = None
) -> dict[str, list[MicrobenchResult]]:
    eng = resolve_engine(engine)
    outputs = eng.run(
        [WorkUnit.make("microbench", label=chip, chip=chip) for chip in CHIPS]
    )
    return {
        chip: [MicrobenchResult(**r) for r in out["results"]]
        for chip, out in zip(CHIPS, outputs)
    }


def manifest_stats(results: dict[str, list[MicrobenchResult]]) -> dict:
    """Per-chip MAPE versus the paper's Table III, for run-report
    manifests (see :mod:`repro.obs.report`)."""
    tput_mape: dict[str, float] = {}
    lat_mape: dict[str, float] = {}
    for chip, rs in results.items():
        t_errs, l_errs = [], []
        for r in rs:
            ref = PAPER_REFERENCE.get(chip, {}).get(r.instruction)
            if ref is None:
                continue
            ref_t, ref_l = ref
            t_errs.append(abs(r.throughput_per_cycle - ref_t) / ref_t)
            l_errs.append(abs(r.latency_cycles - ref_l) / ref_l)
        if t_errs:
            tput_mape[chip] = sum(t_errs) / len(t_errs)
            lat_mape[chip] = sum(l_errs) / len(l_errs)
    return {"throughput_mape": tput_mape, "latency_mape": lat_mape}


def render(results: dict[str, list[MicrobenchResult]] | None = None) -> str:
    results = results or run()
    by = {
        chip: {r.instruction: r for r in rs} for chip, rs in results.items()
    }
    headers = ["Instruction"]
    for chip in CHIPS:
        headers += [f"{chip.upper()} tput", f"{chip.upper()} lat"]
    rows = []
    for instr in ORDER:
        row = [instr]
        for chip in CHIPS:
            r = by[chip][instr]
            ref_t, ref_l = PAPER_REFERENCE[chip][instr]
            row.append(f"{r.throughput_per_cycle:.3g} ({ref_t:.3g})")
            row.append(f"{r.latency_cycles:.3g} ({ref_l:g})")
        rows.append(row)
    note = (
        "\nValues are measured on the core simulator; paper values in "
        "parentheses.\nThroughput: DP elements/cy (gather: cache lines/cy). "
        "Latency: cycles."
    )
    return ascii_table(headers, rows, title="Table III — instruction microbenchmarks") + note
