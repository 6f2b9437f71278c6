"""Instruction microbenchmarks (throughput & latency) on the simulator.

Reproduces the methodology behind the paper's Table III: for each
instruction of interest, a *throughput* block of many independent
instances and a *latency* block of one dependency chain are run on the
cycle-level core simulator (the hardware stand-in).  The simulator is
configured without the measurement-harness inefficiencies so the
microbenchmark extracts clean per-instruction numbers, exactly as
ibench/OoO-bench do on hardware with careful alignment and warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine import get_machine_model
from ..simulator.engine import CycleEngine
from ..simulator.plan import IDEALIZED_CONFIG, build_uop_plan
from ..isa import parse_kernel


def _loop_x86(body: list[str]) -> str:
    return ".Lmb:\n" + "\n".join(f"    {b}" for b in body) + (
        "\n    subq $1, %rcx\n    jnz .Lmb\n"
    )


def _loop_a64(body: list[str]) -> str:
    return ".Lmb:\n" + "\n".join(f"    {b}" for b in body) + (
        "\n    subs x9, x9, #1\n    b.ne .Lmb\n"
    )


@dataclass(frozen=True)
class InstrBench:
    """Templates for one instruction family on one chip."""

    name: str
    #: DP elements a single instance produces (for elements/cy); for
    #: gathers this is *cache lines* per instance instead
    elems: float
    tput_body: list[str]
    lat_body: list[str]
    #: instances in the throughput body
    n_tput: int
    #: chain links per iteration in the latency body
    n_lat: int = 1
    loop: str = "x86"


def _x86_tput(op: str, srcs: str, w: str, n: int, rw: bool = False) -> list[str]:
    # rw ops (FMA) accumulate into their destination: use many chains
    return [f"{op} {srcs}, %{w}{d}" for d in range(n)]


def _chip_benches(chip: str) -> list[InstrBench]:
    if chip == "spr":
        w, ws = "zmm", "xmm"  # vector / scalar-register width
        ve = 8.0
        return [
            InstrBench("gather", 1.0,
                       [f"vgatherdpd (%rax,%zmm30,8), %zmm{d}{{%k1}}" for d in range(4)],
                       ["vgatherdpd (%rax,%zmm0,8), %zmm1{%k1}",
                        "vmovdqa64 %zmm1, %zmm0"],
                       4),
            InstrBench("vec_add", ve, _x86_tput("vaddpd", "%zmm30, %zmm31", w, 12),
                       ["vaddpd %zmm30, %zmm0, %zmm0"], 12),
            InstrBench("vec_mul", ve, _x86_tput("vmulpd", "%zmm30, %zmm31", w, 12),
                       ["vmulpd %zmm30, %zmm0, %zmm0"], 12),
            InstrBench("vec_fma", ve,
                       [f"vfmadd231pd %zmm30, %zmm31, %zmm{d}" for d in range(14)],
                       ["vfmadd231pd %zmm30, %zmm31, %zmm0"], 14),
            InstrBench("vec_div", ve, _x86_tput("vdivpd", "%zmm30, %zmm31", w, 6),
                       ["vdivpd %xmm30, %xmm0, %xmm0"], 6),
            InstrBench("scalar_add", 1.0, _x86_tput("vaddsd", "%xmm30, %xmm31", ws, 12),
                       ["vaddsd %xmm30, %xmm0, %xmm0"], 12),
            InstrBench("scalar_mul", 1.0, _x86_tput("vmulsd", "%xmm30, %xmm31", ws, 12),
                       ["vmulsd %xmm30, %xmm0, %xmm0"], 12),
            InstrBench("scalar_fma", 1.0,
                       [f"vfmadd231sd %xmm30, %xmm31, %xmm{d}" for d in range(14)],
                       ["vfmadd231sd %xmm30, %xmm31, %xmm0"], 14),
            InstrBench("scalar_div", 1.0, _x86_tput("vdivsd", "%xmm30, %xmm31", ws, 6),
                       ["vdivsd %xmm30, %xmm0, %xmm0"], 6),
        ]
    if chip == "genoa":
        ve = 4.0
        return [
            InstrBench("gather", 0.5,
                       [f"vgatherdpd (%rax,%ymm14,8), %ymm{d}{{%k1}}" for d in range(4)],
                       ["vgatherdpd (%rax,%ymm0,8), %ymm1{%k1}",
                        "vmovdqa64 %ymm1, %ymm0"],
                       4),
            InstrBench("vec_add", ve, _x86_tput("vaddpd", "%ymm14, %ymm15", "ymm", 12),
                       ["vaddpd %ymm14, %ymm0, %ymm0"], 12),
            InstrBench("vec_mul", ve, _x86_tput("vmulpd", "%ymm14, %ymm15", "ymm", 12),
                       ["vmulpd %ymm14, %ymm0, %ymm0"], 12),
            InstrBench("vec_fma", ve,
                       [f"vfmadd231pd %ymm14, %ymm15, %ymm{d}" for d in range(12)],
                       ["vfmadd231pd %ymm14, %ymm15, %ymm0"], 12),
            InstrBench("vec_div", ve, _x86_tput("vdivpd", "%ymm14, %ymm15", "ymm", 6),
                       ["vdivpd %xmm14, %xmm0, %xmm0"], 6),
            InstrBench("scalar_add", 1.0, _x86_tput("vaddsd", "%xmm14, %xmm15", "xmm", 12),
                       ["vaddsd %xmm14, %xmm0, %xmm0"], 12),
            InstrBench("scalar_mul", 1.0, _x86_tput("vmulsd", "%xmm14, %xmm15", "xmm", 12),
                       ["vmulsd %xmm14, %xmm0, %xmm0"], 12),
            InstrBench("scalar_fma", 1.0,
                       [f"vfmadd231sd %xmm14, %xmm15, %xmm{d}" for d in range(12)],
                       ["vfmadd231sd %xmm14, %xmm15, %xmm0"], 12),
            InstrBench("scalar_div", 1.0, _x86_tput("vdivsd", "%xmm14, %xmm15", "xmm", 6),
                       ["vdivsd %xmm14, %xmm0, %xmm0"], 6),
        ]
    if chip == "gcs":
        return [
            InstrBench("gather", 0.25,
                       [f"ld1d z{d}.d, p0/z, [x0, z30.d, lsl #3]" for d in range(4)],
                       ["ld1d z1.d, p0/z, [x0, z0.d, lsl #3]",
                        "mov z0.d, z1.d"],
                       4, loop="a64"),
            InstrBench("vec_add", 2.0,
                       [f"fadd v{d}.2d, v30.2d, v31.2d" for d in range(16)],
                       ["fadd v0.2d, v0.2d, v30.2d"], 16, loop="a64"),
            InstrBench("vec_mul", 2.0,
                       [f"fmul v{d}.2d, v30.2d, v31.2d" for d in range(16)],
                       ["fmul v0.2d, v0.2d, v30.2d"], 16, loop="a64"),
            InstrBench("vec_fma", 2.0,
                       [f"fmla v{d}.2d, v30.2d, v31.2d" for d in range(18)],
                       ["fmla v0.2d, v30.2d, v31.2d"], 18, loop="a64"),
            InstrBench("vec_div", 2.0,
                       [f"fdiv v{d}.2d, v30.2d, v31.2d" for d in range(6)],
                       ["fdiv v0.2d, v0.2d, v30.2d"], 6, loop="a64"),
            InstrBench("scalar_add", 1.0,
                       [f"fadd d{d}, d30, d31" for d in range(16)],
                       ["fadd d0, d0, d30"], 16, loop="a64"),
            InstrBench("scalar_mul", 1.0,
                       [f"fmul d{d}, d30, d31" for d in range(16)],
                       ["fmul d0, d0, d30"], 16, loop="a64"),
            InstrBench("scalar_fma", 1.0,
                       [f"fmadd d{d}, d30, d31, d29" for d in range(18)],
                       ["fmadd d0, d30, d31, d0"], 18, loop="a64"),
            InstrBench("scalar_div", 1.0,
                       [f"fdiv d{d}, d30, d31" for d in range(6)],
                       ["fdiv d0, d0, d30"], 6, loop="a64"),
        ]
    raise ValueError(f"unknown chip {chip!r}")


@dataclass
class MicrobenchResult:
    chip: str
    instruction: str
    throughput_per_cycle: float  #: DP elements (or cache lines) per cycle
    latency_cycles: float


def run_microbenchmarks(chip: str) -> list[MicrobenchResult]:
    """Measure Table III's instruction set on one chip."""
    uarch = {"spr": "golden_cove", "genoa": "zen4", "gcs": "neoverse_v2"}[chip]
    model = get_machine_model(uarch)
    # microbenchmarks are careful: no harness noise (IDEALIZED_CONFIG)
    def run(asm: str):
        plan = build_uop_plan(
            parse_kernel(asm, model.isa), model, config=IDEALIZED_CONFIG
        )
        return CycleEngine().run(plan, iterations=120, warmup=40)

    out = []
    for b in _chip_benches(chip):
        mk = _loop_x86 if b.loop == "x86" else _loop_a64
        t = run(mk(b.tput_body))
        l = run(mk(b.lat_body))
        cyc_per_instr = t.cycles_per_iteration / b.n_tput
        out.append(
            MicrobenchResult(
                chip=chip,
                instruction=b.name,
                throughput_per_cycle=b.elems / cyc_per_instr,
                latency_cycles=l.cycles_per_iteration / b.n_lat,
            )
        )
    return out
