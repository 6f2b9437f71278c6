"""ibench-style microbenchmark generation for arbitrary instructions.

The paper (Sec. II): *"we write microbenchmarks with various benchmark
tools for every interesting instruction to obtain its throughput,
latency, and port occupation."*  This module automates that: given a
machine model and an instruction-form entry, it synthesizes

* a **throughput block** — many independent instances with rotating
  destination registers and shared sources, plus loop control, and
* a **latency block** — one chain where each instance's destination
  feeds the next instance's source,

runs both on the core simulator (with harness-noise factors disabled),
and reports cycles.  Because the simulator and the analyzer consume the
same model, the measured throughput of a single-instruction block must
agree with the analytical resource bound — the **model self-check**
used by ``verify_model`` and the regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..isa import parse_kernel
from ..isa.instruction import OperandAccess
from ..machine.model import InstrEntry, MachineModel
from ..simulator.engine import CycleEngine
from ..simulator.plan import IDEALIZED_CONFIG, build_uop_plan

#: registers used for rotating destinations / fixed sources per code
_X86_POOLS = {
    "r": (["r8", "r9", "r10", "r11", "r12", "r13"], ["rsi", "rdi"]),
    "x": ([f"xmm{i}" for i in range(12)], ["xmm14", "xmm15"]),
    "y": ([f"ymm{i}" for i in range(12)], ["ymm14", "ymm15"]),
    "z": ([f"zmm{i}" for i in range(12)], ["zmm30", "zmm31"]),
    "k": (["k2", "k3", "k4"], ["k6", "k7"]),
}
_A64_POOLS = {
    "r": ([f"x{i}" for i in range(2, 8)], ["x10", "x11"]),
    "s": ([f"d{i}" for i in range(12)], ["d30", "d31"]),
    "q": ([f"v{i}" for i in range(12)], ["v30", "v31"]),
    "v": ([f"z{i}" for i in range(12)], ["z30", "z31"]),
    "p": (["p1", "p2", "p3"], ["p6", "p7"]),
}


class UnbenchableEntry(ValueError):
    """Raised when no sensible microbenchmark exists for an entry
    (wildcard signatures, branches, pure stores for latency, …)."""


@dataclass
class IbenchResult:
    mnemonic: str
    signature: str
    #: cycles per instruction, back-to-back independent instances
    reciprocal_throughput: float
    #: cycles per chain link (None when the form has no register result)
    latency: Optional[float]
    #: analytical resource bound for one instance (model resolution)
    model_bound: float


def _operand_text(code: str, reg: str, isa: str, mnemonic: str = "") -> str:
    if isa == "x86":
        return f"%{reg}"
    if code == "q":
        return f"{reg}.2d"
    if code == "v":
        return f"{reg}.d"
    if code == "p":
        # predicated-source position: governing predicate
        return f"{reg}/m" if False else reg
    return reg


def synthesize_block(
    model: MachineModel,
    entry: InstrEntry,
    kind: str = "throughput",
    instances: int = 8,
    reg_offset: int = 0,
) -> str:
    """Build an assembly block exercising *entry*.

    ``kind`` is ``"throughput"`` (independent instances) or
    ``"latency"`` (dest→source chained instances).  Raises
    :class:`UnbenchableEntry` for forms that cannot be synthesized
    (wildcards, control flow, memory-only forms for latency).
    """
    if any(ch in entry.mnemonic for ch in "*?["):
        raise UnbenchableEntry(f"wildcard mnemonic {entry.mnemonic!r}")
    if entry.signature in ("*", ""):
        raise UnbenchableEntry(f"wildcard signature for {entry.mnemonic!r}")
    codes = entry.signature.split(",")
    if "l" in codes or "g" in codes:
        raise UnbenchableEntry("control flow / gather forms need custom benches")
    isa = model.isa
    pools = _X86_POOLS if isa == "x86" else _A64_POOLS

    # Identify destination/source positions via a probe parse.
    probe = _render_line(model, entry, codes, dest_idx=0, regs=None, chain_src=None)
    parsed = parse_kernel(probe, isa)
    if not parsed:
        raise UnbenchableEntry(f"probe line did not parse: {probe!r}")
    ins = parsed[0]
    dest_positions = [
        k for k, a in enumerate(ins.accesses) if a & OperandAccess.WRITE
    ]
    reg_dest = [
        k for k in dest_positions
        if codes[k] in pools and not _is_memory_code(codes[k])
    ]

    lines = []
    if kind == "latency":
        if not reg_dest:
            raise UnbenchableEntry(f"{entry.mnemonic} has no register result")
        chain_code = codes[reg_dest[0]]
        src_positions = [
            k for k, a in enumerate(ins.accesses)
            if (a & OperandAccess.READ) and codes[k] == chain_code
            and k != reg_dest[0]
        ]
        if not src_positions:
            raise UnbenchableEntry(
                f"{entry.mnemonic} has no same-class source to chain through"
            )
        reg = pools[chain_code][0][0]
        for _ in range(2):
            lines.append(
                _render_line(model, entry, codes, dest_idx=reg_dest[0],
                             regs={reg_dest[0]: reg, src_positions[0]: reg})
            )
    else:
        if not reg_dest:
            # store-like: independent instances are trivially parallel
            for _ in range(instances):
                lines.append(_render_line(model, entry, codes, dest_idx=None, regs=None))
        else:
            # reg_offset partitions the destination pool so two blocks
            # can be interleaved without false dependencies:
            # 0 = full pool, 1 = first half, 2 = second half.
            dests = pools[codes[reg_dest[0]]][0]
            half = max(1, len(dests) // 2)
            if reg_offset == 1:
                dests = dests[:half]
            elif reg_offset == 2:
                dests = dests[half:] or dests
            for n in range(instances):
                lines.append(
                    _render_line(
                        model, entry, codes, dest_idx=reg_dest[0],
                        regs={reg_dest[0]: dests[n % len(dests)]},
                    )
                )

    body = "\n".join(f"    {l}" for l in lines)
    if isa == "x86":
        return f".Lib:\n{body}\n    subq $1, %r15\n    jnz .Lib\n"
    return f".Lib:\n{body}\n    subs x15, x15, #1\n    b.ne .Lib\n"


def _is_memory_code(code: str) -> bool:
    return code in ("m", "g")


def _render_line(
    model: MachineModel,
    entry: InstrEntry,
    codes: list[str],
    dest_idx: Optional[int],
    regs: Optional[dict[int, str]],
    chain_src: Optional[int] = None,
) -> str:
    """Render one instruction instance with synthesized operands."""
    isa = model.isa
    pools = _X86_POOLS if isa == "x86" else _A64_POOLS
    ops = []
    src_cursor = {}
    for k, code in enumerate(codes):
        if regs and k in regs:
            ops.append(_operand_text(code, regs[k], isa))
            continue
        if code == "i":
            ops.append("$1" if isa == "x86" else "#1")
        elif code == "m":
            ops.append("(%rax)" if isa == "x86" else "[x0]")
        elif code in pools:
            dests, sources = pools[code]
            if dest_idx is not None and k == dest_idx:
                ops.append(_operand_text(code, dests[0], isa))
            else:
                n = src_cursor.get(code, 0)
                src_cursor[code] = n + 1
                ops.append(_operand_text(code, sources[n % len(sources)], isa))
        else:
            raise UnbenchableEntry(f"cannot synthesize operand code {code!r}")
    # SVE predicated-source positions need the /m or /z marker the
    # entry's semantics expect; predicates in source position default to
    # a governing merge predicate.
    if isa == "aarch64":
        ops = [
            o + "/m" if o.startswith("p") and i != 0 and "/" not in o else o
            for i, o in enumerate(ops)
        ]
    return f"{entry.mnemonic} {', '.join(ops)}".strip()


def measure_entry(
    model: MachineModel,
    entry: InstrEntry,
    instances: int = 8,
    iterations: int = 100,
) -> IbenchResult:
    """Synthesize, simulate, and compare against the model bound."""
    def run(asm: str):
        plan = build_uop_plan(
            parse_kernel(asm, model.isa), model, config=IDEALIZED_CONFIG
        )
        return CycleEngine().run(plan, iterations=iterations, warmup=30)

    t = run(synthesize_block(model, entry, "throughput", instances))
    recip = t.cycles_per_iteration / instances

    lat = None
    try:
        l = run(synthesize_block(model, entry, "latency"))
        lat = l.cycles_per_iteration / 2
    except UnbenchableEntry:
        pass

    bound = _analytic_bound(model, entry)
    return IbenchResult(
        mnemonic=entry.mnemonic,
        signature=entry.signature,
        reciprocal_throughput=recip,
        latency=lat,
        model_bound=bound,
    )


def _analytic_bound(model: MachineModel, entry: InstrEntry) -> float:
    """Best-case cycles/instruction from the entry's resources alone.

    Uses the exact minimax port binding — the equal-split heuristic
    over-estimates entries whose µops have nested candidate sets (e.g.
    a fixed-port transfer plus a two-port convert).
    """
    from types import SimpleNamespace

    from ..analysis.portbinding import assign_ports_optimal

    shim = SimpleNamespace(uops=entry.uops)
    bound = assign_ports_optimal(model, [shim]).max_pressure
    return max(bound, entry.divider, entry.throughput or 0.0)


def verify_model(
    model: MachineModel,
    sample_every: int = 1,
    tolerance: float = 0.35,
) -> dict:
    """Model self-check: measured reciprocal throughput of every
    benchable entry must not *beat* the entry's analytical bound, and
    should be within ``tolerance`` of it (frontend/loop overhead aside).

    Returns a report dict with ``checked``, ``skipped``, and
    ``violations`` (entries whose measurement is *faster* than their
    own data allows — a model inconsistency).
    """
    checked = skipped = 0
    violations: list[str] = []
    slow: list[str] = []
    for k, entry in enumerate(model.entries):
        if k % sample_every:
            continue
        try:
            r = measure_entry(model, entry, instances=8, iterations=60)
        except UnbenchableEntry:
            skipped += 1
            continue
        except Exception as exc:  # pragma: no cover - defensive
            skipped += 1
            continue
        checked += 1
        if r.reciprocal_throughput < r.model_bound - 1e-6:
            violations.append(
                f"{entry.mnemonic} ({entry.signature}): measured "
                f"{r.reciprocal_throughput:.2f} < bound {r.model_bound:.2f}"
            )
        elif r.model_bound > 0 and (
            r.reciprocal_throughput > r.model_bound * (1 + tolerance)
            and r.reciprocal_throughput > 0.2
        ):
            slow.append(
                f"{entry.mnemonic} ({entry.signature}): measured "
                f"{r.reciprocal_throughput:.2f} vs bound {r.model_bound:.2f}"
            )
    return {
        "checked": checked,
        "skipped": skipped,
        "violations": violations,
        "interference": slow,
    }
