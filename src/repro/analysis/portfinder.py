"""Port-occupation inference by instruction interleaving.

The paper (Sec. II): *"For [port occupation], it is often necessary to
interleave the instruction with known instructions to infer the
potential ports of execution."*  This module reproduces that
methodology against the simulated hardware:

1. for each port ``p``, find a **probe** — a known instruction form
   whose only candidate port is ``p`` (synthesized from the model's own
   table, exactly like picking ``shl`` for Intel's port 0/6);
2. measure a block of ``N`` probe instances alone (baseline cycles);
3. measure the same block with ``K`` instances of the *target*
   instruction interleaved;
4. if the combined block is slower than ``max(baseline, target alone)``
   would allow under disjoint ports, the target competes for ``p``.

The result is the inferred candidate-port set.  Ports that have no
single-port probe in the table are reported as ``undetermined`` rather
than guessed — the same honesty a hardware experimenter needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bench.ibench import UnbenchableEntry, synthesize_block
from ..isa import parse_kernel
from ..machine.model import InstrEntry, MachineModel
from ..simulator.engine import CycleEngine, SimulationResult
from ..simulator.plan import IDEALIZED_CONFIG, build_uop_plan


@dataclass
class PortInferenceResult:
    mnemonic: str
    signature: str
    inferred_ports: tuple[str, ...]
    undetermined_ports: tuple[str, ...]
    true_ports: tuple[str, ...]  #: from the model (for validation)

    @property
    def correct(self) -> bool:
        """Inference is sound if it found exactly the true ports among
        the determinable ones."""
        determinable = set(self.true_ports) - set(self.undetermined_ports)
        return set(self.inferred_ports) == determinable


def _clean_run(
    model: MachineModel, asm: str, iterations: int, warmup: int
) -> SimulationResult:
    plan = build_uop_plan(
        parse_kernel(asm, model.isa), model, config=IDEALIZED_CONFIG
    )
    return CycleEngine().run(plan, iterations=iterations, warmup=warmup)


def find_probes(model: MachineModel) -> dict[str, InstrEntry]:
    """A single-port probe entry per port, where one exists.

    Prefers single-µop, non-divider, register-only forms with low
    latency (the cleanest saturating filler).
    """
    probes: dict[str, InstrEntry] = {}
    for entry in model.entries:
        if any(ch in entry.mnemonic for ch in "*?["):
            continue
        if entry.divider or entry.throughput:
            continue
        if len(entry.uops) != 1 or len(entry.uops[0].ports) != 1:
            continue
        codes = entry.signature.split(",")
        if any(c in ("m", "g", "l", "") for c in codes):
            continue
        port = entry.uops[0].ports[0]
        current = probes.get(port)
        if current is None or entry.latency < current.latency:
            try:
                synthesize_block(model, entry, "throughput", 4)
            except UnbenchableEntry:
                continue
            probes[port] = entry
    return probes


def _block_cycles(model: MachineModel, asm: str, iterations: int = 80) -> float:
    return _clean_run(model, asm, iterations, 25).cycles_per_iteration


def _interleave(probe_asm: str, target_asm: str) -> str:
    """Merge two loop bodies: probe lines + target lines, one loop."""
    def body(asm: str) -> list[str]:
        lines = [l for l in asm.splitlines() if l.strip()]
        # strip label and the two loop-control lines
        return lines[1:-2]

    head = probe_asm.splitlines()[0]
    tail = [l for l in probe_asm.splitlines() if l.strip()][-2:]
    merged = [head] + body(probe_asm) + body(target_asm) + tail
    return "\n".join(merged) + "\n"


def infer_ports_counters(
    model: MachineModel,
    entry: InstrEntry,
    n_target: int = 24,
    threshold: float = 0.02,
) -> PortInferenceResult:
    """Port inference via per-port µop counters.

    Intel cores expose ``UOPS_DISPATCHED.PORT_x``; with a saturating
    stream of the target instruction, every candidate port shows
    occupancy.  (On AMD and Arm such counters do not exist — use
    :func:`infer_ports_interleave` there, as the paper's authors had
    to.)
    """
    asm = synthesize_block(model, entry, "throughput", n_target)
    iters, warm = 80, 25
    result = _clean_run(model, asm, iters, warm)
    # Loop control contributes at most ~2 µops/iteration spread over the
    # cheapest ports; with a saturating target stream, any candidate
    # port carries far more than that.
    loop_noise = 2.5
    per_iter = {p: result.port_busy[p] / (iters + warm) for p in model.ports}
    inferred = [p for p in model.ports if per_iter[p] > loop_noise]
    true_ports = tuple(sorted({p for u in entry.uops for p in u.ports}))
    return PortInferenceResult(
        mnemonic=entry.mnemonic,
        signature=entry.signature,
        inferred_ports=tuple(sorted(inferred)),
        undetermined_ports=(),
        true_ports=true_ports,
    )


def infer_ports_interleave(
    model: MachineModel,
    entry: InstrEntry,
    n_probe: int = 6,
    n_target: int = 24,
    slack: float = 0.35,
) -> PortInferenceResult:
    """Port inference by interleaving with single-port probes.

    The target stream is made the bottleneck (``n_target >> n_probe``).
    If the target can execute on port *p*, a co-running probe that owns
    *p* steals capacity the target cannot recover elsewhere, and the
    combined block runs measurably longer than the target alone; if the
    target never uses *p*, the probe hides entirely in the target's
    slack.
    """
    probes = find_probes(model)
    # disjoint register-pool halves prevent false dependencies between
    # the probe and target streams
    target_asm = synthesize_block(model, entry, "throughput", n_target,
                                  reg_offset=2)
    target_alone = _block_cycles(model, target_asm)

    inferred: list[str] = []
    undetermined = [p for p in model.ports if p not in probes]
    for port, probe in probes.items():
        probe_asm = synthesize_block(model, probe, "throughput", n_probe,
                                     reg_offset=1)
        probe_alone = _block_cycles(model, probe_asm)
        combined = _block_cycles(model, _interleave(probe_asm, target_asm))
        disjoint = max(probe_alone, target_alone)
        if combined > disjoint + slack:
            inferred.append(port)

    true_ports = tuple(sorted({p for u in entry.uops for p in u.ports}))
    return PortInferenceResult(
        mnemonic=entry.mnemonic,
        signature=entry.signature,
        inferred_ports=tuple(sorted(inferred)),
        undetermined_ports=tuple(sorted(undetermined)),
        true_ports=true_ports,
    )


def infer_ports(
    model: MachineModel,
    entry: InstrEntry,
    method: str = "auto",
    **kwargs,
) -> PortInferenceResult:
    """Infer candidate ports of *entry*.

    ``method="auto"`` uses per-port counters on Golden Cove (Intel
    exposes them) and interleaving elsewhere, mirroring what is possible
    on the real machines.
    """
    if method == "auto":
        method = "counters" if model.name == "golden_cove" else "interleave"
    if method == "counters":
        return infer_ports_counters(model, entry, **kwargs)
    if method == "interleave":
        return infer_ports_interleave(model, entry, **kwargs)
    raise ValueError(f"unknown method {method!r}")
