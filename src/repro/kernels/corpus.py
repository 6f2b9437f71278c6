"""The validation corpus: every (machine, kernel, persona, opt) block.

The paper's matrix: 13 kernels x 4 optimization levels x {GCC, Clang,
ICX on each of the two x86 machines; GCC and Arm Clang on Grace} =
13 x 4 x (3 + 3 + 2) = **416 test blocks**, of which a subset is unique
assembly (different compilers/levels frequently produce the same inner
loop — the paper counts 290 unique representations).

Here the 416 entries come from 130 distinct emitter specs (a kernel and
its code-generation choices, :data:`~repro.kernels.codegen.EmitSpec`),
which give 118 distinct texts and, paired with the µarch, 153 distinct
cache keys.  :func:`enumerate_corpus` runs an emitter once per spec.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codegen import EmitSpec, emit, emit_spec
from .extended import get_extended_kernel
from .personas import OPT_LEVELS, personas_for_isa
from .suite import KERNELS

#: machine -> (uarch, isa)
MACHINES = {
    "spr": ("golden_cove", "x86"),
    "genoa": ("zen4", "x86"),
    "gcs": ("neoverse_v2", "aarch64"),
}


@dataclass(frozen=True)
class CorpusEntry:
    """One test block of the validation corpus."""

    machine: str
    uarch: str
    kernel: str
    persona: str
    opt: str
    assembly: str

    @property
    def test_id(self) -> str:
        return f"{self.machine}/{self.kernel}/{self.persona}/{self.opt}"


def enumerate_corpus(
    machines: tuple[str, ...] = ("spr", "genoa", "gcs"),
    kernels: tuple[str, ...] | None = None,
    precision: str = "dp",
) -> list[CorpusEntry]:
    """Generate the full corpus (416 entries by default).

    ``precision="sp"`` produces the single-precision variant corpus —
    an extension beyond the paper's double-precision validation.

    Each distinct (kernel, :data:`~repro.kernels.codegen.EmitSpec`)
    pair is emitted once per call, and every entry that repeats it
    shares the same string.
    """
    for machine in machines:
        if machine not in MACHINES:
            raise ValueError(
                f"unknown machine {machine!r}; known: {sorted(MACHINES)}"
            )
    named = [
        (name, get_extended_kernel(name))
        for name in (tuple(kernels) if kernels else tuple(KERNELS))
    ]
    texts: dict[tuple[str, EmitSpec], str] = {}
    out: list[CorpusEntry] = []
    for machine in machines:
        uarch, isa = MACHINES[machine]
        for persona in personas_for_isa(isa):
            for kernel, k in named:
                for opt in OPT_LEVELS:
                    spec = emit_spec(k, persona, opt, uarch, precision)
                    asm = texts.get((kernel, spec))
                    if asm is None:
                        asm = texts[kernel, spec] = emit(k, spec)
                    out.append(
                        CorpusEntry(
                            machine=machine,
                            uarch=uarch,
                            kernel=kernel,
                            persona=persona.name,
                            opt=opt,
                            assembly=asm,
                        )
                    )
    return out


def unique_assembly_count(entries: list[CorpusEntry]) -> int:
    """Number of distinct assembly representations in the corpus."""
    return len({e.assembly for e in entries})
