"""The validation corpus: every (machine, kernel, persona, opt) block.

The paper's matrix: 13 kernels x 4 optimization levels x {GCC, Clang,
ICX on each of the two x86 machines; GCC and Arm Clang on Grace} =
13 x 4 x (3 + 3 + 2) = **416 test blocks**, of which a subset is unique
assembly (different compilers/levels frequently produce the same inner
loop — the paper counts 290 unique representations).
"""

from __future__ import annotations

from dataclasses import dataclass

from .codegen import generate_assembly
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
    """
    out: list[CorpusEntry] = []
    kernel_names = tuple(kernels) if kernels else tuple(KERNELS)
    for machine in machines:
        uarch, isa = MACHINES[machine]
        for persona in personas_for_isa(isa):
            for kernel in kernel_names:
                for opt in OPT_LEVELS:
                    asm = generate_assembly(
                        kernel, persona, opt, uarch, precision=precision
                    )
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
