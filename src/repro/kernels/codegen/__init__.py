"""Kernel → assembly lowering under compiler personas.

:func:`generate_assembly` is the single entry point: it selects the
x86 or AArch64 emitter and produces the innermost-loop body text (label
through backward branch) — exactly the block OSACA-style analysis and
the core simulator consume.

A block's text is fixed by its kernel and its :data:`EmitSpec`: the
handful of choices (precision, vectorization, register class or vector
style, unroll, accumulators, one persona habit) that :func:`emit_spec`
derives from the persona, opt level and µarch.  The emitters see
nothing else.  Many blocks share a spec: the 416 entries of the
paper's corpus come from 130 emitter specs, which give 118 distinct
texts and 153 cache keys, and :mod:`~repro.kernels.corpus` emits each
spec once.
"""

from __future__ import annotations

from ..extended import get_extended_kernel
from ..personas import CompilerPersona, PERSONAS
from ..suite import KernelSpec
from .x86 import X86Emitter, X86Spec, x86_spec
from .aarch64 import AArch64Emitter, AArch64Spec, aarch64_spec

#: every code-generation choice of one block, besides the kernel
EmitSpec = X86Spec | AArch64Spec

#: the µarchs the emitters target, and each one's ISA
UARCH_ISA = {"golden_cove": "x86", "neoverse_v2": "aarch64", "zen4": "x86"}


def emit_spec(
    kernel: KernelSpec,
    persona: CompilerPersona,
    opt: str,
    uarch: str,
    precision: str = "dp",
) -> EmitSpec:
    """The choices ``persona`` makes for ``kernel`` at ``opt`` on ``uarch``."""
    isa = UARCH_ISA.get(uarch)
    if isa is None:
        raise ValueError(
            f"unknown µarch {uarch!r}; known: {sorted(UARCH_ISA)}"
        )
    if persona.isa != isa:
        raise ValueError(f"persona {persona.name} does not target {isa}")
    if isa == "aarch64":
        return aarch64_spec(kernel, persona, opt, precision)
    return x86_spec(kernel, persona, opt, uarch, precision)


def emit(kernel: KernelSpec, spec: EmitSpec) -> str:
    """The block text of ``kernel`` under ``spec``."""
    if isinstance(spec, AArch64Spec):
        return AArch64Emitter(kernel, spec).generate()
    return X86Emitter(kernel, spec).generate()


def generate_assembly(
    kernel: str | KernelSpec,
    persona: str | CompilerPersona,
    opt: str,
    uarch: str,
    precision: str = "dp",
) -> str:
    """Lower a kernel to assembly.

    Parameters
    ----------
    kernel:
        Kernel name (see :data:`repro.kernels.suite.KERNELS`) or spec.
    persona:
        Compiler persona name or instance; must match the target ISA.
    opt:
        ``"O1"`` | ``"O2"`` | ``"O3"`` | ``"Ofast"``.
    uarch:
        Target microarchitecture (``golden_cove``/``zen4``/
        ``neoverse_v2``; any other name raises ``ValueError``) —
        affects vector width selection.
    precision:
        ``"dp"`` (the paper's corpus) or ``"sp"`` — single-precision
        variants double the elements per vector.
    """
    k = kernel if isinstance(kernel, KernelSpec) else get_extended_kernel(kernel)
    p = persona if isinstance(persona, CompilerPersona) else PERSONAS[persona]
    return emit(k, emit_spec(k, p, opt, uarch, precision))


__all__ = [
    "generate_assembly",
    "emit_spec",
    "emit",
    "EmitSpec",
    "X86Emitter",
    "X86Spec",
    "AArch64Emitter",
    "AArch64Spec",
]
