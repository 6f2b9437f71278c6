"""Extended kernel suite beyond the paper's 13 validation kernels.

The in-core models are general: anything expressible as a streaming
loop body works through the same codegen → analyze → simulate pipeline.
This module adds the classic kernels an HPC practitioner reaches for
next — used by the examples and the extended regression tests, and a
natural place for downstream users to register their own kernels via
:func:`register_kernel`.
"""

from __future__ import annotations

from .ir import Carried, Expr, Load, Scalar, balanced_sum
from .suite import KernelSpec


def _horner(degree: int) -> Expr:
    """Horner evaluation of a degree-N polynomial of a streamed input —
    a pure multiply-add latency chain."""
    x = Load("a")
    acc: Expr = Scalar(f"c{degree}", 1.0)
    for k in range(degree - 1, -1, -1):
        acc = acc * x + Scalar(f"c{k}", 1.0)
    return acc


def _build() -> dict[str, KernelSpec]:
    kernels: list[KernelSpec] = []

    kernels.append(
        KernelSpec(
            name="daxpy",
            description="y[i] = y[i] + alpha * x[i] (BLAS-1 AXPY)",
            expr=Load("y") + Scalar("alpha", 2.0) * Load("x"),
            store="y",
        )
    )
    kernels.append(
        KernelSpec(
            name="scale",
            description="b[i] = s * a[i] (STREAM scale)",
            expr=Scalar("s", 3.0) * Load("a"),
            store="b",
        )
    )
    kernels.append(
        KernelSpec(
            name="dot",
            description="s += a[i] * b[i] (BLAS-1 DOT)",
            expr=Load("a") * Load("b"),
            store=None,
            reduction="+",
            needs_fast_math=True,
        )
    )
    kernels.append(
        KernelSpec(
            name="norm2",
            description="s += a[i] * a[i] (squared 2-norm)",
            expr=Load("a") * Load("a"),
            store=None,
            reduction="+",
            needs_fast_math=True,
        )
    )
    kernels.append(
        KernelSpec(
            name="horner4",
            description="b[i] = degree-4 Horner polynomial of a[i]",
            expr=_horner(4),
            store="b",
        )
    )
    kernels.append(
        KernelSpec(
            name="horner8",
            description="b[i] = degree-8 Horner polynomial of a[i]",
            expr=_horner(8),
            store="b",
        )
    )
    kernels.append(
        KernelSpec(
            name="prefix_prod",
            description="p[i] = p[i-1] * a[i] (carried multiply chain)",
            expr=Carried() * Load("a"),
            store="p",
            vectorizable=False,
        )
    )
    kernels.append(
        KernelSpec(
            name="rel_residual",
            description="s += (a[i] - b[i]) / b[i] (divide-heavy reduction)",
            expr=(Load("a") - Load("b")) / Load("b"),
            store=None,
            reduction="+",
            needs_fast_math=True,
        )
    )
    # long-range 1D stencil (radius 4, 9 points): stresses split loads
    kernels.append(
        KernelSpec(
            name="j1d9pt",
            description="Jacobi 1D 9-point (radius-4) stencil",
            expr=Scalar("w", 1.0 / 9.0)
            * balanced_sum([Load("a", off) for off in range(-4, 5)]),
            store="b",
        )
    )
    # variable-coefficient 2D stencil: two input arrays
    kernels.append(
        KernelSpec(
            name="j2d5pt_vc",
            description="variable-coefficient Jacobi 2D 5-point",
            expr=Load("c", 0, 0)
            * balanced_sum(
                [
                    Load("a", -1, 0),
                    Load("a", 1, 0),
                    Load("a", 0, -1),
                    Load("a", 0, 1),
                ]
            ),
            store="b",
        )
    )
    kernels.append(
        KernelSpec(
            name="wave2d",
            description="2nd-order wave propagation: u' = 2u - u_prev + c*laplacian(u)",
            expr=(Scalar("two", 2.0) * Load("u", 0, 0) - Load("uprev", 0, 0))
            + Scalar("c", 0.1)
            * balanced_sum(
                [
                    Load("u", -1, 0),
                    Load("u", 1, 0),
                    Load("u", 0, -1),
                    Load("u", 0, 1),
                ]
            ),
            store="unext",
        )
    )
    return {k.name: k for k in kernels}


EXTENDED_KERNELS: dict[str, KernelSpec] = _build()

#: combined registry (paper suite + extensions)
def all_kernels() -> dict[str, KernelSpec]:
    from .suite import KERNELS

    merged = dict(KERNELS)
    merged.update(EXTENDED_KERNELS)
    return merged


def register_kernel(spec: KernelSpec) -> None:
    """Register a user-defined kernel in the extended suite."""
    if spec.name in EXTENDED_KERNELS or spec.name in all_kernels():
        raise ValueError(f"kernel {spec.name!r} already registered")
    EXTENDED_KERNELS[spec.name] = spec


def get_extended_kernel(name: str) -> KernelSpec:
    merged = all_kernels()
    try:
        return merged[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; known: {sorted(merged)}"
        ) from None
