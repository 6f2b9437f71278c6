"""The paper's 13 validation kernels.

Each :class:`KernelSpec` couples the per-element expression tree with
the information the harness needs: FLOPs and traffic per element
(for Roofline/ECM), whether the kernel is a reduction, whether it can
be vectorized at all (Gauss-Seidel cannot), and whether vectorization
needs value-unsafe reassociation (π and SUM need ``-Ofast``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .ir import (
    Carried,
    Expr,
    IndexValue,
    Load,
    Scalar,
    balanced_sum,
    collect_loads,
    collect_scalars,
    count_flops,
    has_carried,
    has_division,
    has_index_value,
)


@dataclass(frozen=True)
class KernelSpec:
    """One validation kernel."""

    name: str
    description: str
    expr: Expr
    #: output array; ``None`` for pure reductions
    store: Optional[str]
    #: reduction operator accumulated across iterations ('+' or None)
    reduction: Optional[str] = None
    #: False for loop-carried kernels (Gauss-Seidel)
    vectorizable: bool = True
    #: vectorization requires -Ofast-style reassociation
    needs_fast_math: bool = False

    # The facts below depend on ``expr`` alone, so each is derived from
    # the tree once per spec, on first read; the code generators read
    # them for every block they emit.

    @cached_property
    def loads(self) -> tuple[Load, ...]:
        """Distinct loads in evaluation order."""
        return tuple(collect_loads(self.expr))

    @cached_property
    def scalars(self) -> tuple[Scalar, ...]:
        """Distinct loop-invariant scalars in evaluation order."""
        return tuple(collect_scalars(self.expr))

    @cached_property
    def flops_per_element(self) -> int:
        n = count_flops(self.expr)
        if self.reduction:
            n += 1  # the accumulate itself
        return n

    @cached_property
    def arrays(self) -> tuple[tuple[str, int], ...]:
        """Distinct (array, row) streams read by the kernel."""
        return tuple(dict.fromkeys((ld.array, ld.row) for ld in self.loads))

    @cached_property
    def bytes_per_element(self) -> int:
        """Traffic per element assuming write-allocate for the store."""
        n_store = 2 if self.store else 0  # WA: read + write
        return 8 * (len(self.loads) + n_store)

    @cached_property
    def has_division(self) -> bool:
        return has_division(self.expr)

    @cached_property
    def has_carried_dependency(self) -> bool:
        return has_carried(self.expr)

    @cached_property
    def uses_index(self) -> bool:
        return has_index_value(self.expr)


def _jacobi_weights(n: int) -> Scalar:
    return Scalar("w", 1.0 / n)


def _build_kernels() -> dict[str, KernelSpec]:
    A = lambda off=0, row=0, arr="a": Load(arr, off, row)
    kernels: list[KernelSpec] = []

    kernels.append(
        KernelSpec(
            name="add",
            description="c[i] = a[i] + b[i]",
            expr=Load("a") + Load("b"),
            store="c",
        )
    )
    kernels.append(
        KernelSpec(
            name="copy",
            description="c[i] = a[i]",
            expr=Load("a"),
            store="c",
        )
    )
    kernels.append(
        KernelSpec(
            name="init",
            description="a[i] = s (array initialization, store-only)",
            expr=Scalar("s", 1.0),
            store="a",
        )
    )
    kernels.append(
        KernelSpec(
            name="update",
            description="a[i] = a[i] * s",
            expr=Load("a") * Scalar("s", 3.0),
            store="a",
        )
    )
    kernels.append(
        KernelSpec(
            name="sum",
            description="s += a[i] (sum reduction)",
            expr=Load("a"),
            store=None,
            reduction="+",
            needs_fast_math=True,
        )
    )
    kernels.append(
        KernelSpec(
            name="striad",
            description="STREAM triad: a[i] = b[i] + s * c[i]",
            expr=Load("b") + Scalar("s", 3.0) * Load("c"),
            store="a",
        )
    )
    kernels.append(
        KernelSpec(
            name="sch_triad",
            description="Schoenauer triad: a[i] = b[i] + c[i] * d[i]",
            expr=Load("b") + Load("c") * Load("d"),
            store="a",
        )
    )
    kernels.append(
        KernelSpec(
            name="pi",
            description="pi by integration: x=(i+0.5)h; s += 4/(1+x*x)",
            expr=Scalar("four", 4.0)
            / (Scalar("one", 1.0) + IndexValue() * IndexValue()),
            store=None,
            reduction="+",
            needs_fast_math=True,
        )
    )
    kernels.append(
        KernelSpec(
            name="gs2d5pt",
            description=(
                "Gauss-Seidel 2D 5-point: phi[k][i] = 0.25*(phi[k][i-1]' + "
                "phi[k][i+1] + phi[k-1][i]' + phi[k+1][i])"
            ),
            expr=Scalar("w", 0.25)
            * (
                (Carried() + Load("phi", 1, row=0))
                + (Load("phi", 0, row=-1) + Load("phi", 0, row=1))
            ),
            store="phi",
            vectorizable=False,
        )
    )
    # Jacobi 2D 5-point
    j2d = [
        Load("a", -1, 0),
        Load("a", 1, 0),
        Load("a", 0, -1),
        Load("a", 0, 1),
    ]
    kernels.append(
        KernelSpec(
            name="j2d5pt",
            description="Jacobi 2D 5-point stencil",
            expr=_jacobi_weights(4) * balanced_sum(j2d),
            store="b",
        )
    )
    # Jacobi 3D 7-point: rows are (j, k) plane offsets flattened to ids
    # row 0 = (0,0), ±1 = j-neighbours, ±2 = k-plane neighbours.
    j3d7 = [
        Load("a", 0, 0),
        Load("a", -1, 0),
        Load("a", 1, 0),
        Load("a", 0, -1),
        Load("a", 0, 1),
        Load("a", 0, -2),
        Load("a", 0, 2),
    ]
    kernels.append(
        KernelSpec(
            name="j3d7pt",
            description="Jacobi 3D 7-point stencil",
            expr=_jacobi_weights(7) * balanced_sum(j3d7),
            store="b",
        )
    )
    # Jacobi 3D 11-point: 7-point plus radius-2 in the leading dimension
    # and the j direction.
    j3d11 = j3d7 + [
        Load("a", -2, 0),
        Load("a", 2, 0),
        Load("a", 0, -3),
        Load("a", 0, 3),
    ]
    kernels.append(
        KernelSpec(
            name="j3d11pt",
            description="Jacobi 3D 11-point stencil (radius 2 in two dims)",
            expr=_jacobi_weights(11) * balanced_sum(j3d11),
            store="b",
        )
    )
    # Jacobi 3D 27-point: the full 3x3x3 neighbourhood — 9 rows
    # (3 j-offsets x 3 k-offsets), 3 element offsets each.
    j3d27 = [
        Load("a", off, row)
        for row in range(-4, 5)
        for off in (-1, 0, 1)
    ]
    kernels.append(
        KernelSpec(
            name="j3d27pt",
            description="Jacobi 3D 27-point stencil",
            expr=_jacobi_weights(27) * balanced_sum(j3d27),
            store="b",
        )
    )
    return {k.name: k for k in kernels}


KERNELS: dict[str, KernelSpec] = _build_kernels()

assert len(KERNELS) == 13, "the paper's suite has 13 kernels"


def get_kernel(name: str) -> KernelSpec:
    try:
        return KERNELS[name]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; known: {sorted(KERNELS)}") from None
