"""Expression-tree IR for streaming loop kernels.

A kernel computes one value per loop index ``i`` from loaded stream
elements, loop-invariant scalars, the index itself (π kernel), and —
for Gauss-Seidel — the value produced by the *previous* iteration.
The tree is deliberately minimal: binary ``+ - * /`` over leaves.

Loads carry a ``row`` tag: stencil neighbours in other matrix rows /
planes live at runtime-dependent distances, so code generators give
each (array, row) pair its own base pointer, while ``offset`` (in
elements) becomes the immediate displacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class Expr:
    """Base class for kernel expression nodes."""

    def __add__(self, other: "Expr") -> "Bin":
        return Bin("+", self, other)

    def __sub__(self, other: "Expr") -> "Bin":
        return Bin("-", self, other)

    def __mul__(self, other: "Expr") -> "Bin":
        return Bin("*", self, other)

    def __truediv__(self, other: "Expr") -> "Bin":
        return Bin("/", self, other)


@dataclass(frozen=True)
class Load(Expr):
    """Stream element ``array[row][i + offset]``."""

    array: str
    offset: int = 0
    row: int = 0


@dataclass(frozen=True)
class Scalar(Expr):
    """Loop-invariant scalar held in a register (e.g. ``0.25``)."""

    name: str
    value: float = 0.0


@dataclass(frozen=True)
class IndexValue(Expr):
    """The induction value ``x_i = (i + 0.5) * h`` of the π kernel.

    Generators materialize it as a floating-point induction variable
    advanced by ``h`` (scalar) or by ``VL·h`` (vectorized).
    """


@dataclass(frozen=True)
class Carried(Expr):
    """The value computed by the previous iteration (Gauss-Seidel)."""


@dataclass(frozen=True)
class Bin(Expr):
    op: str  #: one of ``+ - * /``
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.op not in "+-*/":
            raise ValueError(f"unknown operator {self.op!r}")


def walk(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal."""
    yield expr
    if isinstance(expr, Bin):
        yield from walk(expr.lhs)
        yield from walk(expr.rhs)


def count_flops(expr: Expr) -> int:
    """Floating-point operations per element (FMA counts as 2)."""
    return sum(1 for e in walk(expr) if isinstance(e, Bin))


def collect_loads(expr: Expr) -> list[Load]:
    """All loads in evaluation order (duplicates removed)."""
    seen: dict[Load, None] = {}
    for e in walk(expr):
        if isinstance(e, Load):
            seen.setdefault(e, None)
    return list(seen)


def collect_scalars(expr: Expr) -> list[Scalar]:
    seen: dict[Scalar, None] = {}
    for e in walk(expr):
        if isinstance(e, Scalar):
            seen.setdefault(e, None)
    return list(seen)


def has_division(expr: Expr) -> bool:
    return any(isinstance(e, Bin) and e.op == "/" for e in walk(expr))


def has_carried(expr: Expr) -> bool:
    return any(isinstance(e, Carried) for e in walk(expr))


def has_index_value(expr: Expr) -> bool:
    return any(isinstance(e, IndexValue) for e in walk(expr))


def balanced_sum(terms: list[Expr]) -> Expr:
    """Reduction tree of minimum depth (the shape compilers build)."""
    if not terms:
        raise ValueError("empty sum")
    work = list(terms)
    while len(work) > 1:
        nxt = []
        for k in range(0, len(work) - 1, 2):
            nxt.append(Bin("+", work[k], work[k + 1]))
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]
