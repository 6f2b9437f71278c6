"""x86-64 (AT&T) kernel emitter.

Produces the innermost loop body a GCC/Clang/ICX-style compiler would
emit for a streaming kernel: indexed addressing off per-stream base
pointers (``disp(%base,%rcx,8)``), VEX three-operand arithmetic with
one folded memory operand, FMA contraction, optional unrolling, and
multi-accumulator reductions under ``-Ofast`` reassociation.

Register conventions (all set up outside the measured block):

=============  ===================================================
``%rdi``       store-stream base pointer
``%rax`` …     load-stream base pointers (one per (array, row))
``%rcx``       element index, ``%rdx`` loop limit
``xmm/ymm/zmm 0–7``   expression temporaries
``8–11``       reduction accumulators / Gauss-Seidel carried value
``12``         π induction value, ``13–15`` loop-invariant constants
=============  ===================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import Bin, Carried, Expr, IndexValue, Load, Scalar
from ..personas import CompilerPersona
from ..suite import KernelSpec

_PTR_POOL = ["rax", "rbx", "rsi", "r8", "r9", "r10", "r11", "r12", "r13",
             "r14", "r15", "rbp"]
_WIDTH_ELEMS = {"zmm": 8, "ymm": 4, "xmm": 2}


class _RegFile:
    """Temp-register free list over indices 0..7."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.free = list(range(8))

    def alloc(self) -> str:
        if not self.free:
            raise RuntimeError("x86 emitter ran out of vector temporaries")
        return f"{self.prefix}{self.free.pop(0)}"

    def release(self, reg: str) -> None:
        idx = int(reg[len(self.prefix):])
        if idx < 8 and idx not in self.free:
            self.free.insert(0, idx)
            self.free.sort()

    def is_temp(self, reg: str) -> bool:
        return reg.startswith(self.prefix) and int(reg[len(self.prefix):]) < 8


@dataclass(frozen=True)
class X86Spec:
    """Every choice the x86 emitter makes besides the kernel itself.

    Two blocks of one kernel with equal specs are the same text, so a
    caller that emits many blocks can emit each distinct spec once.
    """

    precision: str
    vector: bool
    #: register class: ``xmm`` for scalar code, else the persona's width
    wclass: str
    unroll: int
    #: reduction accumulators (0 for a kernel that is not a reduction)
    n_acc: int
    fold_memory: bool


def x86_spec(kernel: KernelSpec, persona: CompilerPersona, opt: str,
             uarch: str, precision: str = "dp") -> X86Spec:
    """The choices one persona makes for one kernel at one opt level."""
    if precision not in ("dp", "sp"):
        raise ValueError("precision must be 'dp' or 'sp'")
    cfg = persona.config(opt)
    vector = (
        cfg.vectorize
        and kernel.vectorizable
        and (not kernel.needs_fast_math or cfg.fast_math)
    )
    unroll = 1 if (kernel.uses_index or kernel.has_carried_dependency) else (
        cfg.unroll if vector else 1
    )
    return X86Spec(
        precision=precision,
        vector=vector,
        wclass=persona.width_for(uarch) if vector else "xmm",
        unroll=unroll,
        n_acc=max(1, min(cfg.n_accumulators, unroll)) if kernel.reduction else 0,
        fold_memory=persona.fold_memory,
    )


class X86Emitter:
    """Lower one kernel under one :class:`X86Spec`."""

    def __init__(self, kernel: KernelSpec, spec: X86Spec):
        self.k = kernel
        self.precision = spec.precision
        self.ebytes = 8 if spec.precision == "dp" else 4
        self.vector = spec.vector
        self.wclass = spec.wclass
        self.fold_memory = spec.fold_memory
        self.V = (
            _WIDTH_ELEMS[self.wclass] * (8 // self.ebytes)
            if self.vector
            else 1
        )
        if self.vector:
            self.sfx = "pd" if self.precision == "dp" else "ps"
        else:
            self.sfx = "sd" if self.precision == "dp" else "ss"
        self.U = spec.unroll
        self.n_acc = spec.n_acc
        self.regs = _RegFile(self.wclass)
        self.lines: list[str] = []
        self._assign_registers()

    # ------------------------------------------------------------------

    def _assign_registers(self) -> None:
        self.ptr: dict[tuple[str, int], str] = {}
        if self.k.store:
            self.ptr[(self.k.store, 0)] = "rdi"
        pool = iter(_PTR_POOL)
        for stream in self.k.arrays:
            if stream not in self.ptr:
                self.ptr[stream] = next(pool)
        self.const: dict[str, str] = {}
        idx = 15
        for s in self.k.scalars:
            self.const[s.name] = f"{self.wclass}{idx}"
            idx -= 1
        if self.k.uses_index:
            self.const["__step"] = f"{self.wclass}{idx}"
            idx -= 1
            self.x_reg = f"{self.wclass}12"
        self.acc = [f"{self.wclass}{8 + i}" for i in range(self.n_acc)]
        self.carried = f"{self.wclass}8" if self.k.has_carried_dependency else None

    # ------------------------------------------------------------------

    def _mem(self, load: Load, u: int) -> str:
        base = self.ptr[(load.array, load.row)]
        eb = self.ebytes
        disp = (load.offset + u * self.V) * eb
        return f"{disp}(%{base},%rcx,{eb})" if disp else f"(%{base},%rcx,{eb})"

    def _store_mem(self, u: int) -> str:
        eb = self.ebytes
        disp = u * self.V * eb
        return f"{disp}(%rdi,%rcx,{eb})" if disp else f"(%rdi,%rcx,{eb})"

    def _emit(self, text: str) -> None:
        self.lines.append(f"    {text}")

    def _mov(self) -> str:
        if self.vector:
            return "vmovupd" if self.precision == "dp" else "vmovups"
        return "vmovsd" if self.precision == "dp" else "vmovss"

    # -- expression evaluation ------------------------------------------------

    def _leaf_reg(self, e: Expr, u: int) -> tuple[str, bool]:
        """Evaluate a leaf; returns (register, clobberable)."""
        if isinstance(e, Load):
            t = self.regs.alloc()
            self._emit(f"{self._mov()} {self._mem(e, u)}, %{t}")
            return t, True
        if isinstance(e, Scalar):
            return self.const[e.name], False
        if isinstance(e, IndexValue):
            return self.x_reg, False
        if isinstance(e, Carried):
            assert self.carried is not None
            return self.carried, False
        raise TypeError(f"unexpected leaf {e!r}")

    def _fma_parts(self, e: Bin):
        """Match ``x + a*b`` → (addend, a, b) or None."""
        if e.op != "+":
            return None
        if isinstance(e.rhs, Bin) and e.rhs.op == "*":
            return e.lhs, e.rhs.lhs, e.rhs.rhs
        if isinstance(e.lhs, Bin) and e.lhs.op == "*":
            return e.rhs, e.lhs.lhs, e.lhs.rhs
        return None

    def _operand(self, e: Expr, u: int, fold_ok: bool) -> tuple[str, bool, bool]:
        """Operand for an arithmetic op: (text, is_temp_reg, folded_mem)."""
        if fold_ok and isinstance(e, Load) and self.fold_memory:
            return self._mem(e, u), False, True
        r, clob = self._eval(e, u)
        return f"%{r}", clob, False

    def _eval(self, e: Expr, u: int, dst: str | None = None) -> tuple[str, bool]:
        """Evaluate an expression; returns (register, clobberable).

        ``dst`` pins the result register (used to land the Gauss-Seidel
        result in the carried register without an extra move).
        """
        if not isinstance(e, Bin):
            r, clob = self._leaf_reg(e, u)
            if dst is not None and r != dst:
                self._emit(f"vmovap{'d' if self.vector else 'd'} %{r}, %{dst}")
                if clob:
                    self.regs.release(r)
                return dst, False
            return r, clob

        fma = self._fma_parts(e)
        if fma is not None:
            addend, m1, m2 = fma
            # destination starts as the addend and must be clobberable
            a_reg, a_clob = self._eval(addend, u)
            if dst is not None:
                if a_reg != dst:
                    self._emit(f"vmovapd %{a_reg}, %{dst}")
                    if a_clob:
                        self.regs.release(a_reg)
                    a_reg = dst
            elif not a_clob:
                t = self.regs.alloc()
                self._emit(f"vmovapd %{a_reg}, %{t}")
                a_reg = t
            if m1 == m2:
                # squared multiplicand (x*x): evaluate once, use twice
                r, r_t = self._eval(m1, u)
                self._emit(f"vfmadd231{self.sfx} %{r}, %{r}, %{a_reg}")
                if r_t:
                    self.regs.release(r)
                return a_reg, dst is None
            # one multiply operand may fold from memory; AT&T puts the
            # memory operand first (it is Intel src3)
            o1, o1_t, folded = self._operand(m1, u, fold_ok=True)
            o2, o2_t, folded2 = self._operand(m2, u, fold_ok=not folded)
            if folded2:
                o1, o2 = o2, o1
                o1_t, o2_t = o2_t, o1_t
            self._emit(f"vfmadd231{self.sfx} {o1}, {o2}, %{a_reg}")
            for o, is_t in ((o1, o1_t), (o2, o2_t)):
                if is_t:
                    self.regs.release(o.lstrip("%"))
            return a_reg, dst is None

        op_name = {"+": "add", "-": "sub", "*": "mul", "/": "div"}[e.op]
        if e.lhs == e.rhs:
            # identical operands (x*x in norm2/pi): evaluate once
            lhs_r, lhs_clob = self._eval(e.lhs, u)
            out = dst if dst is not None else (
                lhs_r if lhs_clob else self.regs.alloc()
            )
            self._emit(f"v{op_name}{self.sfx} %{lhs_r}, %{lhs_r}, %{out}")
            if lhs_clob and out != lhs_r:
                self.regs.release(lhs_r)
            return out, dst is None and out != self.carried
        lhs_r, lhs_clob = self._eval(e.lhs, u)
        rhs_op, rhs_t, _ = self._operand(e.rhs, u, fold_ok=e.op in "+*")
        if dst is not None:
            out = dst
        elif lhs_clob:
            out = lhs_r
        else:
            out = self.regs.alloc()
        self._emit(f"v{op_name}{self.sfx} {rhs_op}, %{lhs_r}, %{out}")
        if rhs_t:
            self.regs.release(rhs_op.lstrip("%"))
        if lhs_clob and out != lhs_r:
            self.regs.release(lhs_r)
        return out, dst is None and out != self.carried

    # -- kernel shapes ----------------------------------------------------------

    def _emit_reduction_step(self, u: int) -> None:
        acc = self.acc[u % self.n_acc]
        e = self.k.expr
        if isinstance(e, Load) and self.fold_memory:
            self._emit(f"vadd{self.sfx} {self._mem(e, u)}, %{acc}, %{acc}")
            return
        if isinstance(e, Bin) and e.op == "*":
            if e.lhs == e.rhs:  # sum of squares: one load, squared FMA
                r, r_t = self._eval(e.lhs, u)
                self._emit(f"vfmadd231{self.sfx} %{r}, %{r}, %{acc}")
                if r_t:
                    self.regs.release(r)
                return
            o1, t1, folded = self._operand(e.lhs, u, fold_ok=True)
            o2, t2, _ = self._operand(e.rhs, u, fold_ok=not folded)
            self._emit(f"vfmadd231{self.sfx} {o1}, {o2}, %{acc}")
            for o, is_t in ((o1, t1), (o2, t2)):
                if is_t:
                    self.regs.release(o.lstrip("%"))
            return
        val, clob = self._eval(e, u)
        self._emit(f"vadd{self.sfx} %{val}, %{acc}, %{acc}")
        if clob:
            self.regs.release(val)

    def _emit_body(self, u: int) -> None:
        if self.k.reduction:
            self._emit_reduction_step(u)
        elif isinstance(self.k.expr, Scalar):  # INIT: store a constant
            self._emit(
                f"{self._mov()} %{self.const[self.k.expr.name]}, {self._store_mem(u)}"
            )
        elif self.k.has_carried_dependency:
            assert self.carried is not None
            self._eval(self.k.expr, u, dst=self.carried)
            self._emit(f"{self._mov()} %{self.carried}, {self._store_mem(u)}")
        else:
            val, clob = self._eval(self.k.expr, u)
            self._emit(f"{self._mov()} %{val}, {self._store_mem(u)}")
            if clob:
                self.regs.release(val)

    # -- driver -------------------------------------------------------------------

    def generate(self) -> str:
        self.lines = [".Lloop:"]
        for u in range(self.U):
            self._emit_body(u)
        if self.k.uses_index:
            step = self.const["__step"]
            self._emit(f"vadd{self.sfx} %{step}, %{self.x_reg}, %{self.x_reg}")
        self._emit(f"addq ${self.U * self.V}, %rcx")
        self._emit("cmpq %rdx, %rcx")
        self._emit("jb .Lloop")
        return "\n".join(self.lines) + "\n"
