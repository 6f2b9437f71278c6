"""AArch64 kernel emitter (NEON and SVE styles).

**NEON style** (armclang persona): pointer-bumped streams with
immediate-offset ``ldr q``/``ldur q`` loads, ``fadd/fmul/fmla v.2d``
arithmetic, unrolling by replicating the body at shifted displacements,
and a ``subs``/``b.ne`` counted loop.

**SVE style** (gcc persona, VL = 128 bit on Neoverse V2): a
``whilelo``-predicated loop over an element index, gather-free
``ld1d``/``st1d`` with ``[base, xidx, lsl #3]`` addressing, and
predicated arithmetic.  Stencil neighbours get their own pre-shifted
base pointers because the indexed form carries no displacement —
exactly what GCC emits.

Register conventions (set up outside the measured block):

=============  =====================================================
``x0``         store-stream pointer
``x1``–…       load-stream pointers
``x13/x14``    SVE element index / loop limit
``x15``        NEON down-counter
``v/z 0–7``    temporaries
``8–11``       accumulators / Gauss-Seidel carried value
``12``         π induction vector, ``13–15`` constants
``p0``         SVE loop predicate
=============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import Bin, Carried, Expr, IndexValue, Load, Scalar
from ..personas import CompilerPersona
from ..suite import KernelSpec

# x0 is the store pointer; x13/x14/x15 are loop bookkeeping.  Under high
# pointer pressure (the 27-point stencil in SVE form) compilers spill
# into x29/x30 with -fomit-frame-pointer — so do we.
_PTR_POOL = (
    [f"x{i}" for i in range(1, 13)]
    + [f"x{i}" for i in range(16, 29)]
    + ["x29", "x30"]
)


class _RegFile:
    def __init__(self):
        self.free = list(range(8))

    def alloc(self) -> int:
        if not self.free:
            raise RuntimeError("aarch64 emitter ran out of vector temporaries")
        return self.free.pop(0)

    def release(self, idx: int) -> None:
        if idx < 8 and idx not in self.free:
            self.free.insert(0, idx)
            self.free.sort()


@dataclass(frozen=True)
class AArch64Spec:
    """Every choice the AArch64 emitter makes besides the kernel itself.

    Two blocks of one kernel with equal specs are the same text, so a
    caller that emits many blocks can emit each distinct spec once.
    """

    precision: str
    vector: bool
    #: SVE style (only for vector code); NEON otherwise
    sve: bool
    unroll: int
    #: reduction accumulators (0 for a kernel that is not a reduction)
    n_acc: int
    gs_move_chain: bool


def aarch64_spec(kernel: KernelSpec, persona: CompilerPersona, opt: str,
                 precision: str = "dp") -> AArch64Spec:
    """The choices one persona makes for one kernel at one opt level."""
    if precision not in ("dp", "sp"):
        raise ValueError("precision must be 'dp' or 'sp'")
    cfg = persona.config(opt)
    vector = (
        cfg.vectorize
        and kernel.vectorizable
        and (not kernel.needs_fast_math or cfg.fast_math)
    )
    sve = vector and persona.vector_style == "sve"
    unroll = 1 if (kernel.uses_index or kernel.has_carried_dependency or sve) else (
        cfg.unroll if vector else 1
    )
    return AArch64Spec(
        precision=precision,
        vector=vector,
        sve=sve,
        unroll=unroll,
        n_acc=(
            max(1, min(cfg.n_accumulators, 4 if sve else unroll))
            if kernel.reduction
            else 0
        ),
        gs_move_chain=persona.gs_move_chain,
    )


class AArch64Emitter:
    """Lower one kernel under one :class:`AArch64Spec`."""

    def __init__(self, kernel: KernelSpec, spec: AArch64Spec):
        self.k = kernel
        self.precision = spec.precision
        self.ebytes = 8 if spec.precision == "dp" else 4
        self.vector = spec.vector
        self.sve = spec.sve
        self.gs_move_chain = spec.gs_move_chain
        self.V = (16 // self.ebytes) if self.vector else 1
        self.U = spec.unroll
        self.n_acc = spec.n_acc
        self.regs = _RegFile()
        self.lines: list[str] = []
        self._assign_registers()

    # ------------------------------------------------------------------

    def _assign_registers(self) -> None:
        # SVE indexed addressing has no displacement field, so every
        # distinct (array, row, offset) needs a pre-shifted pointer;
        # NEON folds offsets into load displacements per (array, row).
        self.ptr: dict[tuple, str] = {}
        pool = iter(_PTR_POOL)
        if self.k.store:
            self.ptr[self._stream(Load(self.k.store, 0, 0))] = "x0"
        for ld in self.k.loads:
            key = self._stream(ld)
            if key not in self.ptr:
                self.ptr[key] = next(pool)
        self.const: dict[str, int] = {}
        idx = 15
        for s in self.k.scalars:
            self.const[s.name] = idx
            idx -= 1
        if self.k.uses_index:
            self.const["__step"] = idx
            idx -= 1
            self.x_reg = 12
        self.acc = list(range(8, 8 + self.n_acc))
        self.carried = 8 if self.k.has_carried_dependency else None

    def _stream(self, ld: Load) -> tuple:
        if self.sve:
            return (ld.array, ld.row, ld.offset)
        return (ld.array, ld.row)

    # -- operand text ----------------------------------------------------------

    def _v(self, idx: int) -> str:
        e = "d" if self.precision == "dp" else "s"
        if self.sve:
            return f"z{idx}.{e}"
        if self.vector:
            return f"v{idx}.2d" if self.precision == "dp" else f"v{idx}.4s"
        return f"{e}{idx}"

    def _emit(self, text: str) -> None:
        self.lines.append(f"    {text}")

    def _emit_load(self, ld: Load, u: int, dst: int) -> None:
        e = "d" if self.precision == "dp" else "w"
        shift = 3 if self.precision == "dp" else 2
        if self.sve:
            base = self.ptr[(ld.array, ld.row, ld.offset)]
            self._emit(
                f"ld1{e} z{dst}.{'d' if e == 'd' else 's'}, p0/z, "
                f"[{base}, x13, lsl #{shift}]"
            )
            return
        base = self.ptr[(ld.array, ld.row)]
        disp = (ld.offset + u * self.V) * self.ebytes
        if self.vector:
            mn = "ldr" if disp % 16 == 0 and disp >= 0 else "ldur"
            self._emit(f"{mn} q{dst}, [{base}, #{disp}]" if disp else f"{mn} q{dst}, [{base}]")
        else:
            sreg = "d" if self.precision == "dp" else "s"
            mn = "ldr" if disp >= 0 else "ldur"
            self._emit(f"{mn} {sreg}{dst}, [{base}, #{disp}]" if disp else f"{mn} {sreg}{dst}, [{base}]")

    def _emit_store(self, src: int, u: int) -> None:
        if self.sve:
            e = "d" if self.precision == "dp" else "w"
            shift = 3 if self.precision == "dp" else 2
            arr = "d" if self.precision == "dp" else "s"
            self._emit(f"st1{e} z{src}.{arr}, p0, [x0, x13, lsl #{shift}]")
            return
        disp = u * self.V * self.ebytes
        if self.vector:
            mn = "str" if disp % 16 == 0 else "stur"
            self._emit(f"{mn} q{src}, [x0, #{disp}]" if disp else f"{mn} q{src}, [x0]")
        else:
            sreg = "d" if self.precision == "dp" else "s"
            self._emit(f"{sreg and 'str'} {sreg}{src}, [x0, #{disp}]" if disp else f"str {sreg}{src}, [x0]")

    # -- expression evaluation ---------------------------------------------------

    def _leaf(self, e: Expr, u: int) -> tuple[int, bool]:
        if isinstance(e, Load):
            t = self.regs.alloc()
            self._emit_load(e, u, t)
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
        if e.op != "+":
            return None
        if isinstance(e.rhs, Bin) and e.rhs.op == "*":
            return e.lhs, e.rhs.lhs, e.rhs.rhs
        if isinstance(e.lhs, Bin) and e.lhs.op == "*":
            return e.rhs, e.lhs.lhs, e.lhs.rhs
        return None

    def _eval(self, e: Expr, u: int, dst: int | None = None) -> tuple[int, bool]:
        if not isinstance(e, Bin):
            r, clob = self._leaf(e, u)
            if dst is not None and r != dst:
                self._emit(self._move(dst, r))
                if clob:
                    self.regs.release(r)
                return dst, False
            return r, clob

        fma = self._fma_parts(e)
        if fma is not None:
            addend, m1, m2 = fma
            # evaluate the multiply operands before materializing the
            # addend copy: the deep Horner-style chains would otherwise
            # hold one live temporary per nesting level
            if not self.vector:
                # scalar fmadd has a separate destination
                b, b_c = self._eval(m1, u)
                c, c_c = self._eval(m2, u)
                a, a_c = self._eval(addend, u)
                out = dst if dst is not None else (
                    a if a_c else (b if b_c else self.regs.alloc())
                )
                sr = "d" if self.precision == "dp" else "s"
                self._emit(f"fmadd {sr}{out}, {sr}{b}, {sr}{c}, {sr}{a}")
                for r, is_c in ((a, a_c), (b, b_c), (c, c_c)):
                    if is_c and r != out:
                        self.regs.release(r)
                return out, dst is None
            b, b_c = self._eval(m1, u)
            c, c_c = self._eval(m2, u)
            a, a_c = self._eval(addend, u)
            if dst is not None:
                if a != dst:
                    self._emit(self._move(dst, a))
                    if a_c:
                        self.regs.release(a)
                    a = dst
            elif not a_c:
                t = self.regs.alloc()
                self._emit(self._move(t, a))
                a = t
            if self.sve:
                arr = "d" if self.precision == "dp" else "s"
                self._emit(f"fmla z{a}.{arr}, p0/m, z{b}.{arr}, z{c}.{arr}")
            else:
                self._emit(f"fmla v{a}.2d, v{b}.2d, v{c}.2d")
            for r, is_c in ((b, b_c), (c, c_c)):
                if is_c:
                    self.regs.release(r)
            return a, dst is None

        name = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}[e.op]
        if e.lhs == e.rhs and e.op != "/":
            # identical operands (x*x): evaluate once
            lhs, lhs_c = self._eval(e.lhs, u)
            out = dst if dst is not None else (
                lhs if lhs_c else self.regs.alloc()
            )
            self._emit(f"{name} {self._v(out)}, {self._v(lhs)}, {self._v(lhs)}")
            if lhs_c and out != lhs:
                self.regs.release(lhs)
            return out, dst is None
        lhs, lhs_c = self._eval(e.lhs, u)
        rhs, rhs_c = self._eval(e.rhs, u)
        if e.op == "/" and self.sve:
            # SVE divide is predicated and destructive: movprfx + fdiv
            out = dst if dst is not None else (lhs if lhs_c else self.regs.alloc())
            if out != lhs:
                self._emit(f"movprfx z{out}, z{lhs}")
            arr = "d" if self.precision == "dp" else "s"
            self._emit(f"fdiv z{out}.{arr}, p0/m, z{out}.{arr}, z{rhs}.{arr}")
        else:
            out = dst if dst is not None else (
                lhs if lhs_c else (rhs if rhs_c else self.regs.alloc())
            )
            self._emit(f"{name} {self._v(out)}, {self._v(lhs)}, {self._v(rhs)}")
        for r, is_c in ((lhs, lhs_c), (rhs, rhs_c)):
            if is_c and r != out:
                self.regs.release(r)
        return out, dst is None

    def _move(self, dst: int, src: int) -> str:
        if self.sve:
            arr = "d" if self.precision == "dp" else "s"
            return f"mov z{dst}.{arr}, z{src}.{arr}"
        if self.vector:
            return f"mov v{dst}.16b, v{src}.16b"
        sr = "d" if self.precision == "dp" else "s"
        return f"fmov {sr}{dst}, {sr}{src}"

    # -- kernel shapes --------------------------------------------------------------

    def _emit_reduction_step(self, u: int) -> None:
        acc = self.acc[u % self.n_acc]
        e = self.k.expr
        if isinstance(e, Bin) and e.op == "*":
            if e.lhs == e.rhs:  # sum of squares: one load, squared FMA
                b, b_c = self._eval(e.lhs, u)
                c, c_c = b, False
            else:
                b, b_c = self._eval(e.lhs, u)
                c, c_c = self._eval(e.rhs, u)
            if self.sve:
                arr = "d" if self.precision == "dp" else "s"
                self._emit(f"fmla z{acc}.{arr}, p0/m, z{b}.{arr}, z{c}.{arr}")
            elif self.vector:
                self._emit(f"fmla v{acc}.2d, v{b}.2d, v{c}.2d")
            else:
                self._emit(f"fmadd d{acc}, d{b}, d{c}, d{acc}")
            for r, is_c in ((b, b_c), (c, c_c)):
                if is_c:
                    self.regs.release(r)
            return
        val, clob = self._eval(e, u)
        if self.sve:
            arr = "d" if self.precision == "dp" else "s"
            self._emit(f"fadd z{acc}.{arr}, p0/m, z{acc}.{arr}, z{val}.{arr}")
        else:
            self._emit(f"fadd {self._v(acc)}, {self._v(acc)}, {self._v(val)}")
        if clob:
            self.regs.release(val)

    def _emit_body(self, u: int) -> None:
        if self.k.reduction:
            self._emit_reduction_step(u)
        elif isinstance(self.k.expr, Scalar):  # INIT
            self._emit_store(self.const[self.k.expr.name], u)
        elif self.k.has_carried_dependency:
            assert self.carried is not None
            if self.gs_move_chain:
                val, clob = self._eval(self.k.expr, u)
                self._emit_store(val, u)
                sr = "d" if self.precision == "dp" else "s"
                self._emit(f"fmov {sr}{self.carried}, {sr}{val}")
                if clob:
                    self.regs.release(val)
            else:
                self._eval(self.k.expr, u, dst=self.carried)
                self._emit_store(self.carried, u)
        else:
            val, clob = self._eval(self.k.expr, u)
            self._emit_store(val, u)
            if clob:
                self.regs.release(val)

    # -- driver -----------------------------------------------------------------------

    def generate(self) -> str:
        self.lines = [".Lloop:"]
        for u in range(self.U):
            self._emit_body(u)
        if self.k.uses_index:
            step = self.const["__step"]
            if self.sve:
                arr = "d" if self.precision == "dp" else "s"
                self._emit(f"fadd z{self.x_reg}.{arr}, z{self.x_reg}.{arr}, z{step}.{arr}")
            else:
                self._emit(
                    f"fadd {self._v(self.x_reg)}, {self._v(self.x_reg)}, {self._v(step)}"
                )
        if self.sve:
            if self.precision == "dp":
                self._emit("incd x13")
                self._emit("whilelo p0.d, x13, x14")
            else:
                self._emit("incw x13")
                self._emit("whilelo p0.s, x13, x14")
            self._emit("b.any .Lloop")
        else:
            step_bytes = self.U * self.V * 8
            for base in sorted(set(self.ptr.values()), key=lambda x: int(x[1:])):
                self._emit(f"add {base}, {base}, #{step_bytes}")
            self._emit(f"subs x15, x15, #{self.U * self.V}")
            self._emit("b.ne .Lloop")
        return "\n".join(self.lines) + "\n"
