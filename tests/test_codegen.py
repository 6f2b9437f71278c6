"""Code generation: emitted assembly is valid and faithful to the kernel."""

import pytest

import repro.kernels.ir
from repro.isa import parse_kernel
from repro.kernels import (
    EXTENDED_KERNELS,
    KERNELS,
    OPT_LEVELS,
    PERSONAS,
    enumerate_corpus,
    generate_assembly,
    personas_for_isa,
)
from repro.kernels.codegen import AArch64Emitter, X86Emitter
from repro.kernels.ir import collect_loads
from repro.machine import get_machine_model


def gen(kernel, persona, opt, uarch="golden_cove"):
    return generate_assembly(kernel, persona, opt, uarch)


def parsed(kernel, persona, opt, uarch="golden_cove"):
    isa = "aarch64" if uarch == "neoverse_v2" else "x86"
    return parse_kernel(gen(kernel, persona, opt, uarch), isa)


ALL_X86 = [(k, p, o) for k in KERNELS for p in ("gcc", "clang", "icx") for o in OPT_LEVELS]
ALL_A64 = [(k, p, o) for k in KERNELS for p in ("gcc-arm", "armclang") for o in OPT_LEVELS]


class TestWellFormed:
    @pytest.mark.parametrize("kernel,persona,opt", ALL_X86)
    def test_x86_parses_and_resolves(self, kernel, persona, opt):
        model = get_machine_model("golden_cove")
        instrs = parse_kernel(gen(kernel, persona, opt), "x86")
        assert instrs, "empty codegen output"
        for i in instrs:
            assert not model.resolve(i).from_default, f"unknown form: {i}"

    @pytest.mark.parametrize("kernel,persona,opt", ALL_A64)
    def test_aarch64_parses_and_resolves(self, kernel, persona, opt):
        model = get_machine_model("neoverse_v2")
        instrs = parse_kernel(gen(kernel, persona, opt, "neoverse_v2"), "aarch64")
        assert instrs, "empty codegen output"
        for i in instrs:
            assert not model.resolve(i).from_default, f"unknown form: {i}"

    @pytest.mark.parametrize("kernel,persona,opt", ALL_X86)
    def test_ends_with_backward_branch(self, kernel, persona, opt):
        instrs = parsed(kernel, persona, opt)
        assert instrs[-1].is_branch


class TestSemanticFidelity:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_load_count_matches_kernel(self, kernel):
        """Vectorized, unroll-1 code has exactly one load per kernel load."""
        k = KERNELS[kernel]
        instrs = parsed(kernel, "gcc", "O2")
        n_loads = sum(i.is_load for i in instrs)
        expected = len(collect_loads(k.expr))
        assert n_loads == expected

    @pytest.mark.parametrize("kernel", [k for k in KERNELS if KERNELS[k].store])
    def test_store_present(self, kernel):
        instrs = parsed(kernel, "gcc", "O2")
        assert sum(i.is_store for i in instrs) >= 1

    def test_reduction_has_no_store(self):
        instrs = parsed("sum", "gcc", "O2")
        assert not any(i.is_store for i in instrs)

    def test_unroll_multiplies_body(self):
        u1 = parsed("add", "gcc", "O2")      # unroll 1
        u4 = parsed("add", "clang", "O3")    # unroll 4
        assert sum(i.is_store for i in u4) == 4 * sum(i.is_store for i in u1)

    def test_ofast_reduction_uses_multiple_accumulators(self):
        instrs = parsed("sum", "clang", "Ofast", "zen4")
        dests = {i.register_writes()[0] for i in instrs if i.is_load or
                 (i.register_writes() and i.mnemonic.startswith("vadd"))}
        accs = {d for d in dests if d.startswith("zmm") and int(d[3:]) >= 8}
        assert len(accs) == 4

    def test_o2_reduction_stays_scalar_without_fast_math(self):
        instrs = parsed("sum", "gcc", "O2")
        assert any(i.mnemonic == "vaddsd" for i in instrs)

    def test_ofast_vectorizes_reduction(self):
        instrs = parsed("sum", "gcc", "Ofast")
        assert any(i.mnemonic == "vaddpd" for i in instrs)

    def test_fma_contraction_in_triad(self):
        instrs = parsed("striad", "gcc", "O2")
        assert any(i.mnemonic.startswith("vfmadd") for i in instrs)

    def test_gauss_seidel_always_scalar(self):
        for opt in OPT_LEVELS:
            instrs = parsed("gs2d5pt", "icx", opt)
            assert not any("pd" == i.mnemonic[-2:] for i in instrs if i.is_vector)

    def test_gcc_width_differs_by_uarch(self):
        spr = gen("add", "gcc", "O2", "golden_cove")
        zen = gen("add", "gcc", "O2", "zen4")
        assert "zmm" in spr and "zmm" not in zen
        assert "ymm" in zen

    def test_pi_scalar_until_ofast(self):
        o2 = gen("pi", "gcc", "O2")
        ofast = gen("pi", "gcc", "Ofast")
        assert "vdivsd" in o2
        assert "vdivpd" in ofast


class TestAArch64Styles:
    def test_gcc_arm_uses_sve(self):
        asm = gen("add", "gcc-arm", "O2", "neoverse_v2")
        assert "ld1d" in asm and "whilelo" in asm and "incd" in asm

    def test_armclang_uses_neon(self):
        asm = gen("add", "armclang", "O2", "neoverse_v2")
        assert "ldr q" in asm and "v0.2d" in asm
        assert "whilelo" not in asm

    def test_neon_pointer_bumps(self):
        instrs = parsed("add", "armclang", "O2", "neoverse_v2")
        bumps = [i for i in instrs if i.mnemonic == "add"]
        # three streams: a, b, and the store pointer
        assert len(bumps) == 3

    def test_gs_move_chain_only_for_armclang(self):
        clang_asm = gen("gs2d5pt", "armclang", "O2", "neoverse_v2")
        gcc_asm = gen("gs2d5pt", "gcc-arm", "O2", "neoverse_v2")
        assert "fmov" in clang_asm
        assert "fmov" not in gcc_asm

    def test_sve_27pt_stencil_fits_registers(self):
        # heaviest pointer-pressure case must still generate
        instrs = parsed("j3d27pt", "gcc-arm", "O2", "neoverse_v2")
        assert sum(i.is_load for i in instrs) == 27

    def test_scalar_path_on_o1(self):
        asm = gen("striad", "armclang", "O1", "neoverse_v2")
        assert "d0" in asm and ".2d" not in asm


class TestPersonas:
    def test_isa_split_matches_paper_toolchains(self):
        assert len(personas_for_isa("x86")) == 3
        assert len(personas_for_isa("aarch64")) == 2

    def test_unknown_opt_level(self):
        with pytest.raises(ValueError):
            PERSONAS["gcc"].config("O9")

    def test_persona_isa_mismatch_raises(self):
        with pytest.raises(ValueError):
            generate_assembly("add", "gcc", "O2", "neoverse_v2")
        with pytest.raises(ValueError):
            generate_assembly("add", "armclang", "O2", "zen4")


def test_repeat_enumeration_walks_no_tree(monkeypatch):
    # each kernel's IR facts are derived once per spec: the emitters
    # read them instead of walking the expression tree per block
    first = enumerate_corpus()
    calls = []
    walk = repro.kernels.ir.walk

    def counting(expr):
        calls.append(expr)
        return walk(expr)

    monkeypatch.setattr(repro.kernels.ir, "walk", counting)
    assert enumerate_corpus() == first
    assert calls == []


@pytest.mark.parametrize(
    "kwargs,runs",
    [({}, 130), ({"precision": "sp"}, 130),
     ({"kernels": tuple(EXTENDED_KERNELS)}, 110)],
    ids=["dp", "sp", "extended"],
)
def test_repeat_enumeration_emits_each_distinct_spec_once(
    monkeypatch, kwargs, runs
):
    # 416 entries (352 extended) share 130 (110) emitter specs: each is
    # emitted once per call, and no call reuses another's output
    first = enumerate_corpus(**kwargs)
    calls = []
    for cls in (X86Emitter, AArch64Emitter):
        def counting(self, generate=cls.generate):
            calls.append(self)
            return generate(self)

        monkeypatch.setattr(cls, "generate", counting)
    assert enumerate_corpus(**kwargs) == first
    assert len(calls) == runs


@pytest.mark.parametrize(
    "persona,uarch", [("gcc", "grace"), ("gcc-arm", "neoverse-v2")]
)
def test_unknown_uarch_is_rejected_by_name(persona, uarch):
    # a chip alias or a misspelling names no emitter target: it must not
    # fall through to the x86 emitter
    with pytest.raises(ValueError) as err:
        generate_assembly("add", persona, "O2", uarch)
    for known in ("golden_cove", "neoverse_v2", "zen4"):
        assert known in str(err.value)
