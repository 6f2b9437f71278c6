"""Cross-arch comparison helper + direct semantics-table coverage."""

from repro.analysis.compare import compare_architectures
from repro.isa.semantics import x86_semantics
from repro.isa import parse_kernel


class TestCompareArchitectures:
    def test_three_rows(self):
        c = compare_architectures("striad", "O2")
        assert [r["chip"] for r in c.rows] == ["gcs", "spr", "genoa"]

    def test_spr_wins_per_element_on_vector_code(self):
        """The paper's Sec. II expectation: 512-bit registers shine on
        highly vectorized code."""
        c = compare_architectures("striad", "O2")
        assert c.best_by("cycles_per_element") == "spr"

    def test_gcs_wins_latency_bound_code(self):
        """…while the V2's low latencies win Gauss-Seidel-style code."""
        c = compare_architectures("gs2d5pt", "O2")
        assert c.best_by("measured") == "gcs"
        by = {r["chip"]: r for r in c.rows}
        assert by["gcs"]["measured"] * 2 < by["spr"]["measured"] * 1.05

    def test_bottlenecks_labeled(self):
        c = compare_architectures("gs2d5pt", "O2")
        assert all(r["bottleneck"] == "loop-carried dependency" for r in c.rows)

    def test_render(self):
        text = compare_architectures("add", "O2").render()
        assert "GF/s/core" in text and "GCS" in text

    def test_accepts_extended_kernels(self):
        c = compare_architectures("daxpy", "O2")
        assert len(c.rows) == 3


def ops_of(line, isa="x86"):
    i = parse_kernel(line, isa)[0]
    return i


class TestX86SemanticsTable:
    def test_zero_operand_cqo(self):
        acc, r, w = x86_semantics("cqo", ())
        assert "rax" in r and "rdx" in w

    def test_setcc_reads_flags(self):
        i = ops_of("setne %al")
        assert "rflags" in i.register_reads()

    def test_shift_by_cl(self):
        i = ops_of("shlq %cl, %rax")
        assert "rcx" in i.register_reads()
        assert "rax" in i.register_writes()

    def test_not_does_not_write_flags(self):
        i = ops_of("notq %rax")
        assert "rflags" not in i.register_writes()

    def test_vex_blend_reads_all_sources(self):
        i = ops_of("vblendvpd %ymm0, %ymm1, %ymm2, %ymm3")
        assert {"zmm0", "zmm1", "zmm2"} <= set(i.register_reads())
        assert i.register_writes() == ("zmm3",)

    def test_call_touches_stack_pointer(self):
        i = ops_of("call foo")
        assert "rsp" in i.register_writes()

    def test_movnti_is_store_only(self):
        i = ops_of("movnti %rax, (%rbx)")
        assert i.is_store and not i.is_load


class TestA64SemanticsTable:
    def test_ret_is_branch(self):
        i = ops_of("ret", "aarch64")
        assert i.is_branch

    def test_stp_reads_both_data_registers(self):
        i = ops_of("stp x0, x1, [sp, #16]", "aarch64")
        assert {"x0", "x1"} <= set(i.register_reads())

    def test_pre_index_writes_base(self):
        i = ops_of("str q0, [x1, #16]!", "aarch64")
        assert "x1" in i.register_writes()

    def test_fcmp_with_zero_immediate(self):
        i = ops_of("fcmp d0, #0.0", "aarch64")
        assert "nzcv" in i.register_writes()

    def test_ands_writes_dest_and_flags(self):
        i = ops_of("ands x0, x1, x2", "aarch64")
        assert "x0" in i.register_writes()
        assert "nzcv" in i.register_writes()

    def test_zeroing_predication_no_dest_read(self):
        i = ops_of("ld1d z3.d, p0/z, [x0]", "aarch64")
        assert "z3" not in i.register_reads()

    def test_fmov_immediate(self):
        i = ops_of("fmov d0, #1.0", "aarch64")
        assert i.register_writes() == ("z0",)
        assert i.register_reads() == ()

    def test_scvtf_transfer(self):
        i = ops_of("scvtf d0, x1", "aarch64")
        assert i.register_reads() == ("x1",)
        assert i.register_writes() == ("z0",)
