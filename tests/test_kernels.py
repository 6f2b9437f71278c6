"""Kernel IR and the 13-kernel suite."""

import pytest

from repro.kernels.ir import (
    Bin,
    Carried,
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
    walk,
)
from repro.kernels.extended import all_kernels
from repro.kernels.suite import KERNELS, get_kernel


class TestIR:
    def test_operator_overloads(self):
        e = Load("a") + Load("b") * Scalar("s", 2.0)
        assert isinstance(e, Bin) and e.op == "+"
        assert isinstance(e.rhs, Bin) and e.rhs.op == "*"

    def test_bad_operator_raises(self):
        with pytest.raises(ValueError):
            Bin("%", Load("a"), Load("b"))

    def test_count_flops(self):
        e = Load("a") + Load("b") * Scalar("s")
        assert count_flops(e) == 2

    def test_collect_loads_dedup_and_order(self):
        a, b = Load("a"), Load("b")
        e = (a + b) + a
        assert collect_loads(e) == [a, b]

    def test_collect_scalars(self):
        s = Scalar("w", 0.25)
        assert collect_scalars(s * Load("a")) == [s]

    def test_predicates(self):
        assert has_division(Scalar("x") / Load("a"))
        assert not has_division(Load("a") + Load("b"))
        assert has_carried(Carried() + Load("a"))
        assert has_index_value(IndexValue() * IndexValue())

    def test_balanced_sum_flop_count(self):
        terms = [Load("a", i) for i in range(27)]
        assert count_flops(balanced_sum(terms)) == 26

    def test_balanced_sum_depth_logarithmic(self):
        terms = [Load("a", i) for i in range(16)]
        tree = balanced_sum(terms)

        def depth(e):
            if not isinstance(e, Bin):
                return 0
            return 1 + max(depth(e.lhs), depth(e.rhs))

        assert depth(tree) == 4

    def test_balanced_sum_empty_raises(self):
        with pytest.raises(ValueError):
            balanced_sum([])

    def test_walk_preorder(self):
        e = Load("a") + Load("b")
        nodes = list(walk(e))
        assert nodes[0] is e


class TestSuite:
    def test_thirteen_kernels(self):
        assert len(KERNELS) == 13

    def test_expected_names(self):
        assert set(KERNELS) == {
            "add", "copy", "init", "update", "sum", "striad", "sch_triad",
            "pi", "gs2d5pt", "j2d5pt", "j3d7pt", "j3d11pt", "j3d27pt",
        }

    def test_get_kernel_error(self):
        with pytest.raises(ValueError):
            get_kernel("quicksort")

    @pytest.mark.parametrize("name,n_loads", [
        ("add", 2), ("copy", 1), ("init", 0), ("update", 1), ("sum", 1),
        ("striad", 2), ("sch_triad", 3), ("pi", 0), ("gs2d5pt", 3),
        ("j2d5pt", 4), ("j3d7pt", 7), ("j3d11pt", 11), ("j3d27pt", 27),
    ])
    def test_load_counts(self, name, n_loads):
        assert len(collect_loads(KERNELS[name].expr)) == n_loads

    @pytest.mark.parametrize("name,flops", [
        ("add", 1), ("copy", 0), ("update", 1), ("sum", 1),
        ("striad", 2), ("sch_triad", 2),
        ("j2d5pt", 4), ("j3d7pt", 7), ("j3d11pt", 11), ("j3d27pt", 27),
    ])
    def test_flops_per_element(self, name, flops):
        assert KERNELS[name].flops_per_element == flops

    def test_gauss_seidel_not_vectorizable(self):
        k = KERNELS["gs2d5pt"]
        assert not k.vectorizable
        assert k.has_carried_dependency

    def test_reductions_need_fast_math(self):
        assert KERNELS["sum"].needs_fast_math
        assert KERNELS["pi"].needs_fast_math
        assert KERNELS["sum"].reduction == "+"

    def test_pi_uses_index_and_divides(self):
        k = KERNELS["pi"]
        assert k.uses_index
        assert k.has_division
        assert k.store is None

    def test_stencils_have_rows(self):
        rows = {row for _, row in KERNELS["j3d27pt"].arrays}
        assert len(rows) == 9  # 3 j-offsets x 3 k-planes

    def test_store_only_kernel(self):
        k = KERNELS["init"]
        assert k.store == "a"
        assert isinstance(k.expr, Scalar)

    def test_bytes_per_element_with_write_allocate(self):
        # striad: 2 loads + WA store (2x8) = 32 B/elem
        assert KERNELS["striad"].bytes_per_element == 32

    @pytest.mark.parametrize("name", sorted(all_kernels()))
    def test_derived_facts_match_the_tree(self, name):
        k = all_kernels()[name]
        assert k.loads == tuple(collect_loads(k.expr))
        assert k.scalars == tuple(collect_scalars(k.expr))
        assert k.has_division == has_division(k.expr)
        assert k.has_carried_dependency == has_carried(k.expr)
        assert k.uses_index == has_index_value(k.expr)
        assert k.flops_per_element == count_flops(k.expr) + bool(k.reduction)
