"""Port binding: equal split vs the most balanced binding.

The most balanced binding is checked against a test-only LP reference
(``tests/lp_reference.py``) on every distinct Fig. 3 block: the same
optimum, loads no less balanced, and — unlike the LP — totals and rows
that do not depend on instruction order.
"""

import math
import random

import pytest

from repro.analysis.portbinding import (
    assign_ports_heuristic,
    assign_ports_optimal,
)
from repro.isa import parse_kernel
from repro.kernels import enumerate_corpus
from repro.lowering import assembly_digest, lower
from repro.machine import get_machine_model
from repro.machine.model import InstrEntry, MachineModel, uop

from .lp_reference import lp_port_binding


def make_model(entries):
    return MachineModel(
        name="toy", isa="x86", ports=("A", "B", "C"), entries=entries
    )


def resolved_for(model, asm):
    instrs = parse_kernel(asm, "x86")
    return [model.resolve(i) for i in instrs]


class TestHeuristic:
    def test_equal_split(self):
        m = make_model([InstrEntry("op", "r,r", (uop("A|B"),), latency=1.0)])
        r = resolved_for(m, "op %rax, %rbx")
        p = assign_ports_heuristic(m, r)
        assert p.totals["A"] == pytest.approx(0.5)
        assert p.totals["B"] == pytest.approx(0.5)
        assert p.totals["C"] == 0.0

    def test_occupancy_conserved(self):
        m = get_machine_model("spr")
        r = resolved_for(m, "vaddpd %ymm0, %ymm1, %ymm2\nvmulpd %ymm3, %ymm4, %ymm5\n")
        p = assign_ports_heuristic(m, r)
        total_cycles = sum(u.cycles for res in r for u in res.uops)
        assert sum(p.totals.values()) == pytest.approx(total_cycles)


class TestOptimal:
    def test_lp_beats_naive_split_on_nested_sets(self):
        # one uop restricted to A, one free on A|B: optimal puts the
        # free one fully on B (max 1.0); equal split gives A = 1.5.
        m = make_model([
            InstrEntry("opa", "r,r", (uop("A"),), latency=1.0),
            InstrEntry("opb", "r,r", (uop("A|B"),), latency=1.0),
        ])
        r = resolved_for(m, "opa %rax, %rbx\nopb %rax, %rbx")
        heur = assign_ports_heuristic(m, r)
        opt = assign_ports_optimal(m, r)
        assert heur.max_pressure == pytest.approx(1.5)
        assert opt.max_pressure == pytest.approx(1.0)

    def test_lp_never_worse_than_heuristic(self):
        m = get_machine_model("zen4")
        asm = """
        vaddpd %ymm0, %ymm1, %ymm2
        vmulpd %ymm3, %ymm4, %ymm5
        vfmadd231pd %ymm6, %ymm7, %ymm8
        vmovupd (%rax), %ymm9
        vmovupd %ymm9, (%rbx)
        addq $8, %rcx
        """
        r = resolved_for(m, asm)
        assert (
            assign_ports_optimal(m, r).max_pressure
            <= assign_ports_heuristic(m, r).max_pressure + 1e-9
        )

    def test_lp_occupancy_conserved(self):
        m = get_machine_model("spr")
        r = resolved_for(m, "vaddpd %ymm0, %ymm1, %ymm2\naddq $1, %rax\n")
        p = assign_ports_optimal(m, r)
        total_cycles = sum(u.cycles for res in r for u in res.uops)
        assert sum(p.totals.values()) == pytest.approx(total_cycles)

    def test_empty_block(self):
        m = get_machine_model("spr")
        p = assign_ports_optimal(m, [])
        assert p.max_pressure == 0.0
        assert p.bottleneck_ports == ()

    def test_per_instruction_breakdown_sums(self):
        m = get_machine_model("spr")
        r = resolved_for(m, "vfmadd231pd (%rax), %ymm1, %ymm2\n")
        p = assign_ports_optimal(m, r)
        per = sum(sum(d.values()) for d in p.per_instruction)
        assert per == pytest.approx(sum(p.totals.values()))

    def test_known_throughput_spr_fma(self):
        # 4 zmm FMAs on 2 ports => exactly 2.0 cycles pressure
        m = get_machine_model("spr")
        asm = "\n".join(
            f"vfmadd231pd %zmm1, %zmm2, %zmm{d}" for d in range(4, 8)
        )
        r = resolved_for(m, asm)
        assert assign_ports_optimal(m, r).max_pressure == pytest.approx(2.0)

    def test_multi_cycle_uops(self):
        m = make_model([InstrEntry("slow", "r,r", (uop("A|B", cycles=3.0),), latency=3.0)])
        r = resolved_for(m, "slow %rax, %rbx\nslow %rax, %rbx")
        assert assign_ports_optimal(m, r).max_pressure == pytest.approx(3.0)

    def test_method_labels(self):
        m = get_machine_model("spr")
        r = resolved_for(m, "addq $1, %rax\n")
        assert assign_ports_optimal(m, r).method == "optimal"
        assert assign_ports_heuristic(m, r).method == "heuristic"


def lex_leq(loads, reference, tol=1e-9):
    """``loads`` sorted descending is lexicographically <= ``reference``."""
    for a, b in zip(sorted(loads, reverse=True), sorted(reference, reverse=True)):
        if a < b - tol:
            return True
        if a > b + tol:
            return False
    return True


def assert_rows_consistent(p, model, resolved, tol=1e-9):
    """Rows sum to their µop cycles on candidate ports, and to totals."""
    for r, row in zip(resolved, p.per_instruction):
        assert set(row) <= {q for u in r.uops for q in u.ports}
        cycles = math.fsum(u.cycles for u in r.uops)
        assert math.fsum(row.values()) == pytest.approx(cycles, rel=tol, abs=tol)
    for q in model.ports:
        column = math.fsum(row.get(q, 0.0) for row in p.per_instruction)
        assert column == pytest.approx(p.totals[q], rel=tol, abs=tol)


@pytest.fixture(scope="module")
def fig3_blocks():
    """The 153 distinct lowered blocks of the Fig. 3 corpus."""
    seen, out = set(), []
    for e in enumerate_corpus():
        key = (assembly_digest(e.assembly), e.uarch)
        if key not in seen:
            seen.add(key)
            out.append(lower(e.assembly, e.uarch))
    assert len(out) == 153
    return out


class TestMostBalanced:
    def test_spreads_the_free_ports(self):
        # the bound is 2.0 on A either way; the most balanced binding
        # also spreads the A|B|C µops evenly over B and C
        m = make_model([
            InstrEntry("opa", "r,r", (uop("A"),), latency=1.0),
            InstrEntry("opf", "r,r", (uop("A|B|C"),), latency=1.0),
        ])
        r = resolved_for(m, "opa %rax, %rbx\nopa %rax, %rbx\nopf %rax, %rbx")
        p = assign_ports_optimal(m, r)
        assert p.totals == {"A": 2.0, "B": 0.5, "C": 0.5}
        assert p.bottleneck_ports == ("A",)
        assert p.per_instruction[2] == {"B": 0.5, "C": 0.5}

    def test_bottleneck_ports_are_the_densest_set(self):
        m = make_model([
            InstrEntry("opa", "r,r", (uop("A|B"),), latency=1.0),
            InstrEntry("opc", "r,r", (uop("C"),), latency=1.0),
        ])
        r = resolved_for(m, "opa %rax, %rbx\nopa %rax, %rbx\nopa %rax, %rbx")
        assert assign_ports_optimal(m, r).bottleneck_ports == ("A", "B")
        assert assign_ports_heuristic(m, r).bottleneck_ports == ("A", "B")

    def test_permuting_the_body_changes_nothing(self, fig3_blocks):
        rng = random.Random(1980)
        for b in fig3_blocks:
            p = assign_ports_optimal(b.model, b.resolved)
            order = list(range(len(b.resolved)))
            for perm in (order[::-1], rng.sample(order, len(order))):
                q = assign_ports_optimal(b.model, [b.resolved[k] for k in perm])
                assert q.totals == p.totals
                assert q.bottleneck_ports == p.bottleneck_ports
                assert [q.per_instruction[perm.index(k)] for k in order] == (
                    p.per_instruction
                )

    def test_bound_matches_lp(self, fig3_blocks):
        for b in fig3_blocks:
            p = assign_ports_optimal(b.model, b.resolved)
            lp = lp_port_binding(b.model, b.resolved)
            assert p.max_pressure == pytest.approx(lp.max_pressure, rel=1e-12)

    def test_no_less_balanced_than_lp(self, fig3_blocks):
        for b in fig3_blocks:
            p = assign_ports_optimal(b.model, b.resolved)
            lp = lp_port_binding(b.model, b.resolved)
            assert lex_leq(p.totals.values(), lp.totals.values())

    def test_rows_consistent(self, fig3_blocks):
        for b in fig3_blocks:
            assert_rows_consistent(
                assign_ports_optimal(b.model, b.resolved), b.model, b.resolved
            )
