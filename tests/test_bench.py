"""Bench harness: every table/figure regenerator produces the paper's
shapes (reduced-size where a full run would be slow)."""

import pytest

from repro.bench import (
    EXPERIMENTS,
    fig1,
    fig2,
    fig3,
    fig4,
    render_experiment,
    table1,
    table2,
    table3,
)
from repro.bench.microbench import run_microbenchmarks
from repro.engine import WorkUnit
from repro.kernels import enumerate_corpus


class TestTable1:
    def test_rows(self):
        rows = {r.chip: r for r in table1.run()}
        assert rows["gcs"].cores == 72
        assert rows["spr"].cores == 52
        assert rows["genoa"].cores == 96

    def test_measured_values_near_paper(self):
        for r in table1.run():
            ref = table1.PAPER_REFERENCE[r.chip]
            assert r.bw_measured == pytest.approx(ref["bw_measured"], rel=0.05)
            assert r.achievable_peak_tflops == pytest.approx(
                ref["achievable_peak_tflops"], rel=0.12
            )

    def test_render(self):
        text = table1.render()
        assert "Achiev. DP peak" in text and "GCS" in text


class TestTable2:
    def test_matches_paper(self):
        for r in table2.run():
            ref = table2.PAPER_REFERENCE[r.uarch]
            assert r.ports == ref["ports"]
            assert r.simd_bytes == ref["simd_bytes"]
            assert r.int_units == ref["int_units"]
            assert r.fp_units == ref["fp_units"]
            assert r.loads_per_cycle == ref["loads"]
            assert r.stores_per_cycle == ref["stores"]

    def test_render(self):
        assert "SIMD width" in table2.render()


class TestTable3:
    @pytest.mark.parametrize("chip", ["gcs", "spr", "genoa"])
    def test_microbenchmarks_match_paper(self, chip):
        for r in run_microbenchmarks(chip):
            ref_t, ref_l = table3.PAPER_REFERENCE[chip][r.instruction]
            assert r.throughput_per_cycle == pytest.approx(ref_t, rel=0.10), (
                f"{chip}/{r.instruction} throughput"
            )
            assert r.latency_cycles == pytest.approx(ref_l, rel=0.10), (
                f"{chip}/{r.instruction} latency"
            )

    def test_render(self):
        text = table3.render({c: run_microbenchmarks(c) for c in ("gcs", "spr", "genoa")})
        assert "gather" in text and "vec_fma" in text


class TestFig1:
    def test_render_all_ports(self):
        text = fig1.render()
        assert "17 ports" in text
        for p in ("v0", "l2", "sa1", "m1", "b0"):
            assert f"port {p}" in text

    def test_render_other_uarch(self):
        assert "12 ports" in fig1.render("spr")


class TestFig2:
    def test_full_socket_endpoints(self):
        for s in fig2.run():
            key = (s.chip, s.isa_class)
            if key in fig2.PAPER_REFERENCE:
                assert s.full_socket_ghz == pytest.approx(
                    fig2.PAPER_REFERENCE[key], abs=0.12
                ), key

    def test_series_cover_isa_classes(self):
        chips = {(s.chip, s.isa_class) for s in fig2.run()}
        assert ("spr", "avx512") in chips
        assert ("gcs", "sve") in chips

    def test_render(self):
        assert "sustained frequency" in fig2.render()


class TestFig3Reduced:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3.run(
            machines=("genoa",),
            kernels=("striad", "sum", "pi", "gs2d5pt", "j2d5pt"),
            iterations=60,
        )

    def test_right_side_dominates(self, result):
        s = result.summary("osaca")
        assert s["right_side_fraction"] >= 0.75

    def test_pi_overprediction_present(self, result):
        left = result.left_side_tests("osaca")
        assert any("pi" in t for t in left)

    def test_osaca_beats_mca_globally(self, result):
        assert (
            result.summary("osaca")["global_rpe"]
            < result.summary("mca")["global_rpe"]
        )

    def test_no_osaca_2x_blowups(self, result):
        assert result.summary("osaca")["off_by_2x"] == 0

    def test_render(self, result):
        text = fig3.render(result)
        assert "relative prediction error" in text
        assert "LLVM-MCA baseline" in text


@pytest.mark.parametrize("backends", [None, ("model", "sim")])
def test_fig3_units_match_one_make_per_entry(backends):
    # corpus_units builds each distinct unit once and relabels it for
    # the entries that repeat it; each must equal a unit of its own
    corpus = enumerate_corpus()
    extra = {} if backends is None else {"backends": list(backends)}
    got = fig3.corpus_units(corpus, 50, backends)
    want = [
        WorkUnit.make("corpus", label=e.test_id, uarch=e.uarch,
                      assembly=e.assembly, iterations=50, **extra)
        for e in corpus
    ]
    assert [(u.kind, u.params_json, u.label) for u in got] == [
        (u.kind, u.params_json, u.label) for u in want
    ]


class TestFig4:
    @pytest.fixture(scope="class")
    def series(self):
        return fig4.run(n_points=5, working_set_lines=2048)

    def test_full_socket_ratios(self, series):
        for s in series:
            ref = fig4.PAPER_REFERENCE[(s.chip, s.non_temporal)]
            assert s.full_socket_ratio == pytest.approx(ref, abs=0.05), s.label

    def test_spr_crossover_exists(self, series):
        spr = next(s for s in series if s.chip == "spr" and not s.non_temporal)
        ratios = [p.traffic_ratio for p in spr.points]
        assert max(ratios) > 1.9 and min(ratios) < 1.8

    def test_render(self, series):
        text = fig4.render(series)
        assert "memory traffic" in text
        assert "paper:" in text


class TestRegistry:
    def test_all_experiments_registered(self):
        assert {
            "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4",
            "ext_energy", "ext_scaling", "ext_topdown",
        } <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            render_experiment("fig9")

    @pytest.mark.parametrize("name", ["table1", "table2", "fig1", "fig2"])
    def test_fast_experiments_render(self, name):
        assert render_experiment(name)
