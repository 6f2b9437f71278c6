import json

from perfbench import ROOT
from perfbench.compare import classify, compare, main
from perfbench.layers import PER_LAYER
from perfbench.metrics import END_TO_END, Metric, load_benchmark, metric_table

LOWER = Metric("latency_p50_ms", "ms", "lower", 0.1)
HIGHER = Metric("units_per_s", "units/s", "higher", 0.1)


def spread(center: float, n: int = 10, step: float = 0.002) -> list[float]:
    """n values within ±1% of center."""
    return [center * (1 + step * (i - n / 2)) for i in range(n)]


def test_same_runs_are_unchanged():
    a = spread(100.0)
    assert classify(LOWER, a, list(a))[0] == "unchanged"


def test_worse_median_beyond_the_bound_regresses():
    assert classify(LOWER, spread(100.0), spread(115.0))[0] == "regressed"
    assert classify(HIGHER, spread(100.0), spread(85.0))[0] == "regressed"
    # within the bound it is no regression
    assert classify(LOWER, spread(100.0), spread(105.0))[0] == "unchanged"


def test_improvement_needs_nine_wins_in_ten_and_a_gap_beyond_the_iqr():
    a = spread(100.0)
    verdict, wins, pairs = classify(LOWER, a, spread(90.0))
    assert (verdict, wins, pairs) == ("improved", 10, 10)
    # only 5 pairs: too few to claim a gain
    assert classify(LOWER, a[:5], spread(90.0, 5))[0] == "unchanged"
    # B wins 8 of 10 pairs: not enough
    b = spread(90.0)
    b[0], b[1] = 101.0, 101.0
    assert classify(LOWER, a, b)[0] == "unchanged"
    # a gap smaller than A's IQR: not a gain
    wide = [90.0, 110.0] * 5
    assert classify(Metric("x", "ms", "lower", 0.5), wide, [w - 1 for w in wide])[0] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [80.0, 120.0, 95.0, 105.0, 70.0, 130.0, 100.0, 90.0, 110.0, 100.0]
    assert classify(LOWER, noisy, [v * 1.02 for v in noisy])[0] == "unresolved"
    # unless every run of B reads better than every run of A
    assert classify(LOWER, noisy, [v / 3 for v in noisy])[0] == "improved"


def test_error_rate_bound_is_absolute_zero():
    err = Metric("error_rate", "ratio", "lower", 0.0, absolute=True)
    assert classify(err, [0.0] * 5, [0.0] * 5)[0] == "unchanged"
    assert classify(err, [0.0] * 5, [0.01] * 5)[0] == "regressed"


def test_compare_rows_and_failed_share(tmp_path, capsys):
    def results(scale: float, failed: int) -> dict:
        return {
            "schema": "perfbench-results/1",
            "workloads": {"corpus_cold": [
                {"metrics": {"units_per_s": 70.0 * scale * (1 + i / 1000),
                             "error_rate": 0.0},
                 "attempted": 416, "failed": failed}
                for i in range(5)
            ]},
        }

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(results(1.0, 0)))
    b.write_text(json.dumps(results(0.5, 0)))
    rows = compare(json.loads(a.read_text()), json.loads(b.read_text()))
    assert {r.metric.name: r.verdict for r in rows} == {
        "units_per_s": "regressed", "error_rate": "unchanged",
    }
    assert main(a, b) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "corpus_cold: failed ops A 0.0000, B 0.0000" in out
    assert main(a, a) == 0


def test_benchmark_json_matches_the_metric_tables():
    bench = load_benchmark(ROOT / "BENCHMARK.json")
    assert [
        (e["name"], e["unit"], e["better"], e["bound"]) for e in bench["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert {e["name"]: e["unit"] for e in bench["per_layer"]} == PER_LAYER
    assert bench["paths"] == ["perfbench"]
    assert metric_table(bench)["setup_s"].bound == max(m.bound for m in END_TO_END)
