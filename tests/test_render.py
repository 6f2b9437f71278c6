"""ASCII rendering helpers."""

from repro.bench.render import ascii_histogram, ascii_series, ascii_table


class TestTable:
    def test_alignment_and_rule(self):
        text = ascii_table(["a", "long_header"], [["x", "1"], ["yy", "22"]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_title(self):
        assert ascii_table(["h"], [["v"]], title="T").splitlines()[0] == "T"

    def test_column_width_grows_with_data(self):
        text = ascii_table(["h"], [["wide-value-here"]])
        assert "wide-value-here" in text

    def test_non_string_cells(self):
        text = ascii_table(["n"], [[42], [3.5]])
        assert "42" in text and "3.5" in text


class TestHistogram:
    def test_bucket_counts(self):
        values = [0.05] * 10 + [0.15] * 5 + [-0.05] * 3
        text = ascii_histogram(values)
        assert "   10 " in text
        assert "    5 " in text
        assert "    3 " in text

    def test_underflow_bucket(self):
        text = ascii_histogram([-2.0, -1.5, 0.0])
        underflow = text.splitlines()[1]
        assert underflow.strip().startswith("< -1.0")
        assert " 2 " in underflow + " "

    def test_zero_line_marker(self):
        assert "<-- 0" in ascii_histogram([0.05])

    def test_bar_scaling(self):
        text = ascii_histogram([0.05] * 100, width=50)
        bar_line = next(l for l in text.splitlines() if "#" in l)
        assert bar_line.count("#") == 50

    def test_empty_values(self):
        # no values: all-zero buckets, no crash
        text = ascii_histogram([])
        assert "bucket" in text


class TestSeries:
    def test_plots_points_and_legend(self):
        text = ascii_series({"up": [(0, 0.0), (10, 10.0)]}, width=20, height=8)
        assert "o = up" in text
        assert "o" in text.splitlines()[1] or any(
            "o" in l for l in text.splitlines()
        )

    def test_multiple_series_symbols(self):
        text = ascii_series(
            {"a": [(0, 1.0)], "b": [(1, 2.0)]}, width=10, height=5
        )
        assert "o = a" in text and "x = b" in text

    def test_empty(self):
        assert ascii_series({}) == "(empty plot)"

    def test_flat_series_padding(self):
        # constant y must not divide by zero
        text = ascii_series({"flat": [(0, 3.4), (10, 3.4)]})
        assert "flat" in text

    def test_axis_labels(self):
        text = ascii_series({"s": [(1, 1.0), (9, 2.0)]}, x_label="cores")
        assert "cores" in text
