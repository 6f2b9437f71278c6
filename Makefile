# Convenience targets for the reproduction workflow.

PY ?= python

# targets work from a checkout without `make install`
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install lint test test-fast test-chaos test-fuzz test-serve fuzz bench report verify bench-outputs perf perf-check serve-bench serve-check serve-demo all-figures outputs trace-demo clean

install:
	pip install -e . --no-build-isolation

# ruff (config in pyproject.toml); skipped with a notice when the tool
# is not installed, so a bare container can still run the test targets
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/ tests/ benchmarks/; \
	else \
		echo "lint: ruff not installed, skipping (pip install ruff)"; \
	fi

# everything, including @pytest.mark.slow full-corpus sweeps and the
# @pytest.mark.chaos fault-injection suite
test:
	$(PY) -m pytest tests/ -m ""

# the default developer loop: lint + slow/chaos/fuzz/serve-marked tests deselected
test-fast: lint
	$(PY) -m pytest tests/ -m "not slow and not chaos and not fuzz and not serve"

# the robustness suite alone: deterministic fault injection, worker
# kills, hang timeouts (see docs/robustness.md)
test-chaos:
	$(PY) -m pytest tests/ -m chaos

# the differential-fuzzing suite, including the slow-marked
# 1,000-kernel smoke sweep (see docs/fuzzing.md)
test-fuzz:
	$(PY) -m pytest tests/ -m fuzz

# the serving-daemon suite: real sockets, load generation, serving
# chaos scenarios (see docs/serving.md)
test-serve:
	$(PY) -m pytest tests/ -m serve

# ad-hoc differential sweep; override e.g. `make fuzz SEED=7 COUNT=20000 JOBS=8`
SEED ?= 42
COUNT ?= 5000
JOBS ?= 4
fuzz:
	$(PY) -c "from repro.cli import fuzz_main; import sys; sys.exit(fuzz_main(['--seed','$(SEED)','--count','$(COUNT)','--jobs','$(JOBS)']))"

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

report:
	$(PY) -c "from repro.bench.report import generate_report; print(generate_report('REPORT.md'))"

# model self-check + the output gate + the standing perf and serving
# gates against the committed BENCH_perf.json / BENCH_serve.json
# baselines (see docs/observability.md and docs/serving.md)
verify: bench-outputs perf-check serve-check
	$(PY) -c "from repro.cli import bench_main; bench_main(['verify'])"

# gate: every benchmark workload once at the default seed in full mode,
# its output digest against perfbench/expected.json (~15 s; timings are
# not judged). Quick mode runs fewer inputs and can miss a changed
# prediction.
bench-outputs:
	@for w in corpus_cold corpus_warm fuzz_heldout serve_mixed; do \
		echo "bench-outputs: $$w"; \
		$(PY) perfbench/run.py --workload $$w --seconds 1 --trace 0 || exit 1; \
	done

# regenerate the committed perf baseline (run on the machine that will
# later gate with perf-check; the manifest records best-of-repeats)
perf:
	$(PY) -c "from repro.cli import perf_main; import sys; sys.exit(perf_main([]))"

# gate: re-run the suite with the baseline's config, fail on wall-clock
# or attribution-share regressions past the noise floor
perf-check:
	$(PY) -c "from repro.cli import perf_main; import sys; sys.exit(perf_main(['--check']))"

# regenerate the committed serving baseline (real daemon, real sockets)
serve-bench:
	$(PY) -c "from repro.cli import serve_bench_main; import sys; sys.exit(serve_bench_main([]))"

# gate: replay the serving scenarios with the baseline's config; any
# availability/error regression or lost backpressure fails the build
serve-check:
	$(PY) -c "from repro.cli import serve_bench_main; import sys; sys.exit(serve_bench_main(['--check']))"

# quick demo: spin up a daemon, fire the hot-path load scenario at it,
# print the req/s + latency summary
serve-demo:
	$(PY) -c "from repro.serve.loadgen import run_serve_bench, render_summary; print(render_summary(run_serve_bench(['serve_hot'], quick=True, echo=True)))"

all-figures:
	$(PY) -c "from repro.cli import bench_main; bench_main(['all'])"

# sample pipeline trace (open trace-demo.json in https://ui.perfetto.dev)
trace-demo:
	$(PY) -c "from repro.cli import analyze_main; analyze_main(['examples/triad.s', '--arch', 'genoa', '--trace', 'trace-demo.json'])"

outputs:
	$(PY) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PY) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks .repro-cache trace-demo.json
	find . -name __pycache__ -type d -exec rm -rf {} +
