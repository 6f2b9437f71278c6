"""The stderr progress bar: TTY gating, rendering, batch reset, and
clean erase — driven through the engine's real progress hook."""

import io

from repro.engine import CorpusEngine, WorkUnit
from repro.obs.progress import ProgressBar, is_tty


class FakeTTY(io.StringIO):
    def isatty(self):
        return True


class BrokenStream(io.StringIO):
    def isatty(self):
        raise OSError("gone")


def hook_info(completed, total, cached=False):
    return {
        "unit": None, "index": completed - 1, "cached": cached,
        "seconds": 0.01, "completed": completed, "total": total,
    }


class TestTtyGating:
    def test_pipe_is_not_tty(self):
        assert is_tty(io.StringIO()) is False

    def test_broken_stream_is_not_tty(self):
        assert is_tty(BrokenStream()) is False

    def test_if_tty_returns_none_for_pipe(self):
        assert ProgressBar.if_tty(io.StringIO()) is None

    def test_if_tty_returns_bar_for_terminal(self):
        assert isinstance(ProgressBar.if_tty(FakeTTY()), ProgressBar)


class TestRendering:
    def bar(self):
        stream = FakeTTY()
        return ProgressBar(stream, width=10, min_interval=0.0), stream

    def test_draws_in_place(self):
        bar, stream = self.bar()
        bar(hook_info(2, 4))
        out = stream.getvalue()
        assert out.startswith("\r[")
        assert "2/4 units" in out
        assert "\n" not in out

    def test_full_bar_at_completion(self):
        bar, stream = self.bar()
        bar(hook_info(4, 4))
        assert "[##########]" in stream.getvalue()
        assert "4/4 units" in stream.getvalue()

    def test_cached_counter(self):
        bar, stream = self.bar()
        bar(hook_info(1, 3, cached=True))
        bar(hook_info(2, 3, cached=True))
        bar(hook_info(3, 3, cached=False))
        assert "2 cached" in stream.getvalue()

    def test_rate_limit_skips_intermediate_draws(self):
        stream = FakeTTY()
        bar = ProgressBar(stream, width=10, min_interval=3600.0)
        bar(hook_info(1, 3))
        bar(hook_info(2, 3))
        mid = stream.getvalue()
        bar(hook_info(3, 3))  # final unit always draws
        assert mid.count("\r") <= 1
        assert "3/3 units" in stream.getvalue()

    def test_new_batch_resets_cached_count(self):
        bar, stream = self.bar()
        bar(hook_info(1, 2, cached=True))
        bar(hook_info(2, 2, cached=True))
        bar(hook_info(1, 2, cached=False))  # completed wrapped => new batch
        assert stream.getvalue().rstrip().endswith("0.0s")
        assert "0 cached" in stream.getvalue().split("\r")[-1]

    def test_finish_erases_line(self):
        bar, stream = self.bar()
        bar(hook_info(1, 2))
        bar.finish()
        assert stream.getvalue().endswith("\r" + " " * 79 + "\r")

    def test_finish_noop_when_never_drawn(self):
        bar, stream = self.bar()
        bar.finish()
        assert stream.getvalue() == ""


class TestEngineIntegration:
    def test_engine_hook_drives_bar(self):
        stream = FakeTTY()
        bar = ProgressBar(stream, width=10, min_interval=0.0)
        units = [
            WorkUnit.make(
                "predict", label=f"k{i}", backend="sim", uarch="zen4",
                assembly="addq $8, %rax", opts={"iterations": 3, "warmup": 1},
            )
            for i in range(2)
        ]
        CorpusEngine(jobs=1, progress=bar).run(units)
        bar.finish()
        out = stream.getvalue()
        assert "2/2 units" in out
        assert out.endswith("\r" + " " * 79 + "\r")
