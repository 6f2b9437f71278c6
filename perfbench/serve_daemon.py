"""Run ``repro-serve``, with the benchmark's tracing wrappers if asked.

    python -m perfbench.serve_daemon [--trace-dir DIR] -- <repro-serve args>

With ``--trace-dir`` the wrappers are installed before the daemon
starts, and the daemon's own spans are written to
``DIR/daemon-<pid>.jsonl`` after its graceful SIGTERM drain.  Its pool
workers write their own files as they go.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from perfbench import use_checkout_src


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.serve_daemon")
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    use_checkout_src()
    from repro.cli import serve_main

    if args.trace_dir is None:
        return serve_main(serve_args)

    from perfbench.tracing import Recorder, Tracer

    recorder = Recorder(args.trace_dir, unit_detail=True)
    tracer = Tracer(recorder)
    tracer.install()
    try:
        return serve_main(serve_args)
    finally:
        tracer.uninstall()
        recorder.write_jsonl(args.trace_dir / f"daemon-{os.getpid()}.jsonl")


if __name__ == "__main__":
    sys.exit(main())
