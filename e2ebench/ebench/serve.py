"""Launcher for ``repro serve`` under the benchmark.

    python3 -m ebench.serve --socket PATH --report PATH [--trace]

Runs the daemon in this process through the CLI (``repro serve --socket
PATH``) and, when it exits, writes ``--report`` as JSON with its peak
RSS.  With ``--trace`` it also installs the benchmark's spans, counts
frame-cache hits and the admission queue's deepest point, and records
spans only while tracing is switched on: each ``SIGUSR1`` flips it, so
the client can alternate traced and untraced phases.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
from typing import Any, Dict


def _instrument(state: Dict[str, Any]) -> None:
    """Count frame-cache lookups and the admission queue's depth."""
    from repro.ir.perfstats import BoundedCache
    from repro.service.server import AnalysisService

    class CountingCache(BoundedCache):
        def get(self, key, default=None):
            value = super().get(key, default)
            state["frame_hits" if value is not None else "frame_misses"] += 1
            return value

    init, start = AnalysisService.__init__, AnalysisService.start

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.frame_cache = CountingCache()

    async def counted_start(self):
        await start(self)
        queue, put = self._queue, self._queue.put_nowait

        def put_nowait(item):
            put(item)
            state["queue_depth_max"] = max(state["queue_depth_max"], queue.qsize())

        queue.put_nowait = put_nowait

    AnalysisService.__init__ = counted_init
    AnalysisService.start = counted_start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="ebench.serve")
    ap.add_argument("--socket", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    from repro.cli import main as cli_main

    state: Dict[str, Any] = {"frame_hits": 0, "frame_misses": 0, "queue_depth_max": 0}
    tracer = None
    if args.trace:
        from ebench.tracing import TARGETS, Tracer

        tracer = Tracer(
            TARGETS
            + (
                ("service.process", "repro.service.server", "AnalysisService._process", None),
                ("service.try_reply_cache", "repro.service.server", "AnalysisService._try_reply_cache", None),
            )
        )
        _instrument(state)
        tracer.install()
        tracer.active = False

        def flip(signum, frame):
            tracer.active = not tracer.active

        signal.signal(signal.SIGUSR1, flip)
    code = cli_main(["serve", "--socket", args.socket])
    state["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    state["pid"] = os.getpid()
    if tracer is not None:
        tracer.active = False
        state["spans"] = tracer.spans
    tmp = args.report + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh)
    os.replace(tmp, args.report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
