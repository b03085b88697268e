"""The process under test: set up one workload, run its rounds, report.

Started by ``e2ebench/run.py`` as ``python3 -m ebench.worker`` with a
cleaned environment.  ``--probe`` only sets up and tears down, giving one
fresh-process ``setup_s`` sample.  The raw samples go to ``--out`` as
JSON; ``run.py`` computes the metrics.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

from ebench import yardstick  # noqa: E402

#: failure messages kept in the report (all are counted)
KEEP_FAILURES = 20

#: a run on a host slower than the reference stops after this many times
#: ``--seconds``, so the whole benchmark keeps to its time budget
DEADLINE = 1.25


def measure(wl, seconds: float, trace: bool, trace_out: str) -> Dict[str, Any]:
    """Run :func:`rounds_for` whole rounds, stopping early at :data:`DEADLINE` × ``seconds``.

    With ``trace``, odd rounds run with spans installed and even rounds
    without, so drift hits both alike and their difference is the
    tracing overhead.  Before each operation, outside its timer, the
    yardstick runs once to gauge the host's speed.
    """
    samples: Dict[str, List[float]] = defaultdict(list)
    starts: Dict[str, List[float]] = defaultdict(list)
    failures: List[str] = []
    attempted = failed = 0
    busy: List[List[float]] = []
    yard: List[list] = []
    timed = {True: [0.0, 0], False: [0.0, 0]}
    tracer = counters = tiers = None
    if trace:
        from repro.ir import perfstats

        from ebench.layers import ROOT, counter_delta
        from ebench.tracing import Tracer

        tracer = Tracer()
        counters, tiers = defaultdict(float), defaultdict(float)
    start = time.perf_counter()
    n_rounds, deadline = rounds_for(wl, seconds), start + DEADLINE * seconds
    r = 0
    while r < n_rounds and time.perf_counter() < deadline:
        traced = trace and r % 2 == 1
        ops = wl.round(r)
        if traced:
            snap0 = perfstats.snapshot()
            tracer.install()
        for op in ops:
            arg = wl.prepare(op)
            yard.append([time.perf_counter() - start, [yardstick.run()]])
            root = tracer.begin(ROOT, op[0]) if traced else None
            t0 = time.perf_counter()
            try:
                out, err = wl.run(op, arg), None
            except Exception as exc:  # an operation that raises is a failed operation
                out, err = None, f"{op[0]}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if root is not None:
                tracer.end(root)
            attempted += 1
            busy.append([t0 - start, dt])
            timed[traced][0] += dt
            timed[traced][1] += 1
            if err is None:
                err = wl.check(op, out)
            if err is None:
                samples[op[0]].append(dt)
                starts[op[0]].append(t0 - start)
            else:
                failed += 1
                if len(failures) < KEEP_FAILURES:
                    failures.append(err)
        if traced:
            tracer.uninstall()
            snap1 = perfstats.snapshot()
            for k, v in counter_delta(snap0["counters"], snap1["counters"]).items():
                counters[k] += v
            for k, v in counter_delta(snap0["tiers"], snap1["tiers"]).items():
                tiers[k] += v
        r += 1
    report: Dict[str, Any] = {
        "samples": samples,
        "starts": starts,
        "busy": busy,
        "yard": yard,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "rounds": r,
        "phase_s": time.perf_counter() - start,
    }
    if trace:
        from ebench.layers import layer_metrics
        from ebench.tracing import write_chrome_trace

        mean = {k: (v[0] / v[1] if v[1] else 0.0) for k, v in timed.items()}
        report["per_layer"] = layer_metrics(
            tracer.spans,
            n_ops=timed[True][1],
            counters=counters,
            tiers=tiers,
            overhead_ms=1e3 * (mean[True] - mean[False]),
        )
        write_chrome_trace(trace_out, [(os.getpid(), tracer.spans)])
        report["trace_spans"] = len(tracer.spans)
    return report


def rounds_for(wl, seconds: float) -> int:
    """A fixed amount of work per run: the rounds that take ``seconds`` on
    the reference host.  A run of fixed work keeps memory and sample
    counts independent of how fast the host happens to be."""
    return max(2, round(seconds * wl.ROUNDS_PER_S))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="ebench.worker")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--nproc", type=int, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)

    from ebench import workloads

    wl = workloads.make(args.workload, args.seed, args.nproc, bool(args.trace))
    wl.setup()
    setup_s = time.perf_counter() - T0 - wl.check_s
    report: Dict[str, Any] = {"setup_s": setup_s}
    own_loop = getattr(wl, "measure", None)
    try:
        if not args.probe:
            report.update((own_loop or functools.partial(measure, wl))(args.seconds, bool(args.trace), args.trace_out))
    finally:
        wl.finish(measured=not args.probe)
    if args.trace and not args.probe and own_loop is not None:
        report["per_layer"], report["trace_spans"] = wl.layer_metrics(args.trace_out)
    report["failures"] = report.get("failures", []) + wl.failures
    report["whole_run_failures"] = len(wl.failures)
    report["notes"] = wl.notes
    report["peak_rss_mb"] = wl.peak_rss_mb()
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
