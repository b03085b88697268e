"""Metric arithmetic shared by the runner, the spread report and the tests.

Latency is aggregated per operation class and never over the whole mix:
the classes of one workload differ by up to fifty times in cost, so a
mix-wide median falls between clusters and jumps when they shift.  Each
class gives its median and p90; the workload reports the geometric mean
of those over its classes, so every class weighs the same however many
samples it has.

A class's median is taken per :data:`WINDOW_S` window of the run and
averaged over the windows.  The host's speed changes in bursts of
seconds, so within one run a class's latencies fall into a fast and a
slow cluster; a median over the whole run sits in whichever cluster
covered more of the run and jumps between runs, while the mean over
windows moves in proportion to the time spent in each.  The p90 is taken
over the whole run: it sits in the slow cluster either way.

Every latency and the throughput are reported at the reference speed
of the host (:mod:`ebench.yardstick`): each operation's time is scaled
by :func:`speed_scale`, the yardstick's nominal time over its time in
the runs just before and just after the operation.  Within a run this
removes most of the bursts; between runs it removes the drift of
minutes that raw timings follow.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: end-to-end metric name -> unit, in the order ``BENCHMARK.json`` lists them
END_TO_END_UNITS = {
    "setup_s": "s",
    "p50_geomean_ms": "ms",
    "p90_geomean_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

#: a p90 is trusted when at least this many samples lie beyond it
TAIL_SAMPLES = 10

#: seconds per window of the windowed median: short against the host's
#: speed bursts, long enough for a few samples of every class
WINDOW_S = 2.0


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (whole ``p``), linearly interpolated between
    order statistics: ``statistics.quantiles(..., method="inclusive")``,
    NumPy's default definition."""
    if not values:
        raise ValueError("percentile of no values")
    if len(values) == 1:
        return values[0]
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[round(p) - 1]


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def windowed_median(starts_s: Sequence[float], values: Sequence[float], window_s: float = WINDOW_S) -> float:
    """Mean over the run's ``window_s`` windows of the median in each window.

    ``starts_s`` are the samples' start times; windows without a sample
    are skipped.
    """
    windows: Dict[int, List[float]] = {}
    for t, v in zip(starts_s, values):
        windows.setdefault(int(t // window_s), []).append(v)
    return statistics.fmean(percentile(w, 50) for w in windows.values())


def speed_scale(yard: Sequence[Tuple[float, Sequence[float]]], nominal_s: float) -> Callable[[float, float], float]:
    """The factor that takes an operation's time to the reference speed.

    ``yard`` holds ``(t, seconds)`` batches of yardstick runs, in the
    order of their start times ``t``; no operation runs within a batch.
    For an operation from ``t0`` to ``t1``, the factor is ``nominal_s``
    over the mean of two medians: that of the last batch that started by
    ``t0`` and that of the first that started at or after ``t1``.  An
    operation with a batch on one side only takes that one.  Bursts of
    the host's speed last from under a second to a few, so the runs that
    bracket an operation follow its speed more closely than a window's.
    """
    if not yard:
        raise ValueError("speed scale of no yardstick runs")
    times = [t for t, _ in yard]
    medians = [statistics.median(runs) for _, runs in yard]

    def at(t0: float, t1: float) -> float:
        i, j = bisect.bisect_right(times, t0) - 1, bisect.bisect_left(times, t1)
        side = [medians[k] for k in (i, j) if 0 <= k < len(medians)]
        return nominal_s / statistics.fmean(side)

    return at


def scaled_samples(
    samples_s: Mapping[str, Sequence[float]],
    starts_s: Mapping[str, Sequence[float]],
    scale: Callable[[float, float], float],
) -> Dict[str, List[float]]:
    """Each class's latencies at the reference speed."""
    return {c: [x * scale(t, t + x) for x, t in zip(xs, starts_s[c])] for c, xs in samples_s.items()}


def class_rows(
    samples_s: Mapping[str, Sequence[float]], starts_s: Mapping[str, Sequence[float]]
) -> List[Dict[str, float]]:
    """One row per class: sample count, p50 and p90 in ms, samples beyond p90."""
    rows = []
    for name in sorted(samples_s):
        xs = samples_s[name]
        p90 = percentile(xs, 90)
        rows.append(
            {
                "class": name,
                "n": len(xs),
                "p50_ms": 1e3 * windowed_median(starts_s[name], xs),
                "p90_ms": 1e3 * p90,
                "beyond_p90": sum(1 for x in xs if x > p90),
            }
        )
    return rows


def end_to_end(
    samples_s: Mapping[str, Sequence[float]],
    starts_s: Mapping[str, Sequence[float]],
    *,
    busy: Sequence[Tuple[float, float]],
    scale: Optional[Callable[[float, float], float]],
    setup_probes_s: Sequence[float],
    peak_rss_mb: float,
    attempted: int,
    failed: int,
) -> Dict[str, float]:
    """The six end-to-end metrics of one run.

    ``samples_s`` and ``starts_s`` are each class's latencies and their
    start times in the run; ``busy`` holds ``(start, seconds)`` of the
    wall time the closed loop spent in operations; ``scale`` is the run's
    :func:`speed_scale` (``None`` reports raw times); ``setup_probes_s``
    are the set-up times of separate fresh processes.
    """
    at = scale or (lambda t0, t1: 1.0)
    rows = class_rows(scaled_samples(samples_s, starts_s, at), starts_s)
    completed = sum(len(v) for v in samples_s.values())
    return {
        "setup_s": statistics.median(setup_probes_s),
        "p50_geomean_ms": geomean([r["p50_ms"] for r in rows]),
        "p90_geomean_ms": geomean([r["p90_ms"] for r in rows]),
        "throughput_per_s": completed / sum(dt * at(t, t + dt) for t, dt in busy),
        "peak_rss_mb": peak_rss_mb,
        "success_ratio": (attempted - failed) / attempted,
    }


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and the quartile distance over the median.

    Quartiles are ``statistics.quantiles(values, n=4)``, the definition
    the acceptance check for ``BENCHMARK.json`` bounds uses.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_share": (q3 - q1) / med if med else float("inf"),
    }
