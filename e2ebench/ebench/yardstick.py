"""A fixed reference task that measures the host's current speed.

The host under the benchmark is a share of a machine that other jobs
use, and its speed drifts by a quarter to a half, in bursts of seconds
and over minutes (README "Noise"); a run's raw timings follow that
drift.  The benchmark therefore runs this task between operations, in
the process that times them, and reports every time at the reference
speed: a time ``t`` taken while the task took ``y`` seconds is reported
as ``t * NOMINAL_S / y`` (:func:`ebench.metrics.speed_scale`).

The task is interpreter work of the kind the analysis does: a tokenizer
with dict and string traffic, and the allocation of small objects.  It
is the benchmark's own code, never the program's, so no change to the
program can speed it up or slow it down.  It runs with the garbage
collector off, so the size of the program's heap does not leak into it,
and it needs nothing beyond the standard library.
"""

from __future__ import annotations

import gc
import time

#: seconds one call takes on the 2-core reference host, the median over
#: the runs made when the benchmark was defined; the scale of every
#: reported time
NOMINAL_S = 0.0028

_TEXT = (
    "for (i = 0; i < n; i++) { for (j = row[i]; j < row[i + 1]; j++) "
    "{ y[i] += a[j] * x[col[j]]; } } s = s + y[i] * 2 - t / 3;"
)
_TOKEN_REPS = 40
_OBJECTS = 2000


class _Node:
    __slots__ = ("kind", "pair", "attrs")

    def __init__(self, kind: int, pair: tuple, attrs: dict):
        self.kind, self.pair, self.attrs = kind, pair, attrs


def _tokens(text: str) -> list:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("id", text[i:j]))
            i = j
        else:
            out.append(("op", c))
            i += 1
    return out


def _task() -> int:
    acc = 0
    for _ in range(_TOKEN_REPS):
        counts: dict = {}
        for kind, tok in _tokens(_TEXT):
            key = kind + tok
            counts[key] = counts.get(key, 0) + 1
        acc += sum(counts.values()) + len(sorted(counts))
    nodes = [_Node(i & 7, (i, i + 1), {"line": i}) for i in range(_OBJECTS)]
    return acc + sum(n.pair[1] - n.attrs["line"] for n in nodes)


def run() -> float:
    """Run the task once; its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _task()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
