"""From-scratch verdicts, computed in a process of their own.

Reads ``{"id": "source", ...}`` as JSON on stdin and prints ``{"id":
detail}``.  Every cache tier is cleared before each source, so no answer
can come from what an earlier source left behind.
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    from repro.ir import perfstats
    from repro.parallelizer import parallelize

    from ebench.workloads import detail

    texts = json.load(sys.stdin)
    out = {}
    for key, text in texts.items():
        perfstats.clear_all()
        out[key] = detail(parallelize(text))
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
