#!/usr/bin/env python3
"""Spread report: run each workload under several seeds and summarize.

    python3 e2ebench/spread.py --workloads cold_compile,execute --seeds 1-10
    python3 e2ebench/spread.py --workloads execute --seeds 1-10 --ab 11-20 --save ab.json
    python3 e2ebench/spread.py --compare first.json second.json

For each workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the minimum and
maximum, and the quartile distance as a share of the median next to the
metric's bound in ``BENCHMARK.json``; ``setup_s`` is held to its bound
like every other metric.  ``--save`` keeps the raw values; ``--compare``
checks that a second set's medians are no worse than a first set's by
more than each bound, which is how two sets of runs of the same code
must agree.  ``--ab`` runs a second set of seeds alternately with the
first (A1 B1 A2 B2 ...), so that both sets see the same drift of the
host, and then reports both sets and compares them; ``--save`` then
keeps ``{"a": ..., "b": ...}``.  Run from the repository root; the runs
are sequential, so the spread reflects the host, not the report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from ebench.metrics import spread  # noqa: E402


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    print(f"{workload} seed {seed}: {time.monotonic() - t0:.0f} s wall", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def report(values: dict, spec: dict) -> bool:
    """Print the spread table; True when every spread is within its bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    print(f"{'workload/metric':<32} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11} "
          f"{'iqr/med':>8} {'bound':>6}")
    for workload, runs in values.items():
        for name, m in bounds.items():
            xs = [r[name] for r in runs]
            s = spread(xs)
            within = s["iqr_share"] <= m["bound"]
            ok &= within
            mark = "" if s["iqr_share"] < m["bound"] / 3 else ("  >1/3 bound" if within else "  OVER BOUND")
            print(f"{workload + '/' + name:<32} {s['median']:>11.5g} {s['q1']:>11.5g} {s['q3']:>11.5g} "
                  f"{s['min']:>11.5g} {s['max']:>11.5g} {s['iqr_share']:>8.4f} {m['bound']:>6}{mark}")
    return ok


def compare(first: dict, second: dict, spec: dict) -> bool:
    """True when no median of ``second`` is worse than ``first``'s by more than its bound."""
    ok = True
    for m in spec["end_to_end"]:
        for workload in first:
            a = statistics.median(r[m["name"]] for r in first[workload])
            b = statistics.median(r[m["name"]] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            bad = worse > m["bound"]
            ok &= not bad
            print(f"{workload + '/' + m['name']:<32} {a:>11.5g} -> {b:>11.5g}  worse by {100 * worse:+6.2f}% "
                  f"(bound {100 * m['bound']:.0f}%){'  FAIL' if bad else ''}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--ab", default=None, metavar="SEEDS",
                    help="a second set of seeds, run alternately with --seeds, then compared")
    ap.add_argument("--save", default=None, help="write the raw values here as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), default=None)
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(first, second, spec) else 1
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sets = {"a": parse_seeds(args.seeds)}
    if args.ab:
        sets["b"] = parse_seeds(args.ab)
        if len(sets["b"]) != len(sets["a"]):
            raise SystemExit("--ab needs as many seeds as --seeds")
    values = {key: {w: [] for w in workloads} for key in sets}
    for workload in workloads:
        for i in range(len(sets["a"])):
            for key, seeds in sets.items():
                run = run_once(workload, seeds[i], seconds)
                values[key][workload].append(run)
                print(f"{workload} seed {seeds[i]}: " + ", ".join(f"{k}={v:.5g}" for k, v in run.items()),
                      flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(values if args.ab else values["a"], indent=1))
    ok = True
    for key in sets:
        if args.ab:
            print(f"set {key.upper()}: seeds {args.seeds if key == 'a' else args.ab}")
        ok &= report(values[key], spec)
    if args.ab:
        print("set B against set A:")
        ok &= compare(values["a"], values["b"], spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
