#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 e2ebench/run.py --workload cold_compile --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The lines before it print each metric with its unit,
one row per operation class with its sample count, and the failures.

The program is measured in child processes started with a cleaned
environment: every ``REPRO_*`` variable removed (the removed names are
printed) and ``PYTHONHASHSEED`` fixed.  ``setup_s`` is the median over
``PROBES`` fresh processes that each set the workload up.  Latencies and
throughput are reported at the host's reference speed, gauged by
``ebench/yardstick.py`` between operations; the raw figures are printed
beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "_work"
sys.path.insert(0, str(BENCH_DIR))

from ebench.metrics import (  # noqa: E402
    END_TO_END_UNITS,
    TAIL_SAMPLES,
    class_rows,
    end_to_end,
    scaled_samples,
    speed_scale,
)
from ebench.yardstick import NOMINAL_S  # noqa: E402

#: every workload the runner knows; ``BENCHMARK.json`` gates all but
#: ``warm_edit``, whose spread exceeds the bounds on the reference host
#: (README "Noise")
WORKLOADS = ("cold_compile", "warm_edit", "execute", "service_mix")

#: fresh processes timed for ``setup_s``, counting the measured one; half
#: of the others run before the measured process and half after, so the
#: median spans the run rather than one burst of the host's speed
PROBES = 5

#: the metrics reported at the reference speed
SCALED = ("p50_geomean_ms", "p90_geomean_ms", "throughput_per_s")

#: seconds a probe or the measured process may take beyond ``--seconds``
GRACE_S = 120


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def clean_env():
    """The environment for the processes under test, and the names removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    return env, removed


def run_worker(env, args, *, probe: bool, out: Path, trace_out: Path = None) -> dict:
    cmd = [
        sys.executable, "-m", "ebench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--nproc", str(nproc()), "--out", str(out),
    ]
    if probe:
        cmd.append("--probe")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # its own process group, so that the pool workers and the daemon it
    # starts are stopped with it whatever happens
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        code = "a timeout"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise SystemExit(f"{args.workload}: process under test exited with {code}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    env, removed = clean_env()
    WORK.mkdir(exist_ok=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro"), str(BENCH_DIR / "ebench")],
        check=True, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
    )
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        # set-up time is an end-to-end metric: a traced run does not report it
        n_probes = 0 if args.trace else PROBES - 1

        def probe(i: int) -> float:
            return run_worker(env, args, probe=True, out=tmp / f"probe{i}.json")["setup_s"]

        probes = [probe(i) for i in range(n_probes // 2)]
        trace_out = WORK / f"trace-{args.workload}-{args.seed}.json" if args.trace else None
        rep = run_worker(env, args, probe=False, out=tmp / "run.json", trace_out=trace_out)
        probes.append(rep["setup_s"])
        probes += [probe(i) for i in range(n_probes // 2, n_probes)]

    failed = rep["failed"] + rep["whole_run_failures"]
    attempted = rep["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  nproc {nproc()}")
    print(f"REPRO_* variables removed: {', '.join(removed) or 'none'}; PYTHONHASHSEED=0")
    print(f"rounds {rep['rounds']} in {rep['phase_s']:.1f} s  operations attempted {attempted}  failed {failed}")
    for key, value in sorted(rep["notes"].items()):
        print(f"note {key}: {value}")
    if args.trace:
        metrics = rep["per_layer"]
        from ebench.layers import PER_LAYER_UNITS as units

        print(f"trace: {rep['trace_spans']} spans written to {trace_out.relative_to(ROOT)}")
    else:
        scale = speed_scale(rep["yard"], NOMINAL_S)
        starts = rep["starts"]
        rows = class_rows(scaled_samples(rep["samples"], starts, scale), starts)
        print("times at the reference speed; p50 is the mean of per-window medians")
        print(f"{'class':<34} {'n':>6} {'p50 ms':>10} {'p90 ms':>10} {'>p90':>5}")
        for row in rows:
            flag = "" if row["beyond_p90"] >= TAIL_SAMPLES else "  (fewer than 10 beyond p90)"
            print(
                f"{row['class']:<34} {row['n']:>6} {row['p50_ms']:>10.3f} {row['p90_ms']:>10.3f} "
                f"{row['beyond_p90']:>5}{flag}"
            )
        common = dict(peak_rss_mb=rep["peak_rss_mb"], attempted=attempted, failed=min(failed, attempted))
        metrics = end_to_end(
            rep["samples"], starts, busy=rep["busy"], scale=scale, setup_probes_s=probes, **common
        )
        raw = end_to_end(rep["samples"], starts, busy=rep["busy"], scale=None, setup_probes_s=probes, **common)
        units = END_TO_END_UNITS
        speeds = sorted(NOMINAL_S / y for _, runs in rep["yard"] for y in runs)
        print(
            f"host speed against the reference: median {speeds[len(speeds) // 2]:.3f}, "
            f"10th-90th percentile {speeds[len(speeds) // 10]:.3f}-{speeds[9 * len(speeds) // 10]:.3f} "
            f"over {len(speeds)} yardstick samples"
        )
        print(f"setup_s probes: {', '.join(f'{p:.3f}' for p in probes)}")
        print("raw, before scaling: " + ", ".join(f"{k} {raw[k]:.6g}" for k in SCALED))
    for name, value in metrics.items():
        print(f"{name:<44} {value:>14.6g} {units[name]}")
    for msg in rep["failures"]:
        print(f"FAILED: {msg}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
