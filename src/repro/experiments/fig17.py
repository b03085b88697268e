"""Figure 17 — performance of the three pipelines on all 12 benchmarks
(16 cores, serial baseline, Experiment-2 datasets)."""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.benchmarks import all_benchmarks
from repro.experiments.harness import PIPELINES, CellSpec, run_cells

CORES = 16


@dataclasses.dataclass
class Fig17Cell:
    benchmark: str
    pipeline: str
    improvement: float
    plan_level: str


def fig17_cells() -> List[Fig17Cell]:
    keys = [(bench, pipe) for bench in all_benchmarks() for pipe in PIPELINES]
    runs = run_cells(
        CellSpec(bench.name, bench.default_dataset, pipe, CORES) for bench, pipe in keys
    )
    return [
        Fig17Cell(bench.name, pipe, run.speedup, run.plan_level)
        for (bench, pipe), run in zip(keys, runs)
    ]


def improvements_by_benchmark(cells=None) -> Dict[str, Dict[str, float]]:
    cells = cells or fig17_cells()
    out: Dict[str, Dict[str, float]] = {}
    for c in cells:
        out.setdefault(c.benchmark, {})[c.pipeline] = c.improvement
    return out


def improved_counts(cells=None, threshold: float = 1.1) -> Dict[str, int]:
    """How many of the 12 benchmarks each pipeline improves (paper: 6/7/10)."""
    table = improvements_by_benchmark(cells)
    counts = {p: 0 for p in PIPELINES}
    for per_pipe in table.values():
        for pipe, imp in per_pipe.items():
            if imp >= threshold:
                counts[pipe] += 1
    return counts


def format_fig17(cells=None) -> str:
    cells = cells or fig17_cells()
    table = improvements_by_benchmark(cells)
    lines = ["Figure 17: pipeline comparison on 16 cores (improvement over serial)"]
    lines.append(f"{'benchmark':<22}" + "".join(f"{p:>18}" for p in PIPELINES))
    for bench, per_pipe in table.items():
        vals = "".join(f"{per_pipe.get(p, float('nan')):>18.2f}" for p in PIPELINES)
        lines.append(f"{bench:<22}{vals}")
    counts = improved_counts(cells)
    lines.append("")
    lines.append(
        "improved benchmarks: "
        + ", ".join(f"{p}: {n}/12" for p, n in counts.items())
    )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_fig17())
