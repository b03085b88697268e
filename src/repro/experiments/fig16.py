"""Figure 16 — dynamic vs static scheduling for SDDMM (4/8/16 cores).

The parallel loop iterates over matrix columns whose nonzero counts are
skewed for gsm_106857, dielFilterV2clx and inline_1 (dynamic wins) and
uniform for af_shell1 (static wins, paper §4.2).  Values are improvement
over serial execution.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.experiments.harness import CellSpec, run_cells

CORES = [4, 8, 16]
MATRICES = ["gsm_106857", "dielFilterV2clx", "af_shell1", "inline_1"]


@dataclasses.dataclass
class Fig16Cell:
    dataset: str
    cores: int
    schedule: str
    improvement: float  # vs serial


def fig16_cells(chunk: int = 32) -> List[Fig16Cell]:
    keys = [(ds, p, sched) for ds in MATRICES for p in CORES for sched in ("dynamic", "static")]
    runs = run_cells(
        CellSpec("SDDMM", ds, "Cetus+NewAlgo", p, sched, chunk) for ds, p, sched in keys
    )
    return [Fig16Cell(ds, p, sched, run.speedup) for (ds, p, sched), run in zip(keys, runs)]


def format_fig16(cells=None) -> str:
    cells = cells or fig16_cells()
    lines = ["Figure 16: SDDMM dynamic vs static scheduling (improvement over serial)"]
    lines.append(f"{'dataset':<18} {'sched':<8}" + "".join(f"{c:>9} c" for c in CORES))
    seen = {}
    for c in cells:
        seen.setdefault((c.dataset, c.schedule), {})[c.cores] = c.improvement
    for (ds, sched), per_core in seen.items():
        vals = "".join(f"{per_core.get(p, float('nan')):>10.2f}" for p in CORES)
        lines.append(f"{ds:<18} {sched:<8}{vals}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_fig16())
