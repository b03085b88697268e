"""Figure 14 — improvement of the parallel codes (with subscripted-
subscript analysis) over the serial versions on 4/8/16 cores."""

from __future__ import annotations

import dataclasses
from typing import List

from repro.experiments.fig13 import APPS, CORES
from repro.experiments.harness import CellSpec, run_cells


@dataclasses.dataclass
class Fig14Cell:
    app: str
    dataset: str
    cores: int
    t_serial: float
    t_parallel: float

    @property
    def improvement(self) -> float:
        return self.t_serial / self.t_parallel


def fig14_cells() -> List[Fig14Cell]:
    keys = [(app, ds, p) for app, datasets in APPS.items() for ds in datasets for p in CORES]
    runs = run_cells(CellSpec(app, ds, "Cetus+NewAlgo", p) for app, ds, p in keys)
    return [
        Fig14Cell(app, ds, p, run.serial_time, run.parallel_time)
        for (app, ds, p), run in zip(keys, runs)
    ]


def format_fig14(cells=None) -> str:
    cells = cells or fig14_cells()
    lines = ["Figure 14: improvement of parallel code (with analysis) vs serial"]
    lines.append(f"{'app':<12} {'dataset':<18}" + "".join(f"{c:>9} c" for c in CORES))
    seen = {}
    for c in cells:
        seen.setdefault((c.app, c.dataset), {})[c.cores] = c.improvement
    for (app, ds), per_core in seen.items():
        vals = "".join(f"{per_core.get(p, float('nan')):>10.2f}" for p in CORES)
        lines.append(f"{app:<12} {ds:<18}{vals}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_fig14())
