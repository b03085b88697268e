"""Figure 13 — overall improvement of the parallel codes *with* vs
*without* subscripted-subscript analysis on 4/8/16 cores.

"Without" is the Cetus-classical code (which, per the paper, only finds
inner-loop parallelism in these three applications and pays fork-join per
outer iteration); "with" is Cetus+NewAlgo.  The improvement is
``T_without / T_with``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.experiments.harness import CellSpec, run_cells

CORES = [4, 8, 16]

#: the three Experiment-1 applications and their datasets
APPS: Dict[str, List[str]] = {
    "AMGmk": ["MATRIX1", "MATRIX2", "MATRIX3", "MATRIX4", "MATRIX5"],
    "SDDMM": ["gsm_106857", "dielFilterV2clx", "af_shell1", "inline_1"],
    "UA(transf)": ["A", "B", "C", "D"],
}


@dataclasses.dataclass
class Fig13Cell:
    app: str
    dataset: str
    cores: int
    t_without: float
    t_with: float

    @property
    def improvement(self) -> float:
        return self.t_without / self.t_with


def fig13_cells() -> List[Fig13Cell]:
    keys = [(app, ds, p) for app, datasets in APPS.items() for ds in datasets for p in CORES]
    specs = []
    for app, ds, p in keys:
        specs.append(CellSpec(app, ds, "Cetus", p))
        specs.append(CellSpec(app, ds, "Cetus+NewAlgo", p))
    runs = run_cells(specs)
    cells: List[Fig13Cell] = []
    for i, (app, ds, p) in enumerate(keys):
        without, with_ = runs[2 * i], runs[2 * i + 1]
        cells.append(Fig13Cell(app, ds, p, without.parallel_time, with_.parallel_time))
    return cells


def format_fig13(cells=None) -> str:
    cells = cells or fig13_cells()
    lines = ["Figure 13: improvement of parallel code with vs without subsub analysis"]
    lines.append(f"{'app':<12} {'dataset':<18}" + "".join(f"{c:>9} c" for c in CORES))
    seen = {}
    for c in cells:
        seen.setdefault((c.app, c.dataset), {})[c.cores] = c.improvement
    for (app, ds), per_core in seen.items():
        vals = "".join(f"{per_core.get(p, float('nan')):>10.2f}" for p in CORES)
        lines.append(f"{app:<12} {ds:<18}{vals}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_fig13())
