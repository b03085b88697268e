"""Shared experiment runner: compile → plan → simulate.

``run_benchmark`` runs one (benchmark, dataset, pipeline, cores, schedule)
cell: it parallelizes the benchmark's source under the pipeline's
:class:`~repro.analysis.config.AnalysisConfig`, derives the execution plan
from the per-loop decisions, and predicts serial/parallel times with the
machine model.  All figures are tables of these cells.

**Serial cells.**  :func:`run_cells` evaluates a list of
:class:`CellSpec` one after another in the calling process.  A cell costs
one cached ``parallelize`` plus a machine-model simulation, so a process
pool buys nothing: workers would redo analysis the parent never sees,
and their warm caches would die with the pool.  Run serially, the
parallelize cache serves every repeat of a (benchmark, pipeline) pair,
within a call and across repeated figure runs, and ``--stats`` counts
all of it.  Within one call each ``(benchmark, dataset)`` performance
model is built once and shared by the cells that need it.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.config import AnalysisConfig
from repro.benchmarks.base import Benchmark
from repro.parallelizer.driver import ParallelizationResult, parallelize
from repro.runtime.machine import DEFAULT_MACHINE, MachineModel
from repro.runtime.simulate import PerfModel, plan_from_decisions, simulate_app

logger = logging.getLogger("repro.experiments.harness")

PIPELINES: Dict[str, AnalysisConfig] = {
    "Cetus": AnalysisConfig.classical(),
    "Cetus+BaseAlgo": AnalysisConfig.base_algorithm(),
    "Cetus+NewAlgo": AnalysisConfig.new_algorithm(),
}


@dataclasses.dataclass
class BenchRun:
    """One experiment cell."""

    benchmark: str
    dataset: str
    pipeline: str
    cores: int
    schedule: str
    serial_time: float
    parallel_time: float
    plan_level: str  # level of the main kernel component

    @property
    def speedup(self) -> float:
        return self.serial_time / self.parallel_time

    @property
    def efficiency(self) -> float:
        return self.speedup / self.cores


@dataclasses.dataclass
class FailedCell:
    """Placeholder for a cell whose evaluation crashed.

    Duck-types :class:`BenchRun` (same identity fields, NaN metrics,
    ``plan_level="failed"``) so figure tables render a hole instead of
    crashing.  ``error`` carries the one-line cause.
    """

    benchmark: str
    dataset: str
    pipeline: str
    cores: int
    schedule: str
    error: str
    serial_time: float = math.nan
    parallel_time: float = math.nan
    plan_level: str = "failed"

    @property
    def speedup(self) -> float:
        return math.nan

    @property
    def efficiency(self) -> float:
        return math.nan


def _failed_cell(spec: "CellSpec", error: str) -> FailedCell:
    dataset = spec.dataset
    if dataset is None:
        # resolve the default so the hole lands on the same table row as
        # its sibling cells
        try:
            from repro.benchmarks.registry import get_benchmark

            dataset = get_benchmark(spec.benchmark).default_dataset
        except Exception:
            dataset = ""
    return FailedCell(
        benchmark=spec.benchmark,
        dataset=dataset,
        pipeline=spec.pipeline,
        cores=spec.cores,
        schedule=spec.schedule,
        error=error,
    )


def _compile(bench_name: str, pipeline: str) -> ParallelizationResult:
    # dedup happens in the global parallelize cache (keyed by source digest
    # and config fingerprint), which also serves the CLI and the examples
    from repro.benchmarks.registry import get_benchmark

    bench = get_benchmark(bench_name)
    return parallelize(bench.source, PIPELINES[pipeline])


def run_benchmark(
    bench: Benchmark,
    dataset: Optional[str] = None,
    pipeline: str = "Cetus+NewAlgo",
    cores: int = 16,
    schedule: str = "static",
    chunk: int = 1,
    machine: MachineModel = DEFAULT_MACHINE,
    perf: Optional[PerfModel] = None,
) -> BenchRun:
    """Run one experiment cell.

    ``perf`` is the benchmark's model for ``dataset`` when the caller has
    already built it; otherwise it is built here.
    """
    dataset = dataset or bench.default_dataset
    result = _compile(bench.name, pipeline)
    if perf is None:
        perf = bench.perf_model(dataset)
    plan = plan_from_decisions(perf, result)
    t_serial = perf.serial_time_target
    t_par = simulate_app(perf, plan, cores, machine, schedule, chunk)
    main = plan.per_component.get(bench.main_component)
    return BenchRun(
        benchmark=bench.name,
        dataset=dataset,
        pipeline=pipeline,
        cores=cores,
        schedule=schedule,
        serial_time=t_serial,
        parallel_time=t_par,
        plan_level=main.level if main else "serial",
    )


# ---------------------------------------------------------------------------
# serial loop over independent cells
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """Description of one experiment cell.

    Carries names rather than objects; :func:`run_cell` rehydrates the
    benchmark from the registry.
    """

    benchmark: str
    dataset: Optional[str] = None
    pipeline: str = "Cetus+NewAlgo"
    cores: int = 16
    schedule: str = "static"
    chunk: int = 1


def run_cell(
    spec: CellSpec, perf_models: Optional[Dict[Tuple[str, str], PerfModel]] = None
) -> BenchRun:
    """Run one cell from its spec.

    ``perf_models`` is a memo keyed by ``(benchmark, dataset)`` that the
    caller owns; :func:`run_cells` shares one across its cells so each
    benchmark's performance model is built once per call.
    """
    from repro.benchmarks.registry import get_benchmark

    bench = get_benchmark(spec.benchmark)
    dataset = spec.dataset or bench.default_dataset
    models = {} if perf_models is None else perf_models
    key = (bench.name, dataset)
    if key not in models:
        models[key] = bench.perf_model(dataset)
    return run_benchmark(
        bench, dataset, spec.pipeline, spec.cores, spec.schedule, spec.chunk, perf=models[key]
    )


def _run_cell_guarded(
    spec: CellSpec, perf_models: Dict[Tuple[str, str], PerfModel]
) -> Union[BenchRun, FailedCell]:
    """Evaluate one cell; a crash becomes a :class:`FailedCell`."""
    try:
        return run_cell(spec, perf_models)
    except Exception as exc:  # fail-soft: one bad cell must not kill the table
        logger.warning("cell %s failed: %s", spec, exc)
        return _failed_cell(spec, f"{type(exc).__name__}: {exc}")


def run_cells(specs: Iterable[CellSpec]) -> List[Union[BenchRun, FailedCell]]:
    """Evaluate independent cells in spec order, one after another.

    A cell that raises is logged and becomes a :class:`FailedCell`, so the
    result always has one entry per spec and figure tables render holes
    instead of crashing.
    """
    perf_models: Dict[Tuple[str, str], PerfModel] = {}
    return [_run_cell_guarded(spec, perf_models) for spec in specs]


def speedup_table(
    bench: Benchmark,
    datasets: List[str],
    pipelines: List[str],
    cores_list: List[int],
    schedule: str = "static",
) -> List[BenchRun]:
    """Cartesian sweep over datasets x pipelines x core counts."""
    specs = [
        CellSpec(bench.name, ds, pipe, p, schedule)
        for ds in datasets
        for pipe in pipelines
        for p in cores_list
    ]
    return run_cells(specs)


def format_runs(runs: List[BenchRun], metric: str = "speedup") -> str:
    """Plain-text table of runs (one row per dataset/pipeline, cols=cores)."""
    rows: Dict[Tuple[str, str, str], Dict[int, BenchRun]] = {}
    cores: List[int] = []
    for r in runs:
        rows.setdefault((r.benchmark, r.dataset, r.pipeline), {})[r.cores] = r
        if r.cores not in cores:
            cores.append(r.cores)
    lines = []
    header = f"{'benchmark':<20} {'dataset':<16} {'pipeline':<16}" + "".join(
        f"{c:>10}" for c in sorted(cores)
    )
    lines.append(header)
    for (b, d, p), cells in rows.items():
        vals = []
        for c in sorted(cores):
            r = cells.get(c)
            if r is None:
                vals.append(f"{'-':>10}")
            else:
                v = getattr(r, metric)
                if isinstance(v, float) and math.isnan(v):
                    vals.append(f"{'FAIL':>10}")
                else:
                    vals.append(f"{v:>10.2f}")
        lines.append(f"{b:<20} {d:<16} {p:<16}" + "".join(vals))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Measured kernel execution (compiled backend)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class MeasuredRun:
    """Measured wall-clock of one benchmark kernel across backends.

    Unlike :class:`BenchRun` (the analytic model of the paper's 20-core
    testbed), these numbers are real executions on *this* machine via
    :func:`repro.runtime.simulate.measure_kernel`; times in seconds.
    """

    benchmark: str
    scale: str  # "paper" (exec_env) or "small" (small_env)
    times: Dict[str, float]  # backend -> best-of-repeats seconds
    outputs_match: bool  # every backend produced equivalent final state
    #: loop_id -> max/mean chunk-time ratio of the last parallel run
    #: (empty when no backend dispatched to the worker pool)
    chunk_imbalance: Dict[str, float] = dataclasses.field(default_factory=dict)

    def speedup(self, backend: str, over: str = "interp") -> float:
        if backend not in self.times or over not in self.times:
            return math.nan
        return self.times[over] / self.times[backend]

    def worst_imbalance(self) -> float:
        """The most skewed loop's chunk-time ratio (NaN when unrecorded)."""
        return max(self.chunk_imbalance.values(), default=math.nan)


def measure_backend_speedups(
    names: Optional[List[str]] = None,
    *,
    backends: Tuple[str, ...] = ("interp", "compiled"),
    scale: str = "paper",
    repeats: int = 3,
    repeats_by_backend: Optional[Dict[str, int]] = None,
    threads: Optional[int] = None,
    pipeline: str = "Cetus+NewAlgo",
) -> List[MeasuredRun]:
    """Measure each benchmark's kernel under several execution backends.

    ``scale="paper"`` uses the benchmark's paper-scale :attr:`exec_env`
    (falling back to ``small_env`` where none exists); ``"small"`` always
    uses ``small_env``.  Each backend's run output is cross-checked
    against the interpreter-tolerance equivalence used by the
    differential mode, so a reported speedup can never come from a
    wrong-answer run.  ``repeats_by_backend`` overrides ``repeats`` per
    backend — the compiled-family legs finish in milliseconds and need
    more best-of samples on noisy shared runners than the
    tens-of-seconds interpreter legs.
    """
    from repro.benchmarks.registry import all_benchmarks, get_benchmark
    from repro.runtime import workmeter
    from repro.runtime.parexec import states_equivalent
    from repro.runtime.simulate import measure_kernel

    benches = [get_benchmark(n) for n in names] if names else list(all_benchmarks())
    runs: List[MeasuredRun] = []
    for bench in benches:
        result = parallelize(bench.source, PIPELINES[pipeline])
        env = bench.paper_env() if scale == "paper" else bench.small_env()
        times: Dict[str, float] = {}
        outputs: Dict[str, Dict[str, object]] = {}
        imbalance: Dict[str, float] = {}
        for backend in backends:
            reps = (repeats_by_backend or {}).get(backend, repeats)
            times[backend], outputs[backend] = measure_kernel(
                result, env, backend=backend, threads=threads, repeats=reps
            )
            if backend == "compiled-parallel":
                imbalance = {
                    lid: entry["imbalance"]
                    for lid, entry in workmeter.summary().items()
                    if "imbalance" in entry
                }
        ref = outputs.get("interp") or next(iter(outputs.values()))
        match = all(states_equivalent(ref, out) for out in outputs.values())
        runs.append(
            MeasuredRun(
                benchmark=bench.name, scale=scale, times=times, outputs_match=match,
                chunk_imbalance=imbalance,
            )
        )
    return runs
