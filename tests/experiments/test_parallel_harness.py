"""Experiment harness: serial cell loop, shared perf models, fail-soft cells.

``run_cells`` evaluates cells one after another in the calling process.
Sharing one performance model per ``(benchmark, dataset)`` across a call
must be invisible in the output: every cell has to match evaluating that
cell on its own.
"""

import dataclasses

from repro.experiments import harness
from repro.experiments.fig13 import fig13_cells
from repro.experiments.harness import CellSpec, run_cell, run_cells


class TestParallelMatchesSerial:
    def test_run_cells_order_and_values(self):
        specs = [
            CellSpec("AMGmk", "MATRIX1", "Cetus+NewAlgo", p, sched)
            for p in (4, 8, 16)
            for sched in ("static", "dynamic")
        ]
        shared = run_cells(specs)
        alone = [run_cell(s) for s in specs]
        assert [dataclasses.astuple(r) for r in shared] == [
            dataclasses.astuple(r) for r in alone
        ]

    def test_fig13_parallel_identical_to_serial(self):
        """Fig 13's "with/without" parallel times from one shared-model
        call equal the ones each cell computes on its own."""
        from repro.experiments.fig13 import APPS, CORES

        cells = fig13_cells()
        keys = [(a, ds, p) for a, datasets in APPS.items() for ds in datasets for p in CORES]
        assert len(cells) == len(keys)
        for cell, (app, ds, p) in zip(cells, keys):
            without = run_cell(CellSpec(app, ds, "Cetus", p))
            with_ = run_cell(CellSpec(app, ds, "Cetus+NewAlgo", p))
            assert (cell.app, cell.dataset, cell.cores) == (app, ds, p)
            assert (cell.t_without, cell.t_with) == (without.parallel_time, with_.parallel_time)

    def test_single_cell_stays_serial(self):
        (run,) = run_cells([CellSpec("SDDMM", "af_shell1", "Cetus", 8)])
        assert run.benchmark == "SDDMM"
        assert run.cores == 8

    def test_cell_spec_roundtrip(self):
        spec = CellSpec("UA(transf)", "B", "Cetus+NewAlgo", 16, "dynamic", 4)
        run = run_cell(spec)
        assert (run.benchmark, run.dataset, run.pipeline, run.cores, run.schedule) == (
            "UA(transf)",
            "B",
            "Cetus+NewAlgo",
            16,
            "dynamic",
        )


class TestFaultTolerance:
    """The loop is fail-soft: a cell that raises is *logged* (never
    silent) and becomes a FailedCell hole instead of killing the table."""

    SPECS = [CellSpec("AMGmk", None, "Cetus+NewAlgo", p) for p in (4, 8)]

    def test_failed_cell_ducktypes_benchrun_and_renders(self):
        import math

        cell = harness._failed_cell(self.SPECS[0], "boom")
        assert math.isnan(cell.speedup) and math.isnan(cell.efficiency)
        assert cell.plan_level == "failed"
        table = harness.format_runs([run_cell(self.SPECS[1]), cell])
        assert "FAIL" in table  # holes render, tables never crash

    def test_serial_cell_crash_becomes_failed_cell(self, monkeypatch, caplog):
        import logging

        def boom(spec, perf_models=None):
            raise ValueError("bad cell")

        monkeypatch.setattr(harness, "run_cell", boom)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.harness"):
            runs = run_cells(self.SPECS)
        assert all(isinstance(r, harness.FailedCell) for r in runs)
        assert all("ValueError" in r.error for r in runs)


class TestPerfModelReuse:
    def test_one_run_cells_call_builds_each_perf_model_once(self, monkeypatch):
        from repro.benchmarks.registry import get_benchmark

        calls = {}
        for name in ("AMGmk", "SDDMM"):
            bench = get_benchmark(name)
            build = bench.perf_model

            def counting(dataset, _build=build, _name=name):
                calls[(_name, dataset)] = calls.get((_name, dataset), 0) + 1
                return _build(dataset)

            monkeypatch.setattr(bench, "perf_model", counting)
        specs = [
            CellSpec(app, ds, pipe, p, sched)
            for app, ds in (("AMGmk", "MATRIX1"), ("AMGmk", None), ("SDDMM", "af_shell1"))
            for pipe in ("Cetus", "Cetus+NewAlgo")
            for p in (4, 16)
            for sched in ("static", "dynamic")
        ]
        runs = run_cells(specs)
        assert len(runs) == len(specs)
        assert all(isinstance(r, harness.BenchRun) for r in runs)
        # dataset None resolves to the default (MATRIX2) before the lookup
        assert calls == {
            ("AMGmk", "MATRIX1"): 1,
            ("AMGmk", "MATRIX2"): 1,
            ("SDDMM", "af_shell1"): 1,
        }
