"""Tests of the benchmark itself: streams, metric arithmetic, spans, names.

    PYTHONPATH=src python3 -m pytest e2ebench/tests -q
"""

import json
import math
import shutil
import statistics
import subprocess
import sys

import pytest

from ebench import layers, metrics, streams, tracing, workloads
from ebench.tracing import Tracer

BENCH_DIR = workloads.__file__.rsplit("/ebench/", 1)[0]
ROOT = BENCH_DIR.rsplit("/", 1)[0]


def spec():
    with open(f"{ROOT}/BENCHMARK.json") as fh:
        return json.load(fh)


# -- streams -------------------------------------------------------------------


def test_round_order_is_a_pure_function_of_seed_and_round():
    items = list(range(40))
    assert streams.round_order(7, 3, items) == streams.round_order(7, 3, items)
    assert sorted(streams.round_order(7, 3, items)) == items
    assert streams.round_order(7, 3, items) != streams.round_order(7, 4, items)
    assert streams.round_order(7, 3, items) != streams.round_order(8, 3, items)


def test_round_order_does_not_depend_on_hash_seed():
    code = "from ebench import streams; print(streams.round_order(5, 2, list('abcdefgh')))"
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], env={"PYTHONHASHSEED": h, "PYTHONPATH": BENCH_DIR},
            capture_output=True, text=True, check=True,
        ).stdout
        for h in ("1", "2")
    }
    assert len(outs) == 1


def test_edits_are_deterministic_and_unique():
    src = workloads.registry()[0].source
    at = streams.nest_body_offsets(src)[0]
    assert streams.format_edit(src, 1, 5) == streams.format_edit(src, 1, 5)
    assert streams.format_edit(src, 1, 5) != streams.format_edit(src, 2, 5)
    assert streams.semantic_edit(src, at, 5) == streams.semantic_edit(src, at, 5)
    fmts = {streams.format_edit(src, 1, i) for i in range(50)}
    sems = {streams.semantic_edit(src, at, i) for i in range(50)}
    assert len(fmts) == 50 and len(sems) == 50
    assert src not in fmts | sems


def test_nest_body_offsets_finds_braced_top_level_loops_only():
    src = "x = 0;\nfor (i = 0; i < n; i++) {\n  for (j = 0; j < n; j++) { a[j] = 1; }\n}\nfor (k = 0; k < n; k++) b[k] = 2;\n"
    offsets = streams.nest_body_offsets(src)
    assert len(offsets) == 1
    assert src[offsets[0] - 1] == "{" and src.rfind("for", 0, offsets[0]) == src.index("for (i")


@pytest.mark.parametrize("bench", workloads.registry(), ids=lambda b: b.name)
def test_every_edit_site_is_checked_up_front(bench):
    assert workloads.edit_site_failures(bench.name, bench.source) == []


def test_generated_edits_change_the_claimed_number_of_nests():
    for bench in workloads.registry()[:4]:
        base_prog, base_nests = workloads.nest_fingerprints(bench.source)
        offsets = streams.nest_body_offsets(bench.source)
        for i in range(5):
            prog, nests = workloads.nest_fingerprints(streams.format_edit(bench.source, 3, i))
            assert prog == base_prog and nests == base_nests
            for at in offsets:
                _, nests = workloads.nest_fingerprints(streams.semantic_edit(bench.source, at, i))
                assert sum(a != b for a, b in zip(nests, base_nests)) == 1


def test_renamed_programs_keep_their_verdicts():
    from repro.parallelizer import parallelize

    for bench in workloads.registry():
        renamed = workloads.rename(bench.source, 42)
        assert renamed != bench.source
        got = [d[:2] for d in workloads.detail(parallelize(renamed))]
        assert got == [d[:2] for d in workloads.detail(parallelize(bench.source))]


# -- metric arithmetic -------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    assert metrics.percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert metrics.percentile([5], 90) == 5
    xs = [float(x) for x in range(11)]
    assert metrics.percentile(xs, 90) == pytest.approx(9.0)
    assert metrics.percentile([1.0, 2.0], 90) == pytest.approx(1.9)


def test_p50_geomean_is_the_geometric_mean_of_class_medians():
    samples = {"a": [0.001, 0.002, 0.003], "b": [0.008, 0.008, 0.008], "c": [0.004]}
    starts = {"a": [0.0, 0.1, 0.2], "b": [0.0, 0.1, 0.2], "c": [0.3]}
    m = metrics.end_to_end(
        samples, starts, busy=[(0.0, 1.5), (0.3, 0.5)], scale=None, setup_probes_s=[3.0, 1.0, 2.0],
        peak_rss_mb=50.0, attempted=8, failed=1,
    )
    assert m["p50_geomean_ms"] == pytest.approx((2 * 8 * 4) ** (1 / 3))
    assert m["throughput_per_s"] == pytest.approx(7 / 2.0)
    assert m["setup_s"] == 2.0
    assert m["success_ratio"] == pytest.approx(7 / 8)
    assert list(m) == list(metrics.END_TO_END_UNITS)


def test_speed_scale_takes_times_to_the_reference_speed():
    # before the first operation the yardstick ran at twice its nominal time
    # (host at half speed); a batch's median counts, not its outliers
    yard = [(0.0, [0.004]), (0.2, [0.004, 0.004, 0.9]), (4.0, [0.002]), (4.3, [0.002])]
    scale = metrics.speed_scale(yard, 0.002)
    assert scale(0.1, 0.15) == pytest.approx(0.5)
    assert scale(4.1, 4.2) == pytest.approx(1.0)
    assert scale(0.3, 3.0) == pytest.approx(2 / 3)  # the mean of 0.004 and 0.002
    assert scale(4.5, 4.6) == pytest.approx(1.0)  # no batch after it
    samples, starts = {"a": [0.010, 0.010]}, {"a": [0.05, 4.1]}
    m = metrics.end_to_end(
        samples, starts, busy=[(0.05, 0.010), (4.1, 0.010)], scale=scale, setup_probes_s=[1.0],
        peak_rss_mb=1.0, attempted=2, failed=0,
    )
    # 10 ms at half speed is 5 ms at the reference speed
    assert m["p50_geomean_ms"] == pytest.approx((5.0 + 10.0) / 2)
    assert m["throughput_per_s"] == pytest.approx(2 / 0.015)


def test_yardstick_is_the_benchmarks_own_code():
    from ebench import yardstick

    assert yardstick.run() > 0
    code = "import sys; from ebench import yardstick; yardstick.run(); print(sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": BENCH_DIR}, capture_output=True, text=True, check=True
    ).stdout
    assert "repro" not in out and "numpy" not in out


def test_class_rows_count_samples_beyond_p90():
    rows = metrics.class_rows({"x": [float(i) for i in range(101)]}, {"x": [0.0] * 101})
    assert rows[0]["n"] == 101 and rows[0]["beyond_p90"] == 10
    assert rows[0]["p90_ms"] == pytest.approx(90e3, rel=0.01)


def test_windowed_median_averages_window_medians():
    # a fast burst covering 60% of the run: the run-wide median sits in the
    # fast cluster, the windowed median in proportion between the two
    starts = [i * 0.1 for i in range(200)]
    values = [1.0 if t < 12 else 2.0 for t in starts]
    assert metrics.percentile(values, 50) == pytest.approx(1.0, abs=0.01)
    assert metrics.windowed_median(starts, values, window_s=2.0) == pytest.approx(0.6 * 1.0 + 0.4 * 2.0)
    assert metrics.windowed_median([0.0, 5.0], [3.0, 5.0], window_s=2.0) == 4.0


def test_spread_uses_statistics_quantiles():
    xs = [10.0, 11.0, 9.5, 10.5, 12.0, 10.2, 9.9, 10.1, 10.4, 10.8]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    s = metrics.spread(xs)
    assert s["iqr_share"] == pytest.approx((q3 - q1) / statistics.median(xs))
    assert s["min"] == 9.5 and s["max"] == 12.0


def test_spread_report_holds_setup_s_to_its_bound(capsys):
    sys.path.insert(0, BENCH_DIR)
    import spread as spread_script

    steady = [{name: 1.0 + 0.001 * i for name in metrics.END_TO_END_UNITS} for i in range(10)]
    assert spread_script.report({"w": steady}, spec())
    capsys.readouterr()
    noisy = [dict(run, setup_s=1.0 + i) for i, run in enumerate(steady)]
    assert not spread_script.report({"w": noisy}, spec())
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("w/setup_s")]
    assert rows and rows[0].endswith("OVER BOUND")


def test_geomean_rejects_non_positive_values():
    with pytest.raises(ValueError):
        metrics.geomean([1.0, 0.0])
    assert math.isclose(metrics.geomean([2.0, 8.0]), 4.0)


# -- spans ---------------------------------------------------------------------------


def _span(name, start, end, parent, idx, value=None):
    return [name, start, end, parent, 1, value, idx]


def test_self_time_subtracts_child_spans():
    spans = [
        _span("op", 0, 100, -1, 0),
        _span("a", 10, 60, 0, 1),
        _span("b", 20, 30, 1, 2),
        _span("b", 35, 45, 1, 3),
        _span("c", 70, 90, 0, 4),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 30, 1: 30, 2: 10, 3: 10, 4: 20}
    totals = tracing.span_totals(spans)
    assert totals["b"]["calls"] == 2 and totals["b"]["self_ms"] == pytest.approx(20 / 1e6)


def test_layer_metrics_are_per_operation():
    spans = [
        _span("op", 0, 4_000_000, -1, 0, "repeat/x"),
        _span("parallelizer.parallelize", 0, 3_000_000, 0, 1),
        _span("verify.check_certificate", 0, 1_000_000, 1, 2, True),
        _span("op", 5_000_000, 6_000_000, -1, 3, "edit/x"),
        _span("analysis.run_phase1", 5_000_000, 5_500_000, 3, 4),
        _span("verify.check_certificate", 5_500_000, 5_600_000, 3, 5, False),
    ]
    m = layers.layer_metrics(
        spans, n_ops=2, counters={"nest_hits": 3, "nest_misses": 1}, tiers={"scalar": 4}, overhead_ms=0.5
    )
    assert set(m) == set(layers.PER_LAYER_UNITS)
    assert m["parallelizer.parallelize.self_ms"] == pytest.approx(1.0)
    assert m["verify.check_certificate.calls"] == 1.0
    assert m["verify.check_certificate.accept_ratio"] == 0.5
    assert m["caches.nest.hit_ratio"] == 0.75
    assert m["runtime.compile.scalar_loops"] == 2.0
    assert m["unattributed.self_ms"] == pytest.approx((1.0 + 0.4) / 2)
    assert m["repeat.analysis.calls"] == 0.0
    # counters that cover untraced operations too are divided by all of them
    m = layers.layer_metrics(
        spans, n_ops=2, n_counted=8, counters={"cache_evictions": 4}, tiers={"scalar": 4}, overhead_ms=0.5
    )
    assert m["caches.evictions"] == 0.5 and m["runtime.compile.scalar_loops"] == 0.5
    assert m["verify.check_certificate.calls"] == 1.0


def test_tracer_patches_import_time_bindings_and_restores_them():
    import repro.parallelizer
    from repro.analysis import analyzer, phase1

    original = analyzer.run_phase1
    tracer = Tracer()
    tracer.install()
    try:
        assert analyzer.run_phase1 is not original and phase1.run_phase1 is not original
        root = tracer.begin(layers.ROOT, "x")
        repro.parallelizer.parallelize("for (i = 0; i < n; i++) { a[i] = b[i] + 1; }\n")
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert analyzer.run_phase1 is original and phase1.run_phase1 is original
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"parallelizer.parallelize", "analysis.analyze_program", "analysis.run_phase1"} <= names
    by_idx = {s[tracing.IDX]: s for s in tracer.spans}
    for s in tracer.spans:
        if s[tracing.NAME] != layers.ROOT:
            assert s[tracing.PARENT] in by_idx


def test_chrome_trace_is_trace_event_json(tmp_path):
    path = tmp_path / "t.json"
    tracing.write_chrome_trace(str(path), [(7, [_span("op", 1000, 3000, -1, 0, "a/b")])])
    events = json.loads(path.read_text())["traceEvents"]
    assert events == [
        {"name": "op", "cat": "op", "ph": "X", "ts": 0.0, "dur": 2.0, "pid": 7, "tid": 1, "args": {"value": "a/b"}}
    ]


# -- names and contract -----------------------------------------------------------------


def test_printed_metric_names_match_benchmark_json():
    s = spec()
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == metrics.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == layers.PER_LAYER_UNITS
    assert [m["name"] for m in s["per_layer"]] == list(layers.PER_LAYER_UNITS)


def test_benchmark_json_workloads_match_the_runner():
    sys.path.insert(0, BENCH_DIR)
    import run

    gated = [w["name"] for w in spec()["workloads"]]
    assert gated == [w for w in run.WORKLOADS if w != "warm_edit"]
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copy(f"{ROOT}/BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "cold_compile", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
