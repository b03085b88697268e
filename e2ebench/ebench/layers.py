"""Per-layer metrics of a traced run, from spans and cache-counter deltas.

Times and call counts are per operation (the traced operations of the
run), so runs of different length compare.  ``README.md`` lists which
end-to-end metric each of these should move, on which workload.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ebench.tracing import IDX, NAME, PARENT, REPORTED_SPANS, VALUE, outermost_share, self_times, span_totals

#: cache tiers read from ``perfstats`` counters: tier -> (hit counters, miss counters)
CACHE_TIERS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "parse": (("parse_hits",), ("parse_misses",)),
    "analysis": (("analysis_hits",), ("analysis_misses",)),
    "nest": (("nest_hits",), ("nest_misses",)),
    "parallelize": (("parallelize_hits",), ("parallelize_misses",)),
    "nestdec": (("nestdec_hits",), ("nestdec_misses",)),
    "simplify": (("simplify_hits",), ("simplify_misses",)),
    "expand": (("expand_hits",), ("expand_misses",)),
    "affine": (("affine_hits",), ("affine_misses",)),
    "inspect": (("inspect_memo_hits",), ("inspect_passes", "inspect_fails")),
}

#: the root span the benchmark opens around each timed operation
ROOT = "op"


def _names() -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    for span in REPORTED_SPANS:
        out += [(f"{span}.self_ms", "ms"), (f"{span}.calls", "count")]
    out += [
        ("verify.check_certificate.accept_ratio", "ratio"),
        ("parallelizer.fusion.accept_ratio", "ratio"),
    ]
    out += [(f"caches.{tier}.hit_ratio", "ratio") for tier in CACHE_TIERS]
    out += [
        ("caches.evictions", "count"),
        ("runtime.compile.scalar_loops", "count"),
        ("runtime.compile.fallbacks", "count"),
        ("runtime.costmodel.parallel_ratio", "ratio"),
        ("runtime.parbackend.retries", "count"),
        ("runtime.cover_ratio", "ratio"),
        ("repeat.analysis.calls", "count"),
        ("service.rtt_ms", "ms"),
        ("service.server_ms", "ms"),
        ("service.wire_queue_ms", "ms"),
        ("service.frame_cache.hit_ratio", "ratio"),
        ("service.batch_dedup_hits", "count"),
        ("service.overload_rejections", "count"),
        ("service.queue_depth_max", "count"),
        ("unattributed.self_ms", "ms"),
        ("trace.overhead_ms", "ms"),
    ]
    return out


#: every per-layer metric, in ``BENCHMARK.json`` order: name -> unit
PER_LAYER_UNITS: Dict[str, str] = dict(_names())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_delta(before: Mapping[str, Any], after: Mapping[str, Any]) -> Dict[str, float]:
    return {k: after.get(k, 0) - before.get(k, 0) for k in set(before) | set(after)}


def layer_metrics(
    spans: Sequence[list],
    *,
    n_ops: int,
    counters: Mapping[str, float],
    tiers: Mapping[str, float],
    overhead_ms: float,
    service: Optional[Mapping[str, float]] = None,
    n_counted: Optional[int] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER_UNITS` metric; layers not exercised read 0.

    ``spans`` hold one :data:`ROOT` span per traced operation (in-process
    workloads) or the daemon's spans (``service_mix``), and span times
    and calls are divided by ``n_ops``, the traced operations.
    ``counters`` and ``tiers`` are ``perfstats`` deltas over
    ``n_counted`` operations (default ``n_ops``), and per-operation
    counts are divided by that.
    """
    per = max(1, n_ops)
    per_counted = max(1, n_ops if n_counted is None else n_counted)
    totals = span_totals(spans)
    out: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    for span in REPORTED_SPANS:
        t = totals.get(span)
        if t:
            out[f"{span}.self_ms"] = t["self_ms"] / per
            out[f"{span}.calls"] = t["calls"] / per
    for key, span in (
        ("verify.check_certificate.accept_ratio", "verify.check_certificate"),
        ("parallelizer.fusion.accept_ratio", "verify.check_fusion_step"),
    ):
        values = totals.get(span, {}).get("values", [])
        out[key] = _ratio(sum(values), len(values))
    plans = totals.get("runtime.plan_program", {}).get("values", [])
    out["runtime.costmodel.parallel_ratio"] = _ratio(sum(p for p, _ in plans), sum(n for _, n in plans))
    chunks = totals.get("runtime.WorkerPool.run_chunks", {}).get("calls", 0)
    loops = totals.get("runtime.WorkerPool.run_loop", {}).get("calls", 0)
    out["runtime.parbackend.retries"] = max(0, chunks - loops) / per
    for tier, (hits, misses) in CACHE_TIERS.items():
        h = sum(counters.get(k, 0) for k in hits)
        m = sum(counters.get(k, 0) for k in misses)
        out[f"caches.{tier}.hit_ratio"] = _ratio(h, h + m)
    out["caches.evictions"] = counters.get("cache_evictions", 0) / per_counted
    out["runtime.compile.scalar_loops"] = tiers.get("scalar", 0) / per_counted
    out["runtime.compile.fallbacks"] = tiers.get("interp-fallback", 0) / per_counted
    out["runtime.cover_ratio"] = outermost_share(spans, "runtime.", ROOT)
    out["repeat.analysis.calls"] = _repeat_analysis_calls(spans)
    selfs = self_times(spans)
    roots = [s for s in spans if s[PARENT] < 0]
    out["unattributed.self_ms"] = sum(selfs[s[IDX]] for s in roots) / 1e6 / per
    out["trace.overhead_ms"] = overhead_ms
    out.update(service or {})
    return out


def _repeat_analysis_calls(spans: Sequence[list]) -> float:
    """``analysis.*`` calls per operation of kind ``repeat``."""
    by_idx = {s[IDX]: s for s in spans}
    repeats = sum(1 for s in spans if s[NAME] == ROOT and str(s[VALUE]).startswith("repeat/"))
    calls = 0
    for s in spans:
        if not s[NAME].startswith("analysis."):
            continue
        p = s
        while p[PARENT] >= 0 and p[PARENT] in by_idx:
            p = by_idx[p[PARENT]]
        if p[NAME] == ROOT and str(p[VALUE]).startswith("repeat/"):
            calls += 1
    return _ratio(calls, repeats)
