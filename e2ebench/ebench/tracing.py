"""Spans recorded from outside the program, at the bindings callers use.

A :class:`Tracer` wraps the public functions of each layer.  A module
that did ``from x import f`` at import time holds its own reference to
``f`` (``analyzer.py`` binds ``run_phase1``, ``run_phase2``,
``parse_program`` and ``normalize_program`` that way), so patching only
the defining module would miss those calls.  :meth:`Tracer.install`
therefore replaces every module-level binding of the original object in
``repro.*`` and ``ebench.*``, and methods on their class.

Spans stay in memory: one small list per call holding the name, start
and end (``perf_counter_ns``), the parent span and the thread.  Self time
is a span's duration minus the durations of its child spans.  At the end
they can be written as Chrome trace-event JSON, which Perfetto and
``chrome://tracing`` open.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def _ok(result: Any) -> Any:
    return bool(getattr(result, "ok", False))


def _plan_split(plans: Any) -> Any:
    plans = list(plans or ())
    return (sum(1 for p in plans if p.choice == "compiled-parallel"), len(plans))


#: (span name, module, attribute path, result hook).  The hook turns the
#: return value into the span's recorded value (a verdict or a count).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[[Any], Any]]], ...] = (
    ("lang.parse_program", "repro.lang.cparser", "parse_program", None),
    ("analysis.normalize_program", "repro.analysis.normalize", "normalize_program", None),
    ("analysis.analyze_program", "repro.analysis.analyzer", "analyze_program", None),
    ("analysis.run_phase1", "repro.analysis.phase1", "run_phase1", None),
    ("analysis.run_phase2", "repro.analysis.phase2", "run_phase2", None),
    ("analysis.propagate_ranges", "repro.analysis.rangeprop", "propagate_ranges", None),
    ("dependence.collect_accesses", "repro.dependence.accesses", "collect_accesses", None),
    ("dependence.classic_independent", "repro.dependence.classic", "classic_independent", None),
    ("dependence.extended_independent", "repro.dependence.extended", "extended_independent", None),
    ("verify.check_certificate", "repro.verify.checker", "check_certificate", _ok),
    ("verify.check_fusion_step", "repro.verify.checker", "check_fusion_step", _ok),
    ("verify.loop_effects", "repro.verify.effects", "loop_effects", None),
    ("verify.classify_loop", "repro.verify.staticrace", "classify_loop", None),
    ("parallelizer.parallelize", "repro.parallelizer.driver", "parallelize", None),
    ("parallelizer.propose_fusions", "repro.parallelizer.fusion", "propose_fusions", len),
    ("parallelizer.emit_openmp", "repro.parallelizer.codegen", "emit_openmp", None),
    ("caches.clone", "repro.parallelizer.driver", "ParallelizationResult.clone", None),
    ("caches.clone", "repro.analysis.analyzer", "AnalysisResult.clone", None),
    ("cache.load", "repro.cache", "load", None),
    ("cache.store", "repro.cache", "store", None),
    ("runtime.compile_program", "repro.runtime.compile", "compile_program", None),
    ("runtime.apply_fusion", "repro.runtime.fuse", "apply_fusion", None),
    ("runtime.plan_program", "repro.runtime.costmodel", "plan_program", _plan_split),
    ("runtime.CompiledProgram.run", "repro.runtime.compile", "CompiledProgram.run", None),
    ("runtime.WorkerPool.ensure_program", "repro.runtime.parbackend", "WorkerPool.ensure_program", None),
    ("runtime.WorkerPool.adopt_env", "repro.runtime.parbackend", "WorkerPool.adopt_env", None),
    ("runtime.WorkerPool.run_loop", "repro.runtime.parbackend", "WorkerPool.run_loop", None),
    ("runtime.WorkerPool.release_env", "repro.runtime.parbackend", "WorkerPool.release_env", None),
    ("runtime.WorkerPool.run_chunks", "repro.runtime.parbackend", "WorkerPool._run_chunks", None),
    ("runtime.dispatch_check", "repro.runtime.inspector", "dispatch_check", None),
)

#: the spans whose self time and call count are reported per operation
REPORTED_SPANS = tuple(
    dict.fromkeys(
        name
        for name, *_ in TARGETS
        if name not in ("verify.check_fusion_step", "runtime.WorkerPool.run_chunks")
    )
)

_SCANNED_PREFIXES = ("repro", "ebench")

# span record fields
NAME, START, END, PARENT, TID, VALUE, IDX = range(7)


class Tracer:
    """In-memory span recorder that patches itself in and out."""

    def __init__(self, targets: Sequence[Tuple[str, str, str, Optional[Callable]]] = TARGETS):
        self.targets = targets
        #: span records: [name, start_ns, end_ns, parent index, thread id, value, index]
        self.spans: List[list] = []
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._wrappers: Dict[int, Callable] = {}
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str, value: Any = None) -> list:
        """Open a span by hand (the benchmark's per-operation root)."""
        st = self._stack()
        idx = next(self._ids)
        rec = [name, time.perf_counter_ns(), 0, st[-1] if st else -1, threading.get_ident(), value, idx]
        self.spans.append(rec)
        st.append(idx)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack().pop()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    rec[VALUE] = hook(out)
                return out
            finally:
                tracer.end(rec)

        traced.__wrapped_original__ = fn  # type: ignore[attr-defined]
        return traced

    # -- patching -------------------------------------------------------------

    def _resolve(self, module: str, path: str) -> Tuple[Any, str, Any]:
        owner: Any = importlib.import_module(module)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        return owner, attr, getattr(fn, "__wrapped_original__", fn)

    def install(self) -> None:
        """Replace every binding of each target with its traced wrapper."""
        if self._patched:
            self.active = True
            return
        originals: Dict[int, Tuple[str, Callable, Optional[Callable]]] = {}
        for name, module, path, hook in self.targets:
            owner, attr, fn = self._resolve(module, path)
            if isinstance(owner, type):
                self._patch(owner, attr, self._wrapper(name, fn, hook))
            else:
                originals[id(fn)] = (name, fn, hook)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "") or ""
            if not modname.startswith(_SCANNED_PREFIXES) or modname == __name__:
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[1] is value:
                    self._patch(mod, attr, self._wrapper(*hit))
        self.active = True

    def _wrapper(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        w = self._wrappers.get(id(fn))
        if w is None:
            w = self._wrappers[id(fn)] = self.wrap(name, fn, hook)
        return w

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back."""
        self.active = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def write_chrome_trace(path: str, groups: Sequence[Tuple[int, List[list]]], limit: int = 300_000) -> None:
    """``groups`` are ``(pid, spans)`` pairs; spans past ``limit`` are dropped."""
    t0 = min((s[START] for _, spans in groups for s in spans), default=0)
    events = []
    for pid, spans in groups:
        for s in spans:
            if len(events) >= limit:
                break
            ev = {
                "name": s[NAME],
                "cat": s[NAME].split(".")[0],
                "ph": "X",
                "ts": (s[START] - t0) / 1e3,
                "dur": (s[END] - s[START]) / 1e3,
                "pid": pid,
                "tid": s[TID] % 1_000_000,
            }
            if s[VALUE] is not None:
                ev["args"] = {"value": s[VALUE]}
            events.append(ev)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    os.replace(tmp, path)


def self_times(spans: Sequence[list]) -> Dict[int, int]:
    """Span index -> self time in ns (duration minus child durations)."""
    child: Dict[int, int] = {}
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] = child.get(s[PARENT], 0) + (s[END] - s[START])
    return {s[IDX]: (s[END] - s[START]) - child.get(s[IDX], 0) for s in spans}


def span_totals(spans: Sequence[list]) -> Dict[str, Dict[str, Any]]:
    """Per span name: calls, total self ms and recorded values."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, Any]] = {}
    for s in spans:
        t = out.setdefault(s[NAME], {"calls": 0, "self_ms": 0.0, "values": []})
        t["calls"] += 1
        t["self_ms"] += selfs[s[IDX]] / 1e6
        if s[VALUE] is not None:
            t["values"].append(s[VALUE])
    return out


def outermost_share(spans: Sequence[list], prefix: str, root_name: str) -> float:
    """Share of root-span time covered by the outermost ``prefix`` spans."""
    by_idx = {s[IDX]: s for s in spans}
    covered = 0
    total = 0
    for s in spans:
        if s[NAME] == root_name:
            total += s[END] - s[START]
            continue
        if not s[NAME].startswith(prefix):
            continue
        p = by_idx.get(s[PARENT])
        outermost = True
        while p is not None:
            if p[NAME].startswith(prefix):
                outermost = False
                break
            p = by_idx.get(p[PARENT])
        if outermost:
            covered += s[END] - s[START]
    return covered / total if total else 0.0
