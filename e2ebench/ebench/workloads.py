"""The workloads: set-up, seeded rounds of timed operations, and checks.

A workload object is driven by :mod:`ebench.worker`:

* :meth:`setup` imports the program and primes it; the worker times it
  as ``setup_s`` (benchmark-only checks excluded, see ``check_s``);
* :meth:`round` gives round ``r`` as a seeded list of operations, every
  class appearing in every round;
* per operation, :meth:`prepare` runs outside the timer, :meth:`run`
  inside it, and :meth:`check` outside it again;
* :meth:`finish` runs the checks that need the whole run (oracles in a
  separate process, leaked children or shared memory) and tears down.

Each operation is a tuple whose first item is its class.  The program
only ever sees generated sources and input arrays.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ebench import streams

#: the pipeline whose ``expected_levels`` the verdicts are checked against
PIPELINE = "Cetus+NewAlgo"

#: kernels with a paper-scale ``exec_env``, and the module holding each
#: kernel's hand-written NumPy ``reference(env)`` and its output array
EXEC_KERNELS = {
    "AMGmk": ("amgmk", "y_data"),
    "UA(transf)": ("ua_transf", "tx"),
    "CG": ("cg", "w"),
    "SDDMM": ("sddmm", "p"),
    "syrk": ("syrk", "C"),
    "IS": ("is_bench", "keyden"),
}
EXEC_BACKENDS = ("compiled", "compiled-parallel", "auto")

#: float tolerance for kernel outputs: chunked parallel reductions
#: reassociate sums, so results may differ in the last digits
RTOL, ATOL = 1e-9, 1e-12


def detail(result) -> List[Any]:
    """Per loop in program order: parallel, certificate accepted and the
    reason; then each fusion's verdict and reason.  Loop ids are masked."""
    return [
        [bool(d.parallel), bool(d.certificate_verified), streams.strip_loop_ids(str(d.reason))]
        for d in result.decisions.values()
    ] + [[bool(f.verified), streams.strip_loop_ids(str(f.reason))] for f in result.fusions]


def registry() -> List[Any]:
    from repro.benchmarks import all_benchmarks

    return list(all_benchmarks())


def expected_failures(bench, result) -> List[str]:
    """Check one registry result against its Figure-17 level and tier pins."""
    from repro.runtime.compile import compile_program
    from repro.runtime.simulate import plan_from_decisions

    out = []
    plan = plan_from_decisions(bench.perf_model(bench.default_dataset), result)
    main = plan.per_component.get(bench.main_component)
    level = main.level if main else "serial"
    if level != bench.expected_levels[PIPELINE]:
        out.append(f"{bench.name}: level {level} != expected {bench.expected_levels[PIPELINE]}")
    cp = compile_program(result.program, result.decisions)
    got = Counter(cp.loop_tiers.values())
    for tier, n in bench.expected_tiers.items():
        if got[tier] < n:
            out.append(f"{bench.name}: {got[tier]} {tier} loop(s) < expected {n}")
    return out


def nest_fingerprints(text: str) -> Tuple[str, List[str]]:
    """Whole-program fingerprint and per-nest fingerprints, as the analysis sees them."""
    from repro.analysis.loopinfo import find_loop_nests
    from repro.analysis.normalize import normalize_program
    from repro.lang.cparser import parse_program
    from repro.lang.digest import node_fingerprint

    prog = parse_program(text)
    nests = find_loop_nests(normalize_program(prog))
    return node_fingerprint(prog), [node_fingerprint(n.loop) for n in nests]


def edit_site_failures(name: str, src: str) -> List[str]:
    """Check every edit site of one program up front.

    A formatting edit is a comment line at some line boundary plus extra
    indentation of some line; each possible comment position and each
    re-indented line must leave the parsed program identical (so 0 nest
    fingerprints change).  A semantic edit at each braced top-level nest
    must change exactly one nest fingerprint.
    """
    out = []
    base_prog, base_nests = nest_fingerprints(src)
    lines = src.split("\n")
    for at in range(len(lines) + 1):
        text = "\n".join(lines[:at] + ["/* edit 0.0 */"] + lines[at:])
        if nest_fingerprints(text)[0] != base_prog:
            out.append(f"{name}: comment at line {at} changes the program")
    for at in range(len(lines)):
        text = "\n".join(lines[:at] + ["    " + lines[at]] + lines[at + 1:])
        if nest_fingerprints(text)[0] != base_prog:
            out.append(f"{name}: indenting line {at} changes the program")
    offsets = streams.nest_body_offsets(src)
    if not offsets:
        out.append(f"{name}: no braced top-level nest to edit")
    for k, offset in enumerate(offsets):
        _, nests = nest_fingerprints(streams.semantic_edit(src, offset, 0))
        changed = sum(1 for a, b in zip(nests, base_nests) if a != b) + abs(len(nests) - len(base_nests))
        if changed != 1:
            out.append(f"{name}: semantic edit at nest site {k} changes {changed} nest fingerprints")
    return out


def run_oracle(texts: Dict[str, str]) -> Dict[str, Any]:
    """From-scratch :func:`detail` of each text, computed in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-m", "ebench.oracle"],
        input=json.dumps(texts),
        capture_output=True,
        text=True,
        timeout=150,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"oracle process failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


class Workload:
    """Common shape; see the module docstring."""

    name = ""
    #: rounds per second of ``--seconds``: a round's rate on the reference host
    ROUNDS_PER_S = 1.0

    def __init__(self, seed: int, nproc: int, trace: bool = False):
        self.seed = seed
        self.nproc = nproc
        self.trace = trace
        #: seconds of set-up spent on benchmark-only checks (not ``setup_s``)
        self.check_s = 0.0
        self.failures: List[str] = []
        self.notes: Dict[str, Any] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> List[tuple]:
        raise NotImplementedError

    def prepare(self, op: tuple) -> Any:
        return None

    def run(self, op: tuple, arg: Any) -> Any:
        raise NotImplementedError

    def check(self, op: tuple, out: Any) -> Optional[str]:
        return None

    def finish(self, measured: bool) -> None:
        """Whole-run checks and teardown; failures go to ``self.failures``."""

    def peak_rss_mb(self) -> float:
        """VmHWM of the process under test (here: this process)."""
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ColdCompile(Workload):
    """``parallelize`` + ``emit_openmp`` + ``compile_program``, caches cleared."""

    name = "cold_compile"
    ROUNDS_PER_S = 4.0

    def setup(self) -> None:
        from repro.ir import perfstats
        from repro.parallelizer import codegen, driver
        from repro.runtime import compile as lowering

        self._clear = perfstats.clear_all
        # call through the modules so a traced run sees its patched bindings
        self._driver, self._codegen, self._lowering = driver, codegen, lowering
        self.benches = {b.name: b for b in registry()}
        self.expected: Dict[str, Any] = {}
        results = {}
        for name, bench in self.benches.items():
            self._clear()
            results[name] = out = self.run((name, "compile"), None)
            self.expected[name] = self._signature(out)
        t = time.perf_counter()
        for name, bench in self.benches.items():
            self.failures += expected_failures(bench, results[name][0])
        self.check_s += time.perf_counter() - t

    @staticmethod
    def _signature(out) -> Any:
        result, text, cp = out
        return (
            detail(result),
            streams.strip_loop_ids(text),
            cp.backend,
            sorted(Counter(cp.loop_tiers.values()).items()),
        )

    def round(self, r: int) -> List[tuple]:
        return [(name, "compile") for name in streams.round_order(self.seed, r, sorted(self.benches))]

    def prepare(self, op: tuple) -> Any:
        self._clear()

    def run(self, op: tuple, arg: Any) -> Any:
        result = self._driver.parallelize(self.benches[op[0]].source)
        text = self._codegen.emit_openmp(result)
        cp = self._lowering.compile_program(result.program, result.decisions, fusions=result.fusions)
        return result, text, cp

    def check(self, op: tuple, out: Any) -> Optional[str]:
        if self._signature(out) != self.expected[op[0]]:
            return f"{op[0]}: cold compile output differs from the first compile"
        return None


class WarmEdit(Workload):
    """In-process ``parallelize`` of repeats and single-nest edits, caches warm."""

    name = "warm_edit"
    #: per program per round: ``REPEATS`` exact repeats, one formatting
    #: edit, and one semantic edit at each of its editable nests; that is
    #: 240 repeats, 12 formatting and 18 semantic edits (89% repeats)
    REPEATS = 20
    ROUNDS_PER_S = 2.2
    #: semantic and formatting edits re-checked from scratch as actual
    #: texts, beyond the base programs and one text per edit site
    SEM_SAMPLE = 48
    FMT_SAMPLE = 12

    def setup(self) -> None:
        from repro.ir import perfstats
        from repro.parallelizer import driver

        self._driver = driver
        self.benches = {b.name: b for b in registry()}
        self.names = sorted(self.benches)
        self.offsets = {n: streams.nest_body_offsets(b.source) for n, b in self.benches.items()}
        t = time.perf_counter()
        for name, bench in self.benches.items():
            self.failures += edit_site_failures(name, bench.source)
        perfstats.clear_all()
        self.check_s += time.perf_counter() - t
        self.base = {}
        results = {}
        for name, bench in self.benches.items():
            results[name] = driver.parallelize(bench.source)
            self.base[name] = detail(results[name])
        t = time.perf_counter()
        for name, bench in self.benches.items():
            self.failures += expected_failures(bench, results[name])
        self.check_s += time.perf_counter() - t
        #: (program, site, edit index, observed detail) of every semantic edit
        self.semantic: List[Tuple[str, int, int, Any]] = []
        #: (program, edit index, observed detail) of every formatting edit
        self.formats: List[Tuple[str, int, Any]] = []
        self.edits_per_round = sum(1 + len(v) for v in self.offsets.values())

    def round(self, r: int) -> List[tuple]:
        ops: List[tuple] = []
        index = r * self.edits_per_round
        for name in self.names:
            src = self.benches[name].source
            ops += [(f"repeat/{name}", "repeat", name, src)] * self.REPEATS
            ops.append((f"edit_format/{name}", "edit_format", name, streams.format_edit(src, self.seed, index), index))
            index += 1
            for site, offset in enumerate(self.offsets[name]):
                ops.append(
                    (f"edit_semantic/{name}#{site}", "edit_semantic", name, streams.semantic_edit(src, offset, index), index, site)
                )
                index += 1
        return streams.round_order(self.seed, r, ops)

    def run(self, op: tuple, arg: Any) -> Any:
        return self._driver.parallelize(op[3])

    def check(self, op: tuple, out: Any) -> Optional[str]:
        got = detail(out)
        if op[1] == "edit_semantic":
            self.semantic.append((op[2], op[5], op[4], got))
            return None
        if op[1] == "edit_format":
            self.formats.append((op[2], op[4], got))
        if got != self.base[op[2]]:
            return f"{op[0]}: verdicts differ from the primed program"
        return None

    def finish(self, measured: bool) -> None:
        from repro.ir import perfstats

        if not measured:
            return
        self.notes["distinct_edits"] = len(self.semantic) + len(self.formats)
        self.notes["cache_cap"] = perfstats.cache_max_entries()
        texts = {f"base/{n}": b.source for n, b in self.benches.items()}
        for n in self.names:
            for site, offset in enumerate(self.offsets[n]):
                texts[f"site/{n}/{site}"] = streams.semantic_edit(self.benches[n].source, offset, 0)
        rng = streams.rng_for("oracle", self.seed)
        sem = rng.sample(self.semantic, min(self.SEM_SAMPLE, len(self.semantic)))
        fmt = rng.sample(self.formats, min(self.FMT_SAMPLE, len(self.formats)))
        for name, site, index, _ in sem:
            texts[f"sem/{index}"] = streams.semantic_edit(self.benches[name].source, self.offsets[name][site], index)
        for name, index, _ in fmt:
            texts[f"fmt/{index}"] = streams.format_edit(self.benches[name].source, self.seed, index)
        scratch = run_oracle(texts)
        for n in self.names:
            if scratch[f"base/{n}"] != self.base[n]:
                self.failures.append(f"{n}: primed verdicts differ from a from-scratch run")
        for name, site, index, got in self.semantic:
            if got != scratch.get(f"sem/{index}", scratch[f"site/{name}/{site}"]):
                self.failures.append(f"{name}: semantic edit {index} differs from a from-scratch run")
        for name, index, got in fmt:
            if got != scratch[f"fmt/{index}"]:
                self.failures.append(f"{name}: formatting edit {index} differs from a from-scratch run")
        self.notes["oracle_texts"] = len(texts)


class Execute(Workload):
    """``execute`` of the paper-scale kernels under three backends."""

    name = "execute"
    ROUNDS_PER_S = 1.0

    def setup(self) -> None:
        import multiprocessing

        from repro.benchmarks import get_benchmark
        from repro.parallelizer import parallelize
        from repro.runtime import compile as lowering
        from repro.runtime import costmodel
        from repro.runtime.parbackend import get_pool

        self._lowering = lowering
        self._mp = multiprocessing
        self.benches = {n: get_benchmark(n) for n in EXEC_KERNELS}
        self.envs = {n: b.paper_env() for n, b in self.benches.items()}
        self.results = {n: parallelize(b.source) for n, b in self.benches.items()}
        costmodel.get_calibration()
        get_pool(self.nproc)
        self.segments: set = set()
        for op in self.round(-1):
            self.run(op, self.prepare(op))
        t = time.perf_counter()
        self.refs = {}
        for n, (module, key) in EXEC_KERNELS.items():
            mod = importlib.import_module(f"repro.benchmarks.{module}")
            self.refs[n] = np.asarray(mod.reference(self.envs[n]))
        self._note_segments()
        self.check_s += time.perf_counter() - t

    def _note_segments(self) -> None:
        from repro.runtime.parbackend import live_segments

        self.segments.update(live_segments())

    def round(self, r: int) -> List[tuple]:
        ops = [(f"{k}/{b}", b, k) for k in EXEC_KERNELS for b in EXEC_BACKENDS]
        return streams.round_order(self.seed, r, ops)

    def prepare(self, op: tuple) -> Any:
        return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in self.envs[op[2]].items()}

    def run(self, op: tuple, env: Any) -> Any:
        res = self.results[op[2]]
        return self._lowering.execute(
            res.program, env, decisions=res.decisions, backend=op[1], threads=self.nproc, fusions=res.fusions
        )

    def check(self, op: tuple, out: Any) -> Optional[str]:
        self._note_segments()
        got = np.asarray(out[EXEC_KERNELS[op[2]][1]])
        want = self.refs[op[2]]
        if got.shape != want.shape:
            return f"{op[0]}: output shape {got.shape} != reference {want.shape}"
        if np.issubdtype(want.dtype, np.integer):
            ok = np.array_equal(got, want)
        else:
            ok = np.allclose(got, want, rtol=RTOL, atol=ATOL)
        return None if ok else f"{op[0]}: output differs from the NumPy reference"

    def finish(self, measured: bool) -> None:
        from multiprocessing import shared_memory

        from repro.runtime.parbackend import shutdown_pool

        shutdown_pool()
        deadline = time.monotonic() + 10
        for child in self._mp.active_children():
            child.join(max(0.0, deadline - time.monotonic()))
        alive = [c.pid for c in self._mp.active_children()]
        if alive:
            self.failures.append(f"pool children still alive after shutdown: {alive}")
        for name in sorted(self.segments):
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            self.failures.append(f"shared-memory segment {name} left after shutdown")
            seg.close()
            seg.unlink()
        self.notes["segments_seen"] = len(self.segments)


def rename(src: str, index: int) -> str:
    """``src`` with every variable and array renamed: a program never seen
    before that must keep the original's verdicts."""
    from repro.lang.astnodes import ArrayAccess, Decl, Id
    from repro.lang.cparser import parse_program
    from repro.lang.printer import to_c

    prog = parse_program(src)
    for node in prog.walk():
        if isinstance(node, (Id, ArrayAccess, Decl)):
            node.name = f"{node.name}_r{index}"
    return to_c(prog)


def reply_view(frag: Dict[str, Any]) -> Any:
    """A reply fragment with loop ids masked, for comparison."""
    return (
        [[d["parallel"], d["certified"], streams.strip_loop_ids(d["reason"])] for d in frag["decisions"].values()],
        streams.strip_loop_ids(frag["annotated_c"]),
    )


def library_view(text: str) -> Any:
    """What the daemon should answer for ``text``, computed in this process."""
    from repro.parallelizer import parallelize
    from repro.parallelizer.codegen import emit_openmp

    result = parallelize(text)
    frag = {
        "decisions": {
            lid: {"parallel": d.parallel, "reason": d.reason, "certified": bool(d.certificate_verified)}
            for lid, d in result.decisions.items()
        },
        "annotated_c": emit_openmp(result),
    }
    return reply_view(frag)


class ServiceMix(Workload):
    """``repro serve`` on a Unix socket, driven by ``nproc`` client connections.

    Each client runs its own seeded rounds in a closed loop.  A round has,
    per program, ``REPEATS`` warm repeats (answered from the daemon's
    frame cache), one semantic edit never sent before, and one duplicate
    batch (a fresh formatting edit twice plus the program itself, so the
    daemon analyzes once and dedups once); and ``RENAMED`` programs with
    every name changed, never seen before (about 2% of requests).
    """

    name = "service_mix"
    ROUNDS_PER_S = 0.9
    REPEATS = 10
    RENAMED = 3
    #: replies re-computed in this process per kind, beyond the primed ones
    LIBRARY_SAMPLE = 12
    #: seconds per traced or untraced phase of a traced run
    TRACE_PHASE_S = 1.0
    #: yardstick samples between two rounds
    YARD_PER_ROUND = 10
    #: seconds a client waits for the others at the end of a round
    BARRIER_TIMEOUT_S = 120

    def setup(self) -> None:
        self.benches = {b.name: b for b in registry()}
        self.names = sorted(self.benches)
        self.offsets = {n: streams.nest_body_offsets(b.source) for n, b in self.benches.items()}
        work = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "_work")
        os.makedirs(work, exist_ok=True)
        self.socket = os.path.relpath(os.path.join(work, f"serve-{os.getpid()}.sock"))
        self.report_path = os.path.join(work, f"serve-{os.getpid()}.json")
        cmd = [sys.executable, "-m", "ebench.serve", "--socket", self.socket, "--report", self.report_path]
        if self.trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.clients = []
        try:
            self._start()
        except BaseException:
            self._stop_daemon()
            raise

    def _start(self) -> None:
        import select

        from repro.service.client import ServiceClient

        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if '"ready": true' not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.clients = [ServiceClient(unix_path=self.socket).connect() for _ in range(self.nproc)]
        self.primed = {}
        for name, bench in self.benches.items():
            for _ in range(3):  # compute, then build the frame, then hit it
                reply = self.clients[0].parallelize([bench.source])
            self.primed[name] = reply_view(reply["results"][0])
        t = time.perf_counter()
        self.base_verdicts = {}
        for name, bench in self.benches.items():
            self.failures += edit_site_failures(name, bench.source)
            want = [tuple(x[:2]) for x in self.primed[name][0]]
            self.base_verdicts[name] = want
            got = [tuple(x[:2]) for x in library_view(rename(bench.source, 10**6))[0]]
            if got != want:
                self.failures.append(f"{name}: renaming changes the verdicts in this process")
        self.check_s += time.perf_counter() - t
        self.collected: List[Tuple[str, str, str, Any]] = []
        self.edits_per_round = sum(2 + len(v) for v in self.offsets.values()) + self.RENAMED

    def round(self, r: int, client: int = 0) -> List[tuple]:
        n = len(self.names)
        index = (r * self.nproc + client) * self.edits_per_round
        ops: List[tuple] = []
        for name in self.names:
            src = self.benches[name].source
            ops += [(f"repeat/{name}", "repeat", name, [src])] * self.REPEATS
            for site, offset in enumerate(self.offsets[name]):
                ops.append((f"edit/{name}#{site}", "edit", name, [streams.semantic_edit(src, offset, index)]))
                index += 1
            fmt = streams.format_edit(src, self.seed, index)
            index += 1
            ops.append((f"dup_batch/{name}", "dup_batch", name, [fmt, fmt, src]))
        for j in range(self.RENAMED):
            name = self.names[(r * self.RENAMED + j + client) % n]
            ops.append((f"renamed/{name}", "renamed", name, [rename(self.benches[name].source, index)]))
            index += 1
        return streams.round_order(self.seed, r * self.nproc + client, ops)

    def check(self, op: tuple, reply: Any) -> Optional[str]:
        if reply.get("status") != "ok":
            return f"{op[0]}: daemon replied {reply.get('status')} {reply.get('error', '')}"
        views = [reply_view(frag) for frag in reply["results"]]
        kind, name = op[1], op[2]
        if kind == "repeat" and views[0] != self.primed[name]:
            return f"{op[0]}: warm reply differs from the primed reply"
        if kind == "dup_batch" and (views[0] != views[1] or views[2] != self.primed[name]):
            return f"{op[0]}: batch members disagree"
        if kind == "renamed" and [tuple(x[:2]) for x in views[0][0]] != self.base_verdicts[name]:
            return f"{op[0]}: renamed program changed its verdicts"
        if kind != "repeat":
            self.collected.append((kind, name, op[3][0], views[0]))
        return None

    def measure(self, seconds: float, trace: bool, trace_out: str) -> Dict[str, Any]:
        """Each client sends its rounds in a closed loop; replies are checked after.

        Rounds are generated before the clock starts and replies checked
        after it stops, so neither competes for the interpreter lock with
        the other client's timed requests.  The clients start each round
        together: between rounds, while no request is in flight, the last
        client to finish runs the yardstick and decides whether the run
        goes on.
        """
        import signal
        import threading
        from collections import defaultdict

        from ebench import yardstick
        from ebench.worker import DEADLINE, KEEP_FAILURES, rounds_for

        n_rounds = rounds_for(self, seconds)
        plans = [[self.round(r, c) for r in range(n_rounds)] for c in range(self.nproc)]
        #: per client: (op, reply or None, error or None, start, seconds, traced or None)
        results: List[List[tuple]] = [[] for _ in range(self.nproc)]
        traced = [False]
        before = self.clients[0].metrics()
        busy: List[List[float]] = []
        yard: List[list] = []
        stop = [False]
        t_start = time.perf_counter()
        deadline = t_start + DEADLINE * seconds
        round_start = [0.0]

        def between_rounds() -> None:
            now = time.perf_counter()
            if round_start[0]:
                busy.append([round_start[0] - t_start, now - round_start[0]])
            yard.append([time.perf_counter() - t_start, [yardstick.run() for _ in range(self.YARD_PER_ROUND)]])
            stop[0] = now >= deadline
            round_start[0] = time.perf_counter()

        between_rounds()
        barrier = threading.Barrier(self.nproc, action=between_rounds)

        def client(c: int) -> None:
            cl, out = self.clients[c], results[c]
            for ops in plans[c]:
                if stop[0]:
                    break
                for op in ops:
                    phase = traced[0]
                    t0 = time.perf_counter()
                    try:
                        reply, err = cl.request({"op": "parallelize", "programs": cl._programs(op[3])}, check=False), None
                    except Exception as exc:  # a request that raises is a failed request
                        reply, err = None, f"{op[0]}: {type(exc).__name__}: {exc}"
                    # a request in flight when tracing flipped belongs to neither phase
                    out.append((op, reply, err, t0, time.perf_counter() - t0, phase if traced[0] == phase else None))
                barrier.wait(timeout=self.BARRIER_TIMEOUT_S)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(self.nproc)]
        for t in threads:
            t.start()
        if trace:
            while any(t.is_alive() for t in threads):
                time.sleep(self.TRACE_PHASE_S)
                if time.perf_counter() < deadline:
                    os.kill(self.proc.pid, signal.SIGUSR1)
                    traced[0] = not traced[0]
        for t in threads:
            t.join()
        wall = time.perf_counter() - t_start
        if traced[0]:
            os.kill(self.proc.pid, signal.SIGUSR1)
        after = self.clients[0].metrics()

        samples: Dict[str, List[float]] = defaultdict(list)
        starts: Dict[str, List[float]] = defaultdict(list)
        failures: List[str] = []
        failed = 0
        rtt = {True: [0.0, 0], False: [0.0, 0], None: [0.0, 0]}
        for op, reply, err, t0, dt, phase in (item for out in results for item in out):
            rtt[phase][0] += dt
            rtt[phase][1] += 1
            err = err or self.check(op, reply)
            if err is None:
                samples[op[0]].append(dt)
                starts[op[0]].append(t0 - t_start)
            else:
                failed += 1
                if len(failures) < KEEP_FAILURES:
                    failures.append(err)
        self._metrics = (before, after, rtt)
        return {
            "samples": samples,
            "starts": starts,
            "busy": busy,
            "yard": yard,
            "attempted": sum(len(out) for out in results),
            "failed": failed,
            "failures": failures,
            "rounds": sum(len(out) for out in results) // max(1, len(plans[0][0])),
            "phase_s": wall,
        }

    def _stop_daemon(self) -> object:
        """Shut the daemon down (killing it if it does not answer); its exit code."""
        try:
            if self.clients:
                self.clients[0].shutdown_server()
            else:
                self.proc.terminate()
            return self.proc.wait(timeout=60)
        except Exception:
            self.proc.kill()
            self.proc.wait()
            return "killed"
        finally:
            for cl in self.clients:
                cl.close()
            self.proc.stdout.close()

    def finish(self, measured: bool) -> None:
        code = self._stop_daemon()
        if code != 0:
            self.failures.append(f"daemon exited with {code}")
        with open(self.report_path) as fh:
            self.daemon = json.load(fh)
        os.unlink(self.report_path)
        if os.path.exists(self.socket):
            self.failures.append("daemon left its socket behind")
        self.notes["daemon_peak_rss_mb"] = round(self.daemon["peak_rss_mb"], 1)
        if not measured:
            return
        rng = streams.rng_for("library", self.seed)
        by_kind: Dict[str, list] = {}
        for item in self.collected:
            by_kind.setdefault(item[0], []).append(item)
        checked = 0
        for kind, items in sorted(by_kind.items()):
            for _, name, text, view in rng.sample(items, min(self.LIBRARY_SAMPLE, len(items))):
                checked += 1
                if library_view(text) != view:
                    self.failures.append(f"{kind}/{name}: daemon reply differs from the library result")
        for name, bench in self.benches.items():
            checked += 1
            if library_view(bench.source) != self.primed[name]:
                self.failures.append(f"{name}: primed daemon reply differs from the library result")
        self.notes["library_checked"] = checked

    def peak_rss_mb(self) -> float:
        return self.daemon["peak_rss_mb"]

    def layer_metrics(self, trace_out: str) -> Tuple[Dict[str, float], int]:
        """Per-layer metrics from the daemon's spans and ``metrics`` op deltas."""
        from ebench.layers import counter_delta, layer_metrics
        from ebench.tracing import write_chrome_trace

        before, after, rtt = self._metrics
        spans = self.daemon["spans"]
        n = sum(v[1] for v in rtt.values())
        mean = {k: (v[0] / v[1] if v[1] else 0.0) for k, v in rtt.items() if k is not None}
        rtt_ms = 1e3 * sum(v[0] for v in rtt.values()) / max(1, n)
        lat0 = before["latency"].get("parallelize", {})
        lat1 = after["latency"].get("parallelize", {})
        served = lat1.get("count", 0) - lat0.get("count", 0)
        server_ms = (
            lat1.get("mean_ms", 0) * lat1.get("count", 0) - lat0.get("mean_ms", 0) * lat0.get("count", 0)
        ) / max(1, served)
        c0, c1 = before["counters"], after["counters"]
        frames = self.daemon["frame_hits"] + self.daemon["frame_misses"]
        service = {
            "service.rtt_ms": rtt_ms,
            "service.server_ms": server_ms,
            "service.wire_queue_ms": rtt_ms - server_ms,
            "service.frame_cache.hit_ratio": self.daemon["frame_hits"] / frames if frames else 0.0,
            "service.batch_dedup_hits": (c1["batch_dedup_hits"] - c0["batch_dedup_hits"]) / max(1, n),
            "service.overload_rejections": (c1["overload_rejections"] - c0["overload_rejections"]) / max(1, n),
            "service.queue_depth_max": self.daemon["queue_depth_max"],
        }
        out = layer_metrics(
            spans,
            n_ops=rtt[True][1],
            counters=counter_delta(before["perfstats"]["counters"], after["perfstats"]["counters"]),
            tiers=counter_delta(before["perfstats"]["tiers"], after["perfstats"]["tiers"]),
            overhead_ms=1e3 * (mean[True] - mean[False]),
            service=service,
            n_counted=n,
        )
        write_chrome_trace(trace_out, [(self.daemon["pid"], spans)])
        return out, len(spans)


WORKLOADS = {w.name: w for w in (ColdCompile, WarmEdit, Execute, ServiceMix)}


def make(name: str, seed: int, nproc: int, trace: bool = False) -> Workload:
    return WORKLOADS[name](seed, nproc, trace)


