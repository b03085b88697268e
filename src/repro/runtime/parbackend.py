"""Supervised shared-memory parallel runtime for the compiled backend.

A :class:`WorkerPool` keeps N long-lived worker processes (fork context
when the platform offers it) connected by pipes.  The compiled kernel's
parallel tier talks to the pool through three operations:

* :meth:`WorkerPool.ensure_program` — install a compiled program's chunk
  functions in every worker, once per program fingerprint;
* :meth:`WorkerPool.adopt_env` / :meth:`WorkerPool.release_env` — move
  the environment's NumPy arrays into ``multiprocessing.shared_memory``
  segments (workers attach views; the kernel's serial parts run on the
  same views, so no coherence protocol is needed beyond the dispatch
  barrier), then copy results back.  Segments are cached across
  adoptions keyed by (name, shape, dtype) so repeated measurement runs
  re-fill the existing shared views instead of re-creating segments;
* :meth:`WorkerPool.run_loop` — split ``[lo, hi)`` into contiguous
  chunks (work-balanced when the dispatch site supplies inspector
  weights), run the loop's chunk function across the pool under
  supervision, record each chunk's wall time in the workmeter registry,
  and return the per-chunk reduction/private dicts in iteration order.

Supervision model (PR 7): **no operation ever blocks forever on a
worker**.  Every reply is awaited with ``multiprocessing.connection``
polling under a deadline — for chunk dispatch the deadline is derived
from the cost model's predicted loop time (floor + multiplier, see
:func:`dispatch_deadline_s`) — and every reply is shape-validated, so
worker crash (EOF / ``is_alive`` false), hang (deadline expiry) and pipe
corruption (malformed reply) are all *detected* rather than waited on.
On detection the pool self-heals:

1. the faulty worker is quarantined (terminate → kill escalation) and a
   replacement is forked, re-attached to the current shared segments and
   re-installed with the known programs;
2. the failed chunks are retried once on healthy workers after a short
   backoff (re-split across them by
   :func:`repro.runtime.scheduler.retry_chunk_plan`).  Loops whose body
   reads an array it also writes are re-run *in full* from a
   pre-dispatch snapshot of those arrays, so a partially-executed chunk
   can never double-apply an update;
3. if the retry fails too, the still-failed chunks execute serially in
   the parent on the same shared views — outputs stay correct either
   way, only slower.

Every fault, respawn and degradation step is recorded in
:mod:`repro.runtime.workmeter` and the :mod:`repro.diagnostics` runtime
trail, and a process-wide :class:`~repro.breaker.CircuitBreaker` opens
after repeated dispatch failures so :mod:`repro.runtime.costmodel` stops
*planning* pool dispatch until a cooldown expires (half-open re-probe).

``run_loop`` still *declines* (returns ``None``, the kernel falls back
to its serial lowering) whenever dispatch has not started: an array the
loop touches is not shared, the trip count is too small, no healthy
worker exists, or the breaker is open.  A clean worker-side exception
(``err`` reply) that survives both the retry and the serial rung — a
deterministic program fault — still surfaces as
:class:`~repro.runtime.interp.InterpError`.

Teardown discipline: segment unlinking is *deferred* — ``release_env``
copies results back but keeps the segments for reuse; they are unlinked
when an adoption's shape/dtype no longer matches, and all of them on
:meth:`WorkerPool.shutdown` / :func:`shutdown_pool` (registered
``atexit``, with a last-resort :func:`_sweep_segments` that unlinks
anything still registered in the module-level segment registry so an
abnormal interpreter exit cannot orphan ``/dev/shm`` entries).  The
chaos suite and the ``leakcheck`` fixture in ``tests/runtime/conftest.py``
hold this to account.

Deterministic faults for all of the above are injected through
:mod:`repro.runtime.faultplan` (``REPRO_FAULTS``), at the ``dispatch``
and ``attach`` seams in the worker command loop.
"""

from __future__ import annotations

import atexit
import os
import time
import traceback
from multiprocessing import get_context
from multiprocessing import shared_memory
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.breaker import CircuitBreaker
from repro.runtime.interp import InterpError

#: below this trip count a dispatch costs more than it saves
MIN_PAR_TRIPS = 64

#: default per-dispatch deadline when the cost model has no prediction
#: (overridden by ``REPRO_DISPATCH_DEADLINE_S``)
DEADLINE_FLOOR_S = 60.0

#: multiplier over the cost model's predicted loop seconds — generous,
#: because a missed deadline costs a worker respawn plus a retry
DEADLINE_MULT = 25.0

#: deadline for broadcast/install acknowledgements
#: (overridden by ``REPRO_ACK_DEADLINE_S``)
ACK_DEADLINE_S = 30.0

#: supervision poll granularity; also bounds fault-detection latency
POLL_INTERVAL_S = 0.02

#: base backoff before the single chunk retry (doubles per prior attempt)
RETRY_BACKOFF_S = 0.05


def _env_float(name: str, default: float) -> float:
    try:
        raw = os.environ.get(name, "").strip()
        return float(raw) if raw else default
    except ValueError:
        return default


def dispatch_deadline_s(predicted_s: Optional[float] = None) -> float:
    """Per-dispatch supervision deadline: floor + cost-model multiplier.

    ``predicted_s`` is the cost model's predicted wall time for the whole
    parallel loop (``backend=auto`` records one per planned loop); fixed
    backends dispatch with no prediction and get the floor.
    """
    floor = _env_float("REPRO_DISPATCH_DEADLINE_S", DEADLINE_FLOOR_S)
    if predicted_s is not None and predicted_s > 0.0:
        return max(floor, DEADLINE_MULT * float(predicted_s))
    return floor


def ack_deadline_s() -> float:
    return _env_float("REPRO_ACK_DEADLINE_S", ACK_DEADLINE_S)


# ---------------------------------------------------------------------------
# fault / degradation event plumbing (advisory: never raises)
# ---------------------------------------------------------------------------


def _note_fault(loop_key: str, kind: str, detail: str) -> None:
    """Record one runtime fault event in workmeter + the diagnostics trail."""
    try:
        from repro import diagnostics
        from repro.runtime import workmeter

        workmeter.record_fault(loop_key, kind, detail)
        diagnostics.record_runtime(
            diagnostics.Diagnostic(
                diagnostics.WORKER_FAULT, f"{kind}: {detail}", nest_id=loop_key
            )
        )
    except Exception:  # pragma: no cover - accounting must not break healing
        pass


def _note_degradation(loop_key: str, frm: str, to: str, reason: str) -> None:
    """Record one rung of the graceful-degradation ladder."""
    try:
        from repro import diagnostics
        from repro.runtime import workmeter

        workmeter.record_degradation(loop_key, frm, to, reason)
        diagnostics.record_runtime(
            diagnostics.Diagnostic(
                diagnostics.EXECUTION_DEGRADED,
                f"{frm} -> {to}: {reason}",
                nest_id=loop_key,
            )
        )
    except Exception:  # pragma: no cover
        pass


# ---------------------------------------------------------------------------
# circuit breaker: stop planning pool dispatch after repeated failures
# ---------------------------------------------------------------------------


def _pool_breaker() -> CircuitBreaker:
    """A fresh pool breaker configured from the env knobs.

    While it is open, :func:`dispatch_allowed` returns False, so the cost
    model stops choosing ``compiled-parallel`` and ``run_loop`` declines
    pre-dispatch (serial lowering runs instead).
    """
    return CircuitBreaker(
        int(_env_float("REPRO_BREAKER_THRESHOLD", 3)),
        _env_float("REPRO_BREAKER_COOLDOWN_S", 30.0),
    )


BREAKER = _pool_breaker()


def dispatch_allowed() -> bool:
    """Should anyone plan a pool dispatch right now?  (Breaker consult.)"""
    return BREAKER.allows()


def breaker_state() -> str:
    return BREAKER.state()


def reset_breaker() -> None:
    """Fresh breaker re-reading the env knobs (tests)."""
    global BREAKER
    BREAKER = _pool_breaker()


# ---------------------------------------------------------------------------
# orphan-segment registry (leakcheck + atexit sweep)
# ---------------------------------------------------------------------------

#: shm name -> segment, for every segment this process created and has not
#: yet unlinked; the atexit sweep and the test-suite leakcheck read it
_LIVE_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}


def live_segments() -> List[str]:
    """Names of shared-memory segments created here and not yet unlinked."""
    return sorted(_LIVE_SEGMENTS)


def _sweep_segments() -> None:  # pragma: no cover - exercised via atexit
    """Last-resort unlink of every still-registered segment."""
    for name in list(_LIVE_SEGMENTS):
        seg = _LIVE_SEGMENTS.pop(name, None)
        if seg is None:
            continue
        try:
            seg.close()
            seg.unlink()
        except Exception:
            pass


class _untracked_attach:
    """Suppress resource-tracker registration while attaching a segment.

    On CPython < 3.13 attaching registers the segment with the (shared,
    fork-inherited) tracker, which would unlink the parent's memory when a
    worker exits; unregistering after the fact instead races between
    workers (the tracker's cache is a set).  Masking ``register`` for the
    duration of the attach avoids both problems — the parent, which
    *created* the segment, remains the sole registrant.
    """

    def __enter__(self):
        from multiprocessing import resource_tracker

        self._rt = resource_tracker
        self._orig = resource_tracker.register
        resource_tracker.register = lambda *a, **kw: None
        return self

    def __exit__(self, *exc):
        self._rt.register = self._orig
        return False


def _worker_main(conn, index: int = 0) -> None:  # pragma: no cover - subprocess
    """Command loop of one pool worker.

    ``index`` is the worker's slot in the pool, used by the fault plan's
    ``worker=`` filters.  Fault seams: ``dispatch`` (run commands) and
    ``attach`` (shared-memory attach).
    """
    from repro.runtime import faultplan
    from repro.runtime.compile import _exec_namespace

    programs: Dict[str, Dict[str, Any]] = {}
    arrays: Dict[str, np.ndarray] = {}
    segments: List[shared_memory.SharedMemory] = []
    segmap: Dict[str, shared_memory.SharedMemory] = {}
    while True:
        try:
            cmd, payload = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if cmd == "exec":
                key, sources = payload
                ns = _exec_namespace()
                for src in sources:
                    exec(compile(src, "<repro-chunk>", "exec"), ns)
                programs[key] = ns
                conn.send(("ok", None))
            elif cmd == "attach":
                if faultplan.enabled():
                    clause = faultplan.check("attach", worker=index)
                    if clause is not None and clause.kind == "shm-attach-fail":
                        raise RuntimeError("injected fault: shm attach failure")
                with _untracked_attach():
                    for name, shm_name, shape, dtype in payload:
                        old = segmap.pop(name, None)
                        if old is not None:
                            segments.remove(old)
                            old.close()
                        seg = shared_memory.SharedMemory(name=shm_name)
                        segments.append(seg)
                        segmap[name] = seg
                        arrays[name] = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
                conn.send(("ok", None))
            elif cmd == "detach":
                arrays.clear()
                segmap.clear()
                for seg in segments:
                    seg.close()
                segments.clear()
                conn.send(("ok", None))
            elif cmd == "run":
                prog_key, loop_key, chunk_idx, lo, hi, bindings = payload
                if faultplan.enabled():
                    clause = faultplan.check(
                        "dispatch", worker=index, chunk=chunk_idx, loop=loop_key
                    )
                    if clause is not None:
                        if clause.kind == "worker-exit":
                            os._exit(23)
                        if clause.kind == "hang":
                            # supervision kills this worker at the deadline
                            time.sleep(faultplan.HANG_SECONDS)
                        if clause.kind == "corrupt-reply":
                            conn.send(("ok", "corrupted-payload"))
                            continue
                fn = programs[prog_key][f"_chunk_{loop_key}"]
                t0 = time.perf_counter()
                out = fn(arrays, lo, hi, bindings)
                conn.send(("ok", (time.perf_counter() - t0, out)))
            elif cmd == "stop":
                conn.send(("ok", None))
                break
            else:
                conn.send(("err", f"unknown command {cmd!r}"))
        except Exception:
            try:
                conn.send(("err", traceback.format_exc(limit=8)))
            except (BrokenPipeError, OSError):
                break
    # best-effort cleanup on exit
    for seg in segments:
        try:
            seg.close()
        except Exception:
            pass
    conn.close()


def _valid_run_reply(msg: Any) -> bool:
    """Shape-check a chunk reply; anything else is pipe corruption."""
    if not (isinstance(msg, tuple) and len(msg) == 2):
        return False
    status, payload = msg
    if status == "err":
        return isinstance(payload, str)
    if status != "ok":
        return False
    return (
        isinstance(payload, tuple)
        and len(payload) == 2
        and isinstance(payload[0], (int, float))
        and isinstance(payload[1], dict)
    )


class WorkerPool:
    """A persistent, supervised pool of chunk-running worker processes."""

    def __init__(self, workers: Optional[int] = None):
        self.size = max(1, int(workers or os.environ.get("REPRO_EXEC_THREADS", 0) or os.cpu_count() or 1))
        try:
            self._ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            self._ctx = get_context("spawn")
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        self._installed: List[set] = []
        #: per-worker health: False = quarantined and not successfully respawned
        self._ok: List[bool] = []
        self._prog_key: Optional[str] = None
        #: program key -> chunk sources, for respawn re-installs
        self._prog_sources: Dict[str, List[str]] = {}
        self._prog_order: List[str] = []
        #: parent-side chunk namespaces for the serial-fallback rung
        self._parent_ns: Dict[str, Dict[str, Any]] = {}
        #: current program's per-loop metadata (read/write-overlap arrays)
        self._chunk_meta: Dict[str, Dict[str, Any]] = {}
        self._shared: Dict[str, Tuple[np.ndarray, shared_memory.SharedMemory, np.ndarray]] = {}
        #: deferred-unlink segment cache: name -> (segment, (shape, dtype))
        self._cache: Dict[str, Tuple[shared_memory.SharedMemory, Tuple[Any, str]]] = {}
        self._alive = True
        #: workers quarantined + replaced over this pool's lifetime
        self.respawns = 0
        for w in range(self.size):
            parent, child = self._ctx.Pipe()
            p = self._ctx.Process(target=_worker_main, args=(child, w), daemon=True)
            p.start()
            child.close()
            self._procs.append(p)
            self._conns.append(parent)
            self._installed.append(set())
            self._ok.append(True)

    # -- supervision plumbing ------------------------------------------------

    def _healthy(self) -> List[int]:
        return [
            w
            for w in range(self.size)
            if self._ok[w] and self._procs[w].is_alive()
        ]

    def _check_alive(self) -> bool:
        return self._alive and bool(self._healthy())

    def _await_ack(self, w: int, deadline: float) -> Optional[str]:
        """Wait for one ``ok`` ack from worker ``w``; return error text or None."""
        conn, p = self._conns[w], self._procs[w]
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return f"ack deadline ({ack_deadline_s():.1f}s) exceeded"
            try:
                if conn.poll(min(POLL_INTERVAL_S, remaining)):
                    msg = conn.recv()
                    if isinstance(msg, tuple) and len(msg) == 2:
                        status, detail = msg
                        if status == "ok":
                            return None
                        if status == "err":
                            return str(detail)
                    return f"malformed ack ({type(msg).__name__})"
            except (EOFError, OSError) as exc:
                return f"worker died awaiting ack: {type(exc).__name__}"
            if not p.is_alive() and not conn.poll():
                return f"worker exited (exitcode {p.exitcode})"

    def _reap(self, p, polite: bool = False) -> None:
        """Join a worker process, escalating join → terminate → kill."""
        if polite:
            p.join(timeout=5)
        if p.is_alive():
            p.terminate()
            p.join(timeout=5)
        if p.is_alive():  # pragma: no cover - SIGTERM almost always suffices
            p.kill()
            p.join(timeout=5)

    def _respawn(self, w: int) -> bool:
        """Quarantine worker ``w`` and fork, re-attach, re-install a spare.

        Returns False (worker stays unhealthy) when the pool is shutting
        down or the replacement cannot be brought to the current state —
        e.g. a persistent attach failure.  Never recurses.
        """
        self._ok[w] = False
        try:
            self._conns[w].close()
        except OSError:  # pragma: no cover
            pass
        self._reap(self._procs[w])
        if not self._alive:
            return False
        parent, child = self._ctx.Pipe()
        p = self._ctx.Process(target=_worker_main, args=(child, w), daemon=True)
        p.start()
        child.close()
        self._procs[w], self._conns[w] = p, parent
        self._installed[w] = set()
        self.respawns += 1
        try:
            specs = [
                (name, seg.name, spec[0], spec[1])
                for name, (seg, spec) in self._cache.items()
            ]
            if specs:
                parent.send(("attach", specs))
                err = self._await_ack(w, time.monotonic() + ack_deadline_s())
                if err is not None:
                    raise InterpError(f"re-attach failed: {err}")
            for key in self._prog_order:
                parent.send(("exec", (key, self._prog_sources[key])))
                err = self._await_ack(w, time.monotonic() + ack_deadline_s())
                if err is not None:
                    raise InterpError(f"re-install failed: {err}")
                self._installed[w].add(key)
        except (InterpError, BrokenPipeError, OSError) as exc:
            _note_fault("<pool>", "respawn-failed", f"worker {w}: {exc}")
            return False
        self._ok[w] = True
        _note_fault("<pool>", "worker-respawned", f"worker {w} quarantined and replaced")
        return True

    def _fault_worker(self, w: int, kind: str, loop_key: str, detail: str) -> None:
        """Record a worker fault, quarantine the worker, try to respawn it."""
        _note_fault(loop_key, kind, detail)
        self._respawn(w)

    def _broadcast(self, cmd: str, payload: Any, heal: bool = True) -> None:
        """Send a command to every healthy worker; supervise all acks.

        A worker that fails the broadcast is quarantined and (when
        ``heal``) respawned — the respawn path replays segment
        attachments and program installs, which re-applies ``cmd``'s
        effect for ``attach``/``exec``.  Unlike the PR 4 pool this never
        raises: an unhealable worker just leaves the pool smaller, and a
        pool with no healthy workers left declines future dispatches.
        """
        sent = []
        for w in self._healthy():
            try:
                self._conns[w].send((cmd, payload))
                sent.append(w)
            except (BrokenPipeError, OSError) as exc:
                _note_fault("<pool>", "worker-exit", f"worker {w} pipe broken during {cmd}: {exc}")
                if heal:
                    self._respawn(w)
                else:
                    self._ok[w] = False
        deadline = time.monotonic() + ack_deadline_s()
        for w in sent:
            err = self._await_ack(w, deadline)
            if err is not None:
                _note_fault("<pool>", "broadcast-failed", f"worker {w} during {cmd}: {err}")
                if heal:
                    self._respawn(w)
                else:
                    self._ok[w] = False

    # -- program / environment lifecycle ------------------------------------

    def ensure_program(self, cp) -> None:
        """Install ``cp``'s chunk functions in every worker (idempotent).

        Also snapshots the chunk sources (for respawn re-installs), the
        per-loop metadata (for snapshot-gated retries) and a parent-side
        namespace holding the same chunk functions — the final
        serial-fallback rung of the degradation ladder runs them in this
        process on the shared views.
        """
        self._prog_key = cp.key
        self._chunk_meta = dict(getattr(cp, "chunk_meta", None) or {})
        if not cp.chunks:
            return
        sources = [cp.chunks[k] for k in sorted(cp.chunks)]
        if cp.key not in self._prog_sources:
            self._prog_sources[cp.key] = sources
            self._prog_order.append(cp.key)
        if cp.key not in self._parent_ns:
            from repro.runtime.compile import _exec_namespace

            ns = _exec_namespace()
            for src in sources:
                exec(compile(src, "<repro-chunk-parent>", "exec"), ns)
            self._parent_ns[cp.key] = ns
        for w in list(self._healthy()):
            if cp.key in self._installed[w]:
                continue
            err: Optional[str]
            try:
                self._conns[w].send(("exec", (cp.key, sources)))
                err = self._await_ack(w, time.monotonic() + ack_deadline_s())
            except (BrokenPipeError, OSError) as exc:
                err = f"send failed: {exc}"
            if err is not None:
                _note_fault("<pool>", "install-failed", f"worker {w}: {err}")
                self._respawn(w)  # replays every known program on success
            else:
                self._installed[w].add(cp.key)

    def adopt_env(self, env: Dict[str, Any]) -> Dict[str, Any]:
        """Move ``env``'s arrays into shared memory; workers attach views.

        Mutates ``env`` in place (arrays replaced by shared views) and
        returns the adoption record for :meth:`release_env`.

        Segments are **cached across adoptions** keyed by
        ``(name, shape, dtype)``: a repeated ``measure_kernel`` run over
        the same environment shapes reuses the existing segments (one
        ``memcpy`` of the fresh inputs, no worker re-attach broadcast)
        instead of re-creating and re-attaching every array per run.
        Unlinking is deferred to a spec mismatch or :meth:`shutdown`.

        Attach failures self-heal (see :meth:`_broadcast`); in the worst
        case the pool ends up with no healthy workers and every dispatch
        declines — the serial compiled lowering still runs correctly on
        the parent's shared views.
        """
        specs = []
        adopted: Dict[str, Tuple[np.ndarray, shared_memory.SharedMemory, np.ndarray]] = {}
        for name, val in env.items():
            if not isinstance(val, np.ndarray) or val.size == 0:
                continue
            spec = (val.shape, val.dtype.str)
            cached = self._cache.get(name)
            if cached is not None and cached[1] == spec:
                seg = cached[0]
                view = np.ndarray(val.shape, dtype=val.dtype, buffer=seg.buf)
                view[...] = val
                adopted[name] = (val, seg, view)
                env[name] = view
                continue
            if cached is not None:  # shape/dtype changed: retire the old segment
                self._unlink_cached(name)
            seg = shared_memory.SharedMemory(create=True, size=val.nbytes)
            _LIVE_SEGMENTS[seg.name] = seg
            view = np.ndarray(val.shape, dtype=val.dtype, buffer=seg.buf)
            view[...] = val
            adopted[name] = (val, seg, view)
            env[name] = view
            self._cache[name] = (seg, spec)
            specs.append((name, seg.name, val.shape, val.dtype.str))
        if specs:
            self._broadcast("attach", specs)
        self._shared = adopted
        return adopted

    def release_env(self, adopted: Dict[str, Any], env: Dict[str, Any]) -> None:
        """Copy results back into the original arrays.

        Segments stay alive (and workers stay attached) for reuse by the
        next :meth:`adopt_env`; :meth:`shutdown` unlinks them all.
        """
        for name, (orig, _seg, view) in adopted.items():
            orig[...] = view
            if isinstance(env.get(name), np.ndarray) and env[name] is view:
                env[name] = orig
            del view
        self._shared = {}

    def _unlink_cached(self, name: str) -> None:
        seg, _ = self._cache.pop(name)
        _LIVE_SEGMENTS.pop(seg.name, None)
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass

    def _drop_cache(self) -> None:
        """Detach workers and unlink every cached segment."""
        try:
            if self._cache and self._check_alive():
                self._broadcast("detach", None, heal=False)
        except (InterpError, BrokenPipeError, OSError):  # pragma: no cover
            pass
        finally:
            for name in list(self._cache):
                self._unlink_cached(name)

    # -- dispatch -----------------------------------------------------------

    def run_loop(
        self,
        loop_key: str,
        lo: int,
        hi: int,
        bindings: Dict[str, Any],
        arrays: Sequence[str],
        weights: Optional[np.ndarray] = None,
        predicted_s: Optional[float] = None,
    ) -> Optional[List[Dict[str, Any]]]:
        """Run ``[lo, hi)`` of a loop across the pool, or decline (None).

        ``weights`` (optional, advisory) gives per-iteration cost
        estimates from the dispatch-site inspector; chunk bounds are then
        work-balanced with :func:`~repro.runtime.scheduler.balanced_chunk_bounds`
        instead of the uniform static split.  ``predicted_s`` (optional)
        is the cost model's predicted wall time for the loop and scales
        the supervision deadline.  Each chunk's worker wall time is
        recorded in the workmeter registry under ``loop_key``.

        Worker crash / hang / pipe corruption during the dispatch is
        healed internally (respawn + retry + serial rung; see the module
        docstring); only a deterministic chunk *program* fault that also
        fails serially raises :class:`InterpError`.
        """
        lo, hi = int(lo), int(hi)
        trips = hi - lo
        healthy = self._healthy()
        if (
            trips < max(2, MIN_PAR_TRIPS)
            or self._prog_key is None
            or not self._alive
            or not healthy
            or not BREAKER.allows()
            or any(a not in self._shared for a in arrays)
        ):
            return None
        nchunks = min(len(healthy), trips)
        chunks: List[Tuple[int, int]] = []
        if weights is not None:
            try:
                from repro.runtime.scheduler import balanced_chunk_bounds

                # trips pins the iteration count: a short/stale weight
                # vector degrades to the uniform split inside the scheduler
                chunks = balanced_chunk_bounds(weights, nchunks, lo, trips=trips)
            except Exception:
                chunks = []
        if not chunks:
            bounds = [lo + (trips * k) // nchunks for k in range(nchunks + 1)]
            chunks = [
                (bounds[k], bounds[k + 1])
                for k in range(nchunks)
                if bounds[k] < bounds[k + 1]
            ]
        deadline_s = dispatch_deadline_s(predicted_s)

        # loops that read an array they also write cannot safely re-run a
        # partially-executed chunk; snapshot those arrays so any retry can
        # restore the pre-dispatch state and re-run the whole range.
        # Arrays the static effect analysis proved feedback-free (reads can
        # never observe the loop's own writes: repro.verify.staticrace)
        # re-run idempotently and skip the copy; REPRO_STATIC_EFFECTS=0
        # disables the skip (benchmark A/B kill-switch).
        meta = self._chunk_meta.get(loop_key, {})
        skip = set(meta.get("snapshot_free", ()))
        if skip and os.environ.get("REPRO_STATIC_EFFECTS", "") == "0":
            skip = set()
        unsafe = [a for a in meta.get("rw", ()) if a in self._shared and a not in skip]
        snap = {a: np.array(self._shared[a][2], copy=True) for a in unsafe}

        results, timings, failed = self._run_chunks(loop_key, chunks, bindings, deadline_s)
        if failed:
            if BREAKER.record_failure():
                _note_fault(
                    "<pool>",
                    "breaker-open",
                    f"{BREAKER.failures} consecutive dispatch failures; "
                    f"pool dispatch suspended for {BREAKER.cooldown_s:.0f}s",
                )
            time.sleep(RETRY_BACKOFF_S)
            if snap:
                self._restore_snapshot(snap)
                retry_jobs = list(chunks)  # re-run everything from the snapshot
                results, timings = {}, []
            else:
                from repro.runtime.scheduler import retry_chunk_plan

                retry_jobs = retry_chunk_plan(failed, max(1, len(self._healthy())))
            _note_degradation(
                loop_key,
                "compiled-parallel",
                "compiled-parallel",
                f"retrying {len(retry_jobs)} chunk(s) after worker fault",
            )
            r2, t2, failed2 = self._run_chunks(loop_key, retry_jobs, bindings, deadline_s)
            results.update(r2)
            timings.extend(t2)
            if failed2:
                if snap:
                    self._restore_snapshot(snap)
                    serial_jobs = list(chunks)
                    results, timings = {}, []
                else:
                    serial_jobs = sorted(failed2)
                _note_degradation(
                    loop_key,
                    "compiled-parallel",
                    "compiled-serial",
                    f"retry failed; running {len(serial_jobs)} chunk(s) in the parent",
                )
                r3, t3 = self._run_serial_chunks(loop_key, serial_jobs, bindings)
                results.update(r3)
                timings.extend(t3)
        elif BREAKER.record_success():
            _note_fault("<pool>", "breaker-closed", "probe dispatch succeeded")
        from repro.runtime import workmeter

        workmeter.record_chunks(loop_key, timings)
        # iteration order == ascending chunk lo; the caller's reduction
        # combine is order-tolerant but the last dict must hold the
        # loop's final iteration (privates contract)
        return [results[k] for k in sorted(results)]

    def _run_chunks(
        self,
        loop_key: str,
        jobs: Sequence[Tuple[int, int]],
        bindings: Dict[str, Any],
        deadline_s: float,
    ):
        """Supervised execution of ``jobs`` (chunk ranges) on the pool.

        Returns ``(results, timings, failed)`` where ``results`` maps a
        chunk's ``lo`` to its reduction/private dict, ``timings`` is the
        workmeter triples, and ``failed`` lists the ranges that did not
        complete (worker death, hang past the deadline, malformed reply,
        or a clean worker-side error).
        """
        queue: List[Tuple[int, Tuple[int, int]]] = list(enumerate(jobs))
        inflight: Dict[int, Tuple[int, Tuple[int, int]]] = {}
        results: Dict[int, Dict[str, Any]] = {}
        timings: List[Tuple[int, int, float]] = []
        failed: List[Tuple[int, int]] = []
        t_start = time.monotonic()
        while True:
            # top up idle healthy workers
            for w in self._healthy():
                if w in inflight or not queue:
                    continue
                idx, (clo, chi) = queue.pop(0)
                try:
                    self._conns[w].send(
                        ("run", (self._prog_key, loop_key, idx, clo, chi, bindings))
                    )
                    inflight[w] = (idx, (clo, chi))
                except (BrokenPipeError, OSError) as exc:
                    self._fault_worker(
                        w, "worker-exit", loop_key, f"worker {w} pipe broken at send: {exc}"
                    )
                    failed.append((clo, chi))
            if not inflight:
                failed.extend(rng for _, rng in queue)
                break
            remaining = deadline_s - (time.monotonic() - t_start)
            if remaining <= 0:
                # final non-blocking sweep, then declare the rest hung
                self._drain_ready(inflight, results, timings, failed, loop_key, block=False)
                for w, (_idx, rng) in list(inflight.items()):
                    inflight.pop(w)
                    failed.append(rng)
                    self._fault_worker(
                        w,
                        "hang",
                        loop_key,
                        f"worker {w} missed the {deadline_s:.2f}s dispatch deadline",
                    )
                failed.extend(rng for _, rng in queue)
                break
            self._drain_ready(
                inflight, results, timings, failed, loop_key,
                block=True, timeout=min(POLL_INTERVAL_S, remaining),
            )
            # liveness sweep: a worker that died without delivering EOF
            for w, (_idx, rng) in list(inflight.items()):
                p = self._procs[w]
                if not p.is_alive() and not self._conns[w].poll():
                    inflight.pop(w)
                    failed.append(rng)
                    self._fault_worker(
                        w,
                        "worker-exit",
                        loop_key,
                        f"worker {w} process exited (exitcode {p.exitcode})",
                    )
        return results, timings, failed

    def _drain_ready(
        self, inflight, results, timings, failed, loop_key,
        *, block: bool, timeout: float = 0.0,
    ) -> None:
        """Collect every reply currently available from in-flight workers."""
        conns = {self._conns[w]: w for w in inflight}
        if not conns:
            return
        try:
            ready = _conn_wait(list(conns), timeout=timeout if block else 0)
        except OSError:  # pragma: no cover - a closed handle mid-wait
            ready = [c for c in conns if c.closed or c.poll(0)]
        for conn in ready:
            w = conns[conn]
            if w not in inflight:  # pragma: no cover - defensive
                continue
            _idx, rng = inflight.pop(w)
            clo, chi = rng
            try:
                msg = conn.recv()
            except (EOFError, OSError) as exc:
                failed.append(rng)
                self._fault_worker(
                    w, "worker-exit", loop_key,
                    f"worker {w} died mid-chunk: {type(exc).__name__}",
                )
                continue
            if not _valid_run_reply(msg):
                failed.append(rng)
                self._fault_worker(
                    w, "corrupt-reply", loop_key,
                    f"worker {w} sent a malformed reply ({type(msg).__name__})",
                )
                continue
            status, payload = msg
            if status != "ok":
                # clean worker-side exception: the worker is healthy, the
                # chunk is not; record it and let the ladder sort it out —
                # a deterministic program fault resurfaces serially
                failed.append(rng)
                _note_fault(loop_key, "chunk-error", f"worker {w}: {payload.splitlines()[-1] if payload else payload}")
                continue
            dt, res = payload
            timings.append((clo, chi, float(dt)))
            results[clo] = res

    def _restore_snapshot(self, snap: Dict[str, np.ndarray]) -> None:
        """Write the pre-dispatch contents back into the shared views."""
        for name, data in snap.items():
            self._shared[name][2][...] = data

    def _run_serial_chunks(
        self, loop_key: str, jobs: Sequence[Tuple[int, int]], bindings: Dict[str, Any]
    ):
        """Final ladder rung: run chunks in the parent on the shared views."""
        ns = self._parent_ns.get(self._prog_key or "")
        fn = (ns or {}).get(f"_chunk_{loop_key}")
        if fn is None:  # pragma: no cover - ensure_program always fills this
            raise InterpError(f"no serial fallback for chunk {loop_key!r}")
        arrs = {name: view for name, (_orig, _seg, view) in self._shared.items()}
        results: Dict[int, Dict[str, Any]] = {}
        timings: List[Tuple[int, int, float]] = []
        for clo, chi in jobs:
            t0 = time.perf_counter()
            try:
                results[clo] = fn(arrs, clo, chi, dict(bindings))
            except InterpError:
                raise
            except Exception as exc:
                raise InterpError(f"serial chunk fallback failed: {exc}") from None
            timings.append((clo, chi, time.perf_counter() - t0))
        return results, timings

    # -- teardown -----------------------------------------------------------

    def shutdown(self) -> None:
        if not self._alive:
            return
        self._drop_cache()
        self._alive = False
        for conn in self._conns:
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for conn, p in zip(self._conns, self._procs):
            try:
                if p.is_alive() and conn.poll(1.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            # escalate: polite join -> terminate -> kill; a wedged or
            # fault-injected worker must never outlive the pool
            self._reap(p, polite=True)


#: one-time cost of shipping a loop dispatch through the pool: pipe
#: round-trips, chunk-plan pickling, shared-memory bookkeeping.  These are
#: conservative (high) defaults for the cost model — a dispatch that is
#: predicted to win despite them is a safe bet (docs/cost_model.md,
#: "Execution cost model and backend=auto").
DISPATCH_BASE_S = 1.5e-3
DISPATCH_PER_WORKER_S = 2.5e-4


def dispatch_overhead_s(workers: int) -> float:
    """Predicted fixed overhead of one parallel loop dispatch."""
    return DISPATCH_BASE_S + DISPATCH_PER_WORKER_S * max(0, int(workers))


def planned_workers(threads: Optional[int] = None) -> int:
    """The worker count a dispatch would use, without creating a pool."""
    return max(1, int(threads or os.environ.get("REPRO_EXEC_THREADS", 0) or os.cpu_count() or 1))


_POOL: Optional[WorkerPool] = None


def get_pool(workers: Optional[int] = None) -> WorkerPool:
    """The process-wide pool (created on first use, resized on demand)."""
    global _POOL
    want = max(1, int(workers or os.environ.get("REPRO_EXEC_THREADS", 0) or os.cpu_count() or 1))
    if _POOL is not None and (_POOL.size != want or not _POOL._check_alive()):
        _POOL.shutdown()
        _POOL = None
    if _POOL is None:
        _POOL = WorkerPool(want)
    return _POOL


def shutdown_pool() -> None:
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


# LIFO: shutdown_pool runs first (graceful teardown), the segment sweep
# last — so abnormal exits cannot leave /dev/shm orphans behind even when
# the pool object itself is wedged.
atexit.register(_sweep_segments)
atexit.register(shutdown_pool)
