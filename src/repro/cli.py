"""Command-line interface.

::

    python -m repro parallelize kernel.c              # annotated C to stdout
    python -m repro parallelize kernel.c --pipeline base --schedule dynamic
    python -m repro report kernel.c                   # per-loop decisions
    python -m repro properties kernel.c               # subscript-array facts
    python -m repro run AMGmk --backend compiled      # execute + time a kernel
    python -m repro figures                           # regenerate §4 tables
    python -m repro serve --socket /tmp/repro.sock    # analysis daemon
    python -m repro client parallelize kernel.c --socket /tmp/repro.sock
    python -m repro ping --socket /tmp/repro.sock     # daemon health check

Pipelines: ``classical`` (Cetus), ``base`` (ICS'21), ``new`` (default,
this paper).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from repro.analysis import AnalysisConfig, analyze_program
from repro.budget import AnalysisBudget
from repro.diagnostics import format_diagnostics
from repro.lang.cparser import ParseError
from repro.parallelizer import format_report, parallelize
from repro.parallelizer.codegen import emit_openmp

PIPELINES = {
    "classical": AnalysisConfig.classical,
    "base": AnalysisConfig.base_algorithm,
    "new": AnalysisConfig.new_algorithm,
}


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    p = argparse.ArgumentParser(
        prog="repro",
        description="Subscripted-subscript recurrence analysis & parallelization (PPoPP'24 reproduction)",
    )
    p.add_argument("--version", action="version", version=f"repro {__version__}")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print intern-table / cache hit statistics after the command",
    )
    p.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="ignore REPRO_CACHE_DIR: neither read nor write the on-disk "
        "result cache for this invocation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("source", help="C source file ('-' for stdin)")
        sp.add_argument(
            "--pipeline",
            choices=sorted(PIPELINES),
            default="new",
            help="analysis capability set (default: new)",
        )
        sp.add_argument(
            "--strict",
            action="store_true",
            help="exit nonzero if the analysis produced any diagnostic "
            "(unsupported pattern, budget stop, internal fault)",
        )
        sp.add_argument(
            "--audit",
            action="store_true",
            help="print each PARALLEL loop's verdict certificate (the proof "
            "chain re-validated by the independent checker)",
        )
        sp.add_argument(
            "--max-expr-nodes",
            type=int,
            default=None,
            metavar="N",
            help="budget: largest symbolic expression the analysis may build",
        )
        sp.add_argument(
            "--max-simplify-steps",
            type=int,
            default=None,
            metavar="N",
            help="budget: uncached simplifier rewrites per loop nest",
        )
        sp.add_argument(
            "--deadline-ms",
            type=float,
            default=None,
            metavar="MS",
            help="budget: wall-clock deadline per loop nest, in milliseconds",
        )
        sp.add_argument(
            "--no-speculate",
            action="store_true",
            help="disable the speculative inspector-executor tier (no "
            "conditional certificates, no dispatch-time monotonicity scans)",
        )

    sp = sub.add_parser("parallelize", help="emit the OpenMP-annotated program")
    add_common(sp)
    sp.add_argument("--schedule", choices=["static", "dynamic", "guided"], default=None)
    sp.add_argument("--chunk", type=int, default=None)

    sp = sub.add_parser("report", help="print per-loop parallelization decisions")
    add_common(sp)

    sp = sub.add_parser("properties", help="print proven subscript-array properties")
    add_common(sp)

    sp = sub.add_parser("explain", help="detailed per-loop compile log (SVDs, dependences)")
    add_common(sp)
    sp.add_argument("--loop", default=None, help="explain only this loop id")

    sp = sub.add_parser(
        "run", help="execute a registered benchmark kernel under a chosen backend"
    )
    sp.add_argument(
        "benchmark", nargs="?", default=None,
        help="registered benchmark name (omit or use --list to enumerate)",
    )
    sp.add_argument("--list", action="store_true", dest="list_benchmarks",
                    help="list registered benchmark names and exit")
    sp.add_argument(
        "--backend", choices=["interp", "compiled", "compiled-parallel", "auto"],
        default=None,
        help="execution backend (default: REPRO_BACKEND env var, else auto — "
             "the cost model picks per loop)",
    )
    sp.add_argument("--pipeline", choices=sorted(PIPELINES), default="new")
    sp.add_argument("--scale", choices=["small", "paper"], default="small",
                    help="input size: small_env (default) or the paper-scale exec_env")
    sp.add_argument("--repeats", type=int, default=1,
                    help="report the best of N timed runs")
    sp.add_argument("--threads", type=int, default=None,
                    help="worker count for compiled-parallel (default: cpu count)")
    sp.add_argument("--check", action="store_true",
                    help="also run the interpreter and verify the outputs agree")

    sub.add_parser("figures", help="regenerate the paper's Table 1 and Figures 13-17")

    def add_endpoint(sp):
        sp.add_argument("--host", default="127.0.0.1", help="TCP host (default 127.0.0.1)")
        sp.add_argument("--port", type=int, default=None, help="TCP port")
        sp.add_argument("--socket", default=None, metavar="PATH",
                        help="Unix-domain socket path (preferred locally)")
        sp.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="client connect/IO timeout in seconds")

    sp = sub.add_parser(
        "serve", help="run the long-lived analysis daemon (see docs/service.md)"
    )
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=0,
                    help="TCP port (0 = ephemeral; the bound port is printed)")
    sp.add_argument("--socket", default=None, metavar="PATH",
                    help="serve on a Unix-domain socket instead of TCP")
    sp.add_argument("--queue-size", type=int, default=128,
                    help="admission queue bound; requests past it get an "
                    "immediate 503-style 'overloaded' reply")
    sp.add_argument("--breaker-threshold", type=int, default=3,
                    help="consecutive execute failures that open the circuit "
                    "breaker (degrades execute to analyze-only)")
    sp.add_argument("--breaker-cooldown-s", type=float, default=30.0)
    sp.add_argument("--test-ops", action="store_true",
                    help="honor __test_sleep_ms in requests (tests/benchmarks "
                    "use this to saturate the admission queue deterministically)")

    sp = sub.add_parser(
        "client", help="send one request to a running analysis daemon"
    )
    add_endpoint(sp)
    sp.add_argument("action", choices=["ping", "metrics", "analyze", "parallelize",
                                       "execute", "shutdown"])
    sp.add_argument("sources", nargs="*",
                    help="C source files for analyze/parallelize (N files = one "
                    "batch request), or the benchmark name for execute")
    sp.add_argument("--pipeline", choices=sorted(PIPELINES), default="new")
    sp.add_argument("--deadline-ms", type=float, default=None,
                    help="per-request deadline (bounds queue wait and analysis)")
    sp.add_argument("--backend", default="auto",
                    choices=["interp", "compiled", "compiled-parallel", "auto"],
                    help="execute action only")
    sp.add_argument("--scale", choices=["small", "paper"], default="small",
                    help="execute action only")
    sp.add_argument("--repeats", type=int, default=1, help="execute action only")
    sp.add_argument("--raw", action="store_true",
                    help="print the raw JSON reply instead of a rendering")

    sp = sub.add_parser(
        "ping", help="health-check a running analysis daemon (exit 0 iff alive)"
    )
    add_endpoint(sp)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.no_disk_cache:
        from repro import cache

        cache.disable()
    try:
        return _run_command(args)
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        # user errors (missing/unreadable file, syntax error): one line, no
        # traceback, exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.stats:
            from repro.ir.perfstats import format_stats
            from repro.runtime.workmeter import (
                format_decision_table,
                format_fault_log,
                format_inspector_table,
                format_summary,
            )

            print(format_stats(), file=sys.stderr)
            wm = format_summary()
            if wm:
                print(wm, file=sys.stderr)
            table = format_decision_table()
            if table:
                print(table, file=sys.stderr)
            inspections = format_inspector_table()
            if inspections:
                print(inspections, file=sys.stderr)
            faults = format_fault_log()
            if faults:
                print(faults, file=sys.stderr)


def _run_command(args) -> int:
    if args.command == "figures":
        from repro.experiments.fig13 import format_fig13
        from repro.experiments.fig14 import format_fig14
        from repro.experiments.fig15 import format_fig15
        from repro.experiments.fig16 import format_fig16
        from repro.experiments.fig17 import format_fig17
        from repro.experiments.table1 import format_table1

        for block in (
            format_table1(),
            format_fig13(),
            format_fig14(),
            format_fig15(),
            format_fig16(),
            format_fig17(),
        ):
            print(block)
            print()
        return 0

    if args.command == "run":
        return _run_kernel(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command in ("client", "ping"):
        return _run_client(args)

    src = _read_source(args.source)
    config = _config_from_args(args)

    # multi-function files are inline-expanded first (paper §4.1)
    from repro.lang.functions import parse_translation_unit, inline_program

    unit = parse_translation_unit(src)
    program = inline_program(unit) if unit.functions else None

    if args.command == "properties":
        res = analyze_program(program if program is not None else src, config)
        props = res.properties.all_properties()
        if not props:
            print("(no subscript-array properties proven)")
        for prop in props:
            print(prop)
        return _finish_strict(args, res.diagnostics)

    result = parallelize(program if program is not None else src, config)
    if args.command == "report":
        print(format_report(result))
        _print_audit(args, result)
        return _finish_strict(args, result.diagnostics)

    if args.command == "explain":
        from repro.parallelizer.explain import explain_all, explain_loop

        if args.loop:
            print(explain_loop(result, args.loop))
        else:
            print(explain_all(result))
        _print_audit(args, result)
        return _finish_strict(args, result.diagnostics)

    # parallelize: the audit goes to stderr so stdout stays compilable C
    print(emit_openmp(result, schedule=args.schedule, chunk=args.chunk), end="")
    if getattr(args, "audit", False):
        from repro.parallelizer.explain import format_audit

        print(format_audit(result), file=sys.stderr)
    return _finish_strict(args, result.diagnostics)


def _run_kernel(args) -> int:
    """``repro run``: time one benchmark kernel under a chosen backend."""
    from repro.benchmarks import all_benchmarks, get_benchmark

    if args.list_benchmarks or not args.benchmark:
        for b in all_benchmarks():
            print(b.name)
        return 0
    try:
        bench = get_benchmark(args.benchmark)
    except KeyError:
        print(f"error: unknown benchmark {args.benchmark!r} "
              f"(see `repro run --list`)", file=sys.stderr)
        return 2

    from repro.runtime.compile import resolved_backend
    from repro.runtime.simulate import measure_kernel

    # the CLI defaults to the cost model's per-loop choice; an explicit
    # --backend or REPRO_BACKEND still pins a fixed backend
    import os as _os

    if args.backend or _os.environ.get("REPRO_BACKEND"):
        backend = resolved_backend(args.backend)
    else:
        backend = "auto"
    result = parallelize(bench.source, PIPELINES[args.pipeline]())
    env = bench.paper_env() if args.scale == "paper" else bench.small_env()
    t, out = measure_kernel(
        result, env, backend=backend, threads=args.threads, repeats=args.repeats
    )
    print(f"{bench.name}: {t:.4f}s  backend={backend} scale={args.scale} "
          f"(best of {args.repeats})")
    if args.check and backend != "interp":
        from repro.runtime.parexec import states_equivalent

        t_ref, ref = measure_kernel(result, env, backend="interp", repeats=1)
        ok = states_equivalent(ref, out)
        print(f"interp reference: {t_ref:.4f}s  speedup {t_ref / t:.1f}x  "
              f"outputs {'match' if ok else 'DIVERGE'}")
        return 0 if ok else 1
    return 0


def _run_serve(args) -> int:
    """``repro serve``: run the analysis daemon until SIGTERM/shutdown."""
    from repro.service.server import ServeConfig, serve

    config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_path=args.socket,
        queue_size=args.queue_size,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown_s,
        allow_test_ops=args.test_ops,
    )
    return serve(config)


def _run_client(args) -> int:
    """``repro client`` / ``repro ping``: one request to a running daemon."""
    import json

    from repro.service.client import DEFAULT_TIMEOUT_S, ServiceClient, ServiceError

    if args.port is None and args.socket is None:
        print("error: need --port or --socket to reach the daemon", file=sys.stderr)
        return 2
    action = "ping" if args.command == "ping" else args.action
    # validate arguments (and read local files) before touching the network
    programs = None
    if action == "execute":
        if len(args.sources) != 1:
            print("error: execute takes exactly one benchmark name", file=sys.stderr)
            return 2
    elif action in ("analyze", "parallelize"):
        if not args.sources:
            print("error: need at least one source file", file=sys.stderr)
            return 2
        try:
            programs = [
                {"id": path, "source": _read_source(path)} for path in args.sources
            ]
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    timeout = args.timeout if args.timeout else (
        5.0 if action == "ping" else DEFAULT_TIMEOUT_S
    )
    client = ServiceClient(
        host=args.host, port=args.port, unix_path=args.socket, timeout_s=timeout
    )
    try:
        with client:
            if action == "ping":
                reply = client.ping()
                print(f"ok: repro {reply.get('version')} pid {reply.get('pid')}")
                return 0
            if action == "metrics":
                print(json.dumps(client.metrics(), indent=2, default=str))
                return 0
            if action == "shutdown":
                client.shutdown_server()
                print("shutdown acknowledged")
                return 0
            if action == "execute":
                reply = client.execute(
                    args.sources[0], backend=args.backend, scale=args.scale,
                    repeats=args.repeats, pipeline=args.pipeline, check=False,
                )
            else:  # analyze / parallelize
                fn = client.analyze if action == "analyze" else client.parallelize
                reply = fn(
                    programs, pipeline=args.pipeline,
                    deadline_ms=args.deadline_ms, check=False,
                )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ConnectionError) as exc:
        print(f"error: cannot reach daemon: {exc}", file=sys.stderr)
        return 1
    if args.raw:
        print(json.dumps(reply, indent=2, default=str))
    else:
        _render_client_reply(action, reply)
    return 0 if reply.get("status") in ("ok", "degraded") else 1


def _render_client_reply(action: str, reply: dict) -> None:
    status = reply.get("status")
    if status not in ("ok", "degraded", "partial"):
        print(f"{status}: {reply.get('error', '')}", file=sys.stderr)
        return
    if status != "ok":
        print(f"[{status}] {reply.get('error', '')}", file=sys.stderr)
    for res in reply.get("results", ()):
        label = res.get("id", res.get("benchmark", "?"))
        if "error" in res:
            print(f"== {label}: ERROR {res['error']}")
        elif action == "execute":
            print(f"== {label}: {res.get('benchmark')} {res.get('seconds')}s "
                  f"backend={res.get('backend')} scale={res.get('scale')}")
        elif action == "analyze":
            print(f"== {label}")
            for prop in res.get("properties", ()):
                print(f"  {prop}")
        else:  # parallelize
            print(f"== {label} (parallel: "
                  f"{', '.join(res.get('parallel_loops', ())) or 'none'})")
            print(res.get("annotated_c", ""), end="")


def _print_audit(args, result) -> None:
    if getattr(args, "audit", False):
        from repro.parallelizer.explain import format_audit

        print()
        print(format_audit(result))


def _config_from_args(args) -> AnalysisConfig:
    """Pipeline config plus any budget knobs given on the command line."""
    config = PIPELINES[args.pipeline]()
    budget = AnalysisBudget(
        max_expr_nodes=args.max_expr_nodes,
        max_simplify_steps=args.max_simplify_steps,
        deadline_ms=args.deadline_ms,
    )
    if not budget.is_unlimited:
        config = dataclasses.replace(config, budget=budget)
    if getattr(args, "no_speculate", False):
        config = dataclasses.replace(config, speculate=False)
    return config


def _finish_strict(args, diagnostics) -> int:
    """Under ``--strict``, any diagnostic is a nonzero exit."""
    if not getattr(args, "strict", False) or not diagnostics:
        return 0
    print(f"{len(diagnostics)} diagnostic(s):", file=sys.stderr)
    print(format_diagnostics(diagnostics), file=sys.stderr)
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
