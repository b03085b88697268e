"""End-to-end benchmark of the repro analyzer, compiler, runtime and daemon.

Run it with ``python3 e2ebench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``e2ebench/README.md`` for the workloads and metrics.
"""
