"""The repository benchmark: seeded workloads through the serving stack.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics.  The modules split the job:

* :mod:`perfbench.inputs` — seeded input generation (never timed);
* :mod:`perfbench.workloads` — the three drivers, one asyncio loop each;
* :mod:`perfbench.ledger` — the traced run's per-layer wrappers;
* :mod:`perfbench.envprobe` — environment fingerprint and drift probe;
* :mod:`perfbench.run` — command line, set-up probes, checks, output.
"""
