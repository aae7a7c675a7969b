"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig7_sweeps --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs untraced and then traced, checks that both return identical
estimates, and prints the per-layer ledger.  The last line of standard
output is the result object; the line before it carries the
environment fingerprint, the input hash and every check.  The run needs
the repository's ``src/`` next to this directory and exits non-zero
without a result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import envprobe  # noqa: E402

WORKLOAD_NAMES = ("fig7_sweeps", "fleet_open", "ista_products")

END_TO_END_UNITS = {
    "setup_s": "s",
    "links_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "cpu_ms_per_link": "ms",
    "peak_rss_mb": "MB",
    "tof_error_p50_ns": "ns",
    "fix_error_p50_m": "m",
}

PER_LAYER_UNITS = {
    "prep.band_products_s_per_link": "s",
    "prep.coarse_s_per_link": "s",
    "engine.sweeps_s_per_link": "s",
    "engine.products_s_per_link": "s",
    "engine.links_per_call": "count",
    "sparse.invert_s_per_link": "s",
    "sparse.fista_iterations_mean": "count",
    "profile.refine_s_per_link": "s",
    "deflation.s_per_link": "s",
    "service.self_s_per_call": "s",
    "stream.links_per_flush": "count",
    "stream.queue_wait_p50_s": "s",
    "stream.concurrent_groups_max": "count",
    "loc.self_s_per_fix": "s",
    "loc.solve_s_per_call": "s",
    "loc.clients_per_solve": "count",
    "env.blas_threads": "count",
    "proc.threads_peak": "count",
    "gen.late_p99_s": "s",
    "env.ref_loop_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_PROBES = 3
SETUP_SPEED_SAMPLES = 10
"""Speed samples taken on each side of every set-up probe."""

# Accuracy bounds against the simulated truth: about three times
# today's median on the testbed sweeps (the paper's LOS median, 0.47 ns)
# and ten times today's on the synthetic products.
TOF_ERROR_P50_MAX_NS = {"fig7_sweeps": 0.47, "fleet_open": 0.03, "ista_products": 0.05}
FIX_ERROR_P50_MAX_M = 0.04

# Open-loop validity: the generator kept its schedule, and the last
# quarter's latency did not run away from the first (no growing backlog).
LATE_P99_MAX_S = 0.1
BACKLOG_FACTOR = 3.0
BACKLOG_SLACK_S = 0.5

# Traced and untraced passes must agree like batch and scalar paths do.
IDENTICAL_TOF_S = 1e-12

# Each workload must load the layer it was chosen for: in the traced
# pass, the first per-layer figure exceeds this share of the second.
LAYER_SHARES = {
    "fig7_sweeps": ("prep.band_products_s_per_link", "engine.sweeps_s_per_link"),
    "ista_products": ("sparse.invert_s_per_link", "engine.products_s_per_link"),
}
MIN_LAYER_SHARE = 0.5
# The open loop exists to show the stream's coalescing and queueing.
STREAM_LAYER_KEYS = ("stream.links_per_flush", "stream.queue_wait_p50_s")


def _quantile(values, q: float) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return float(np.quantile(finite, q)) if finite else math.nan


def _status_field(field: str) -> int | None:
    """A numeric field of ``/proc/self/status`` (Linux), or None."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _threads_now() -> int:
    """Threads of this process, native BLAS workers included (Linux)."""
    threads = _status_field("Threads")
    return threading.active_count() if threads is None else threads


def reset_peak_rss() -> bool:
    """Restart the high-water mark at the current RSS (Linux ``clear_refs``).

    Input generation and the drift probe run before the timed pass; with
    the mark reset, ``peak_rss_mb`` covers the pass alone.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        return False
    return _status_field("VmHWM") is not None


def peak_rss_mb(since_reset: bool) -> float:
    """Peak RSS since :func:`reset_peak_rss`, else over the whole process."""
    if since_reset:
        return _status_field("VmHWM") / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ThreadSampler:
    """Samples the process thread count until stopped (traced pass only)."""

    def __init__(self, period_s: float = 0.05) -> None:
        self.peak = 0
        self._period_s = period_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._period_s):
            self.peak = max(self.peak, _threads_now() - 1)  # minus the sampler

    def __enter__(self) -> "ThreadSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Set-up probe: a fresh interpreter up to its first warm-up response.
# ----------------------------------------------------------------------
def _setup_probe_child(workload: str, seed: int) -> None:
    from perfbench import workloads

    gen_start = time.perf_counter()
    warmup = workloads.make_warmup(workload, seed)
    gen_s = time.perf_counter() - gen_start
    workloads.warmup_response(workload, warmup)
    print(json.dumps({"gen_s": gen_s}), flush=True)


def measure_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Spawn-to-first-response wall time, minus warm-up input generation.

    Returns ``(measured, at the reference speed)``; the box's speed is
    sampled just before and just after the probe.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    speed = envprobe.SpeedProbe()
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited with {code}")
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    measured = elapsed - json.loads(line)["gen_s"]
    return measured, measured * speed.factor()


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def _abs_tof_errors_s(result) -> list[float]:
    return [abs(t - true) for t, true in zip(result.tof_s, result.true_tof_s, strict=True)]


def fleet_latencies_s(result) -> list[float]:
    """The open loop's latencies at the reference speed.

    Each fix's latency is scaled by the speed factor its schedule ran at,
    so a slow stretch of the box is taken out where it happened.
    """
    return [latency * factor for latency, factor
            in zip(result.latencies_s, result.latency_factors, strict=True)]


def accuracy_checks(workload: str, result, tof_p50_ns: float, fix_p50_m: float) -> dict:
    checks = {
        "no_failures": result.failed == 0,
        "tof_error_p50_within_bound": tof_p50_ns <= TOF_ERROR_P50_MAX_NS[workload],
    }
    if workload == "fleet_open":
        latencies_s = fleet_latencies_s(result)
        quarter = max(1, len(latencies_s) // 4)
        first = statistics.median(latencies_s[:quarter])
        last = statistics.median(latencies_s[-quarter:])
        checks["fix_error_p50_within_bound"] = fix_p50_m <= FIX_ERROR_P50_MAX_M
        checks["generator_on_time"] = _quantile(result.late_s, 0.99) <= LATE_P99_MAX_S
        checks["no_growing_backlog"] = last <= BACKLOG_FACTOR * first + BACKLOG_SLACK_S
    return checks


def end_to_end_metrics(workload: str, result, setup_samples: list[float],
                       rss_mb: float) -> dict:
    """Every end-to-end metric; some are derived on some workloads.

    Times are stated at the reference box speed: the pass's times are
    multiplied by ``result.speed_factor``, and ``setup_samples`` come
    already adjusted (see ``DESIGN.md``, *Box speed*).

    The result must carry every metric on every workload, but not all of
    them mean something everywhere.  Where they do not, the value is
    derived from another metric and cannot move on its own:

    * closed loops (``fig7_sweeps``, ``ista_products``): latency is the
      round size over throughput, so ``latency_p50_s`` and
      ``latency_p90_s`` both carry the mean round time;
    * ``fleet_open``: ``links_per_s`` is the offered rate (in reference
      seconds) by construction;
    * ranging workloads: ``fix_error_p50_m`` is ``tof_error_p50_ns``
      times the speed of light (the one-dimensional fix).
    """
    from perfbench.workloads import ROUND_LINKS
    from repro.rf.constants import SPEED_OF_LIGHT

    errors_s = _abs_tof_errors_s(result)
    speed = result.speed_factor
    links_per_s = result.n_links / (result.wall_s * speed)
    if workload == "fleet_open":
        fix_error_m = _quantile(result.position_error_m, 0.5)
        latency_p50_s = _quantile(fleet_latencies_s(result), 0.5)
        latency_p90_s = _quantile(fleet_latencies_s(result), 0.9)
    else:
        fix_error_m = _quantile(errors_s, 0.5) * SPEED_OF_LIGHT
        latency_p50_s = latency_p90_s = ROUND_LINKS[workload] / links_per_s
    return {
        "setup_s": statistics.median(setup_samples),
        "links_per_s": links_per_s,
        "latency_p50_s": latency_p50_s,
        "latency_p90_s": latency_p90_s,
        "cpu_ms_per_link": 1e3 * result.cpu_s * speed / result.n_links,
        "peak_rss_mb": rss_mb,
        "tof_error_p50_ns": _quantile(errors_s, 0.5) * 1e9,
        "fix_error_p50_m": fix_error_m,
    }


def layer_checks(workload: str, layer: dict) -> dict:
    """The traced pass shows the workload loading its layer."""
    checks = {}
    if workload in LAYER_SHARES:
        part, whole = LAYER_SHARES[workload]
        checks["layer_share_above_half"] = layer[part] > MIN_LAYER_SHARE * layer[whole]
    if workload == "fleet_open":
        checks["stream_layer_reported"] = all(layer[k] > 0 for k in STREAM_LAYER_KEYS)
    return checks


def identical_estimates(a, b) -> bool:
    """Whether two passes over the same inputs returned the same answers."""
    if len(a.tof_s) != len(b.tof_s) or a.failed != b.failed:
        return False
    for x, y in zip(a.tof_s, b.tof_s, strict=True):
        if math.isnan(x) != math.isnan(y) or abs(x - y) > IDENTICAL_TOF_S:
            return False
    return True


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: ``(result object, diagnostics)``."""
    from perfbench import workloads
    from perfbench.inputs import digest
    from perfbench.ledger import Ledger

    ref_before = envprobe.ref_loop_s()
    steal0 = envprobe.cpu_steal_ticks()
    # A traced run splits its time between the untraced and traced pass.
    size = workloads.work_size(workload, seconds / 2 if trace else seconds)
    measured = workloads.make_inputs(workload, seed, size)
    warmup = workloads.make_warmup(workload, seed)
    diagnostics: dict = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "work_size": size,
        "inputs_sha256": digest(measured),
    }
    setup_pairs = [] if trace else [measure_setup_s(workload, seed) for _ in range(SETUP_PROBES)]
    setup_samples = [adjusted for _, adjusted in setup_pairs]

    rss_reset = reset_peak_rss()
    result = workloads.run_pass(workload, measured, warmup)
    rss_mb = peak_rss_mb(rss_reset)
    if trace:
        ledger = Ledger()
        with ThreadSampler() as sampler, ledger.installed():
            traced = workloads.run_pass(workload, measured, warmup, ledger.reset)
        counts = ledger.call_counts()
        missing = [k for k in workloads.EXPECTED_LAYERS[workload] if counts[k] == 0]
        diagnostics["call_counts"] = counts
        diagnostics["layers_without_calls"] = missing
    ref_after = envprobe.ref_loop_s()
    steal1 = envprobe.cpu_steal_ticks()

    errors_s = _abs_tof_errors_s(result)
    values = end_to_end_metrics(workload, result, setup_samples or [math.nan], rss_mb)
    checks = accuracy_checks(workload, result, values["tof_error_p50_ns"],
                             values["fix_error_p50_m"])
    if trace:
        checks["traced_estimates_identical"] = identical_estimates(result, traced)
        checks["every_layer_called"] = not missing
        layer = ledger.metrics(traced.n_links)
        layer.update({
            "stream.links_per_flush": traced.links_per_flush,
            "env.blas_threads": envprobe.numpy_blas_threads(),
            "proc.threads_peak": sampler.peak,
            "gen.late_p99_s": _quantile(traced.late_s, 0.99) if traced.late_s else 0.0,
            "env.ref_loop_s": 0.5 * (ref_before + ref_after),
            # CPU, not wall: the open loop's wall time is its schedule.
            "trace.overhead_ratio": (traced.cpu_s * traced.speed_factor)
            / (result.cpu_s * result.speed_factor),
        })
        checks.update(layer_checks(workload, layer))
        metrics = _with_units(layer, PER_LAYER_UNITS)
    else:
        metrics = _with_units(values, END_TO_END_UNITS)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    checks["metrics_finite"] = finite

    diagnostics.update({
        "checks": checks,
        "end_to_end": values,
        "setup_samples_s": [measured for measured, _ in setup_pairs],
        "setup_samples_at_reference_s": setup_samples,
        "speed": {
            "factor": result.speed_factor,
            "probe_median_s": result.speed_probe_s,
            "samples": result.n_speed_probes,
            "reference_probe_s": envprobe.REFERENCE_PROBE_S,
            "pass_wall_s": result.wall_s,
            "pass_cpu_s": result.cpu_s,
        },
        "peak_rss_scope": "pass" if rss_reset else "process",
        "ref_loop_s": [ref_before, ref_after],
        "steal_ticks": None if steal0 is None else steal1 - steal0,
        "max_tof_error_ns": max(errors_s) * 1e9 if errors_s else None,
        # Measured per-request latency; on the closed loops the metrics
        # carry the mean round time instead (see end_to_end_metrics).
        "request_latency_p50_p90_s": [_quantile(result.latencies_s, 0.5),
                                      _quantile(result.latencies_s, 0.9)],
        "fix_latencies_at_reference_s": (
            [round(v, 5) for v in fleet_latencies_s(result)] if workload == "fleet_open" else []),
        "fingerprint": envprobe.fingerprint(ROOT),
    })
    out = {
        "correct": all(checks.values()),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    return out, diagnostics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe_child(args.workload, args.seed)
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    out, diagnostics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"perfbench": diagnostics}, default=str))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
