"""The benchmark's own checks: smoke runs, traced/untraced parity, coverage.

Each smoke run spawns ``perfbench/run.py`` at a tiny size, the way the
benchmark is invoked for real, and reads its last output line.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import envprobe
from perfbench import ledger as ledger_mod
from perfbench import run as run_mod
from perfbench import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = {"fig7_sweeps": 1.0, "fleet_open": 2.0, "ista_products": 1.0}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(TINY_SECONDS[workload]), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run_mod.WORKLOAD_NAMES)
    assert set(run_mod.WORKLOAD_NAMES) == set(workloads.EXPECTED_LAYERS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run_mod.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run_mod.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run_mod.WORKLOAD_NAMES)
def test_tiny_run_is_correct(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, diag_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    diagnostics = json.loads(diag_line)["perfbench"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # The open loop's schedule checks depend on how loaded the machine
    # is (e.g. by a parallel test run); every other check must hold.
    load_dependent = {"generator_on_time", "no_growing_backlog"}
    checks = diagnostics["checks"]
    assert all(ok for name, ok in checks.items() if name not in load_dependent), checks
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run_mod.PER_LAYER_UNITS if trace else run_mod.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        # The traced pass returned the untraced pass's estimates, and
        # every layer the workload was chosen for saw calls.
        assert diagnostics["checks"]["traced_estimates_identical"]
        assert diagnostics["layers_without_calls"] == []
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_wrapper_is_expected_somewhere():
    """A wrapper no workload reaches would read zero without failing."""
    expected = {k for keys in workloads.EXPECTED_LAYERS.values() for k in keys}
    assert {key for key, _, _ in ledger_mod.TARGETS} == expected


def test_ledger_restores_every_patched_name():
    before = [getattr(*ledger_mod._resolve(module, path)) for _, module, path in ledger_mod.TARGETS]
    with ledger_mod.Ledger().installed():
        during = [getattr(*ledger_mod._resolve(m, p)) for _, m, p in ledger_mod.TARGETS]
    after = [getattr(*ledger_mod._resolve(m, p)) for _, m, p in ledger_mod.TARGETS]
    assert all(a is not b for a, b in zip(before, during, strict=True))
    assert all(a is b for a, b in zip(before, after, strict=True))


def test_inputs_depend_only_on_the_seed():
    from perfbench import inputs

    a = inputs.digest(workloads.make_inputs("ista_products", 5, 8))
    b = inputs.digest(workloads.make_inputs("ista_products", 5, 8))
    c = inputs.digest(workloads.make_inputs("ista_products", 6, 8))
    assert a == b != c
    fleet = workloads.make_inputs("fleet_open", 5, 6)
    assert inputs.digest(fleet) == inputs.digest(workloads.make_inputs("fleet_open", 5, 6))
    ids = [r.link_id for f in fleet.fixes for r in f.requests]
    assert len(ids) == len(set(ids))


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark: no result, non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ista_products", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_layer_checks_need_the_chosen_layer_to_dominate():
    fig7 = {"prep.band_products_s_per_link": 0.2, "engine.sweeps_s_per_link": 0.3}
    assert run_mod.layer_checks("fig7_sweeps", fig7) == {"layer_share_above_half": True}
    fig7["prep.band_products_s_per_link"] = 0.1
    assert run_mod.layer_checks("fig7_sweeps", fig7) == {"layer_share_above_half": False}
    fleet = {"stream.links_per_flush": 4.0, "stream.queue_wait_p50_s": 0.0}
    assert run_mod.layer_checks("fleet_open", fleet) == {"stream_layer_reported": False}


def test_closed_loop_latency_is_the_mean_round_time():
    result = workloads.PassResult(tof_s=[1e-9] * 8, true_tof_s=[1e-9] * 8,
                                  latencies_s=[0.1] * 8, n_links=8, wall_s=2.0, cpu_s=2.0)
    values = run_mod.end_to_end_metrics("fig7_sweeps", result, [1.0], 100.0)
    assert values["links_per_s"] == 4.0
    assert values["latency_p50_s"] == values["latency_p90_s"] == workloads.FIG7_ROUND_LINKS / 4.0


def test_pass_times_are_stated_at_the_reference_speed():
    """A pass run on a box at half the reference speed reads as twice as fast."""
    closed = workloads.PassResult(tof_s=[1e-9] * 8, true_tof_s=[1e-9] * 8,
                                  latencies_s=[0.1] * 8, n_links=8, wall_s=2.0, cpu_s=2.0,
                                  speed_factor=0.5)
    values = run_mod.end_to_end_metrics("ista_products", closed, [1.0], 100.0)
    assert values["links_per_s"] == 8.0
    assert values["cpu_ms_per_link"] == 125.0
    # The open loop scales each fix by the factor its schedule ran at.
    fleet = workloads.PassResult(tof_s=[1e-9] * 8, true_tof_s=[1e-9] * 8,
                                 position_error_m=[0.01] * 2, latencies_s=[0.2, 0.4],
                                 latency_factors=[0.5, 0.25], n_links=8, wall_s=2.0,
                                 cpu_s=2.0, speed_factor=0.5)
    values = run_mod.end_to_end_metrics("fleet_open", fleet, [1.0], 100.0)
    assert values["latency_p50_s"] == pytest.approx(0.1)
    assert values["latency_p90_s"] == pytest.approx(0.1)
    assert values["links_per_s"] == 8.0


def test_speed_probe_factor_is_the_reference_over_the_median_sample():
    probe = envprobe.SpeedProbe()
    for _ in range(3):
        probe.sample()
    assert len(probe.wall_s) == 3 and probe.cpu_s > 0
    assert probe.factor() == envprobe.REFERENCE_PROBE_S / statistics.median(probe.wall_s)


def test_peak_rss_covers_only_what_follows_the_reset():
    import numpy as np

    big = np.ones(20_000_000)  # 160 MB before the reset
    del big
    before = run_mod.peak_rss_mb(False)
    if not run_mod.reset_peak_rss():
        pytest.skip("no resettable high-water mark on this platform")
    small = np.ones(2_000_000)
    assert run_mod.peak_rss_mb(True) < before - 100
    del small
