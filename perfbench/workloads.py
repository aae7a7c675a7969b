"""The three workload drivers: fixed work, one asyncio loop each.

Each driver builds its service through the public API, answers a
warm-up untimed (operators, threads and caches are set-up cost, which
``setup_s`` reports), then times a fixed amount of work and returns the
raw outcomes.  Work is fixed per ``--seconds`` (a size, not a deadline),
so a faster program finishes sooner instead of doing more.  Between
units of work, with nothing in flight, each driver samples the box's
speed (:class:`perfbench.envprobe.SpeedProbe`); the samples' time is
left out of the pass's wall and CPU totals.

* ``fig7_sweeps`` — closed loop of fixed-size rounds of ``SweepRequest``s
  through ``StreamingRangingService``: the paper's own pipeline, where
  CSI preprocessing dominates and each round is one flush.
* ``fleet_open`` — seeded Poisson open loop of ``LocalizationService.locate``
  at a fixed rate in reference seconds; latency is timed from each fix's
  due time.
* ``ista_products`` — closed loop of 64-link ``RangingService.submit``
  batches with ``method="ista"``: FISTA plus refinement, nothing else.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field

from repro.core.tof import TofEstimatorConfig
from repro.loc import LocalizationService, PositionTrackerBank
from repro.net.service import RangingService
from repro.rf.constants import SPEED_OF_LIGHT
from repro.stream import StreamingRangingService

from perfbench.envprobe import SpeedProbe

FIG7_ROUND_LINKS = 4
FIG7_LINKS_PER_S = 5.12
"""Nominal rate sizing the fixed work: ``seconds × rate`` links."""

ISTA_BATCH_LINKS = 64
ISTA_BATCHES_PER_S = 1.25

FLEET_RATE_HZ = 1.5
FLEET_LEAD_S = 0.05
"""Gap between the loop's start and the first possible due time."""
FLEET_PROBE_GAP_S = 0.03
"""The open loop stops sampling the box's speed this long before a due time."""
FLEET_CALIBRATION_SAMPLES = 40
"""Speed samples before the first fix, to set the schedule's first gaps."""
FLEET_RECENT_SAMPLES = 200
"""Speed samples (about 2 s of idle gaps) that set the schedule's pace."""

WARMUP_LINKS = 2
WARMUP_FIXES = 2

ROUND_LINKS = {"fig7_sweeps": FIG7_ROUND_LINKS, "ista_products": ISTA_BATCH_LINKS}
"""Links per round of each closed loop."""


@dataclass
class PassResult:
    """Outcomes of one timed pass over a workload's inputs."""

    tof_s: list[float] = field(default_factory=list)
    true_tof_s: list[float] = field(default_factory=list)
    position_error_m: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    n_links: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    links_per_flush: float = 0.0
    speed_factor: float = 1.0
    """:meth:`SpeedProbe.factor` over the pass (1.0 when not sampled)."""
    speed_probe_s: float = math.nan
    n_speed_probes: int = 0
    latency_factors: list[float] = field(default_factory=list)
    """The open loop's speed factor at each fix's due time."""

    def record_speed(self, probe: SpeedProbe) -> None:
        self.speed_factor = probe.factor()
        self.speed_probe_s = probe.median_s()
        self.n_speed_probes = len(probe.wall_s)


EXPECTED_LAYERS = {
    "fig7_sweeps": (
        "prep.band_products", "prep.coarse", "engine.sweeps", "sparse.invert",
        "deflation.extract", "deflation.prune", "deflation.first_path",
        "stream.submit",
    ),
    "fleet_open": (
        "engine.products", "sparse.invert", "deflation.extract", "deflation.prune",
        "deflation.refit", "deflation.first_path", "service.submit_grouped",
        "stream.submit", "loc.locate", "loc.solve", "loc.track",
    ),
    "ista_products": (
        "engine.products", "sparse.invert", "profile.refine", "service.submit",
    ),
}
"""Ledger keys that must see calls in a traced pass of each workload."""


def work_size(workload: str, seconds: float) -> int:
    """Links (ranging) or fixes (fleet) that one run processes."""
    if workload == "fig7_sweeps":
        return FIG7_ROUND_LINKS * max(1, round(seconds * FIG7_LINKS_PER_S / FIG7_ROUND_LINKS))
    if workload == "ista_products":
        return ISTA_BATCH_LINKS * max(1, round(seconds * ISTA_BATCHES_PER_S))
    return max(4, round(seconds * FLEET_RATE_HZ))


def make_inputs(workload: str, seed: int, size: int):
    """The measured inputs of one run: ``size`` links or fixes."""
    from perfbench import inputs  # generator modules stay out of set-up time

    if workload == "fig7_sweeps":
        return inputs.fig7_cases(seed, size)
    if workload == "ista_products":
        return inputs.ista_cases(seed, size)
    return inputs.fleet_inputs(seed, size, FLEET_RATE_HZ)


def make_warmup(workload: str, seed: int):
    """Warm-up inputs, from a random stream the measured set never uses."""
    from perfbench import inputs

    if workload == "fig7_sweeps":
        return inputs.fig7_cases(seed, WARMUP_LINKS, stream="fig7-warmup")
    if workload == "ista_products":
        return inputs.ista_cases(seed, ISTA_BATCH_LINKS, stream="ista-warmup")
    return inputs.fleet_inputs(seed, WARMUP_FIXES, FLEET_RATE_HZ, stream="fleet-warmup")


def make_service(workload: str, anchors=None):
    """The workload's service, built through the public constructors."""
    if workload == "fig7_sweeps":
        return StreamingRangingService(TofEstimatorConfig())
    if workload == "ista_products":
        return RangingService(TofEstimatorConfig(method="ista"))
    return LocalizationService(anchors, TofEstimatorConfig(), trackers=PositionTrackerBank())


def close_service(service) -> None:
    """Release the service's worker threads (``RangingService`` has none)."""
    if hasattr(service, "close"):
        service.close()


def _record_ranging(result: PassResult, cases, responses) -> None:
    for case, response in zip(cases, responses, strict=True):
        result.attempted += 1
        result.true_tof_s.append(case.true_tof_s)
        if response.ok:
            result.tof_s.append(response.estimate.tof_s)
        else:
            result.failed += 1
            result.tof_s.append(math.nan)


async def _stream_round(service: StreamingRangingService, cases) -> tuple[list, list[float]]:
    async def one(case):
        response = await service.submit(case.request)
        return response, time.perf_counter()

    start = time.perf_counter()
    done = await asyncio.gather(*(one(c) for c in cases))
    return [r for r, _ in done], [t - start for _, t in done]


async def _fig7(service: StreamingRangingService, cases, warmup, warmed) -> PassResult:
    await _stream_round(service, warmup)
    warmed()
    flushes0, requests0 = service.stats.n_flushes, service.stats.n_requests
    result = PassResult()
    probe = SpeedProbe()
    cpu0 = time.process_time()
    for i in range(0, len(cases), FIG7_ROUND_LINKS):
        chunk = cases[i:i + FIG7_ROUND_LINKS]
        start = time.perf_counter()
        responses, latencies = await _stream_round(service, chunk)
        result.wall_s += time.perf_counter() - start
        probe.sample()
        result.latencies_s.extend(latencies)
        _record_ranging(result, chunk, responses)
    result.cpu_s = time.process_time() - cpu0 - probe.cpu_s
    result.record_speed(probe)
    result.n_links = len(cases)
    stats = service.stats
    result.links_per_flush = (stats.n_requests - requests0) / max(stats.n_flushes - flushes0, 1)
    return result


async def _ista(service: RangingService, cases, warmup, warmed) -> PassResult:
    service.submit([c.request for c in warmup])
    warmed()
    result = PassResult()
    probe = SpeedProbe()
    cpu0 = time.process_time()
    for i in range(0, len(cases), ISTA_BATCH_LINKS):
        chunk = cases[i:i + ISTA_BATCH_LINKS]
        start = time.perf_counter()
        responses = service.submit([c.request for c in chunk])
        elapsed = time.perf_counter() - start
        probe.sample()
        result.wall_s += elapsed
        result.latencies_s.append(elapsed)
        _record_ranging(result, chunk, responses)
    result.cpu_s = time.process_time() - cpu0 - probe.cpu_s
    result.record_speed(probe)
    result.n_links = len(cases)
    return result


async def _fleet(service: LocalizationService, fleet, warmup, warmed) -> PassResult:
    for fix in warmup.fixes:
        await service.locate(fix.client_id, fix.requests, time_s=fix.due_s)
    warmed()
    ranging = service.ranging
    flushes0, requests0 = ranging.stats.n_flushes, ranging.stats.n_requests
    result = PassResult()

    async def one(fix, due):
        outcome = await service.locate(fix.client_id, fix.requests, time_s=fix.due_s)
        return outcome, time.perf_counter() - due

    probe = SpeedProbe()
    for _ in range(FLEET_CALIBRATION_SAMPLES):
        probe.sample()
    calibration_cpu_s = probe.cpu_s
    cpu0 = time.process_time()
    due = time.perf_counter() + FLEET_LEAD_S
    schedule_s = 0.0
    first_due = None
    tasks = []
    for fix in fleet.fixes:
        # The schedule runs in reference seconds: on a slow stretch of
        # the box the gaps stretch with the program's work, so the load
        # the program sees does not drift with the box.
        factor = probe.recent_factor(FLEET_RECENT_SAMPLES)
        due += (fix.due_s - schedule_s) / factor
        schedule_s = fix.due_s
        first_due = due if first_due is None else first_due
        result.latency_factors.append(factor)
        # Fill each gap with no fix in flight with speed samples: they
        # follow the box all through the run and keep the loop's core
        # from idling, whose wake-up would otherwise land in latency.
        while due - time.perf_counter() > FLEET_PROBE_GAP_S:
            pending = [t for t in tasks if not t.done()]
            if pending:
                await asyncio.wait(pending, timeout=due - time.perf_counter() - FLEET_PROBE_GAP_S)
            else:
                probe.sample()
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.late_s.append(max(0.0, time.perf_counter() - due))
        tasks.append(asyncio.create_task(one(fix, due)))
    outcomes = await asyncio.gather(*tasks)
    result.wall_s = time.perf_counter() - first_due
    result.cpu_s = time.process_time() - cpu0 - (probe.cpu_s - calibration_cpu_s)
    result.record_speed(probe)
    for fix, (outcome, latency) in zip(fleet.fixes, outcomes, strict=True):
        result.attempted += 1
        result.latencies_s.append(latency)
        result.true_tof_s.extend(fix.true_tof_s)
        result.tof_s.extend(d / SPEED_OF_LIGHT for d in outcome.distances_m)
        if outcome.ok and outcome.n_anchors_ok == len(fix.requests):
            result.position_error_m.append(outcome.position.distance_to(fix.true_position))
        else:
            result.failed += 1
            result.position_error_m.append(math.nan)
    result.n_links = sum(len(f.requests) for f in fleet.fixes)
    stats = ranging.stats
    result.links_per_flush = (stats.n_requests - requests0) / max(stats.n_flushes - flushes0, 1)
    return result


DRIVERS = {"fig7_sweeps": _fig7, "fleet_open": _fleet, "ista_products": _ista}


def run_pass(workload: str, measured, warmup, warmed=lambda: None) -> PassResult:
    """Build a fresh service, warm it up, time the fixed work, close it.

    ``warmed`` is called between the warm-up and the timed work.
    """
    anchors = measured.anchors if workload == "fleet_open" else None
    service = make_service(workload, anchors)
    try:
        return asyncio.run(DRIVERS[workload](service, measured, warmup, warmed))
    finally:
        close_service(service)


def warmup_response(workload: str, warmup) -> None:
    """Build the service and answer one warm-up request (the set-up probe)."""
    anchors = warmup.anchors if workload == "fleet_open" else None
    service = make_service(workload, anchors)

    async def first():
        if workload == "fig7_sweeps":
            await service.submit(warmup[0].request)
        elif workload == "ista_products":
            service.submit([warmup[0].request])
        else:
            fix = warmup.fixes[0]
            await service.locate(fix.client_id, fix.requests, time_s=fix.due_s)

    try:
        asyncio.run(first())
    finally:
        close_service(service)
