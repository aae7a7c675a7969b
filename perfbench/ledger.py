"""Per-layer ledger of the traced run: wrappers around each layer's calls.

The wrappers live here, not in the program: :meth:`Ledger.installed`
patches each public function under the name its caller looks it up by
(``repro.core.tof.band_products``, not ``repro.core.cfo.band_products``,
because ``tof`` imported the name), records count, busy time and work
units, and restores the originals on exit.  A refactor that moves a
call site therefore shows up as a zero call count, which the run
reports as a failed check instead of a silently empty layer.

Self time follows the usual rule: a span's duration minus the part of
it covered by child spans.  ``service`` subtracts the engine calls it
made on its own thread; ``loc`` subtracts its clients' stream submits
and the position solves that ran after them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# (ledger key, module the caller resolves the name in, attribute path)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("prep.band_products", "repro.core.tof", "band_products"),
    ("prep.coarse", "repro.core.interpolation", "round_trip_slope_delay_s"),
    ("engine.sweeps", "repro.core.batch", "BatchTofEngine.estimate_sweeps_batch"),
    ("engine.products", "repro.core.batch", "BatchTofEngine.estimate_products_batch"),
    ("sparse.invert", "repro.core.batch", "invert_ndft_batch"),
    ("profile.refine", "repro.core.tof", "refine_first_peak"),
    ("deflation.extract", "repro.core.batch", "extract_paths_batch"),
    ("deflation.prune", "repro.core.batch", "prune_ghost_atoms_batch"),
    ("deflation.refit", "repro.core.batch", "full_aperture_refit_batch"),
    ("deflation.first_path", "repro.core.batch", "first_path_delays_batch"),
    ("service.submit", "repro.net.service", "RangingService.submit"),
    ("service.submit_grouped", "repro.net.service", "RangingService.submit_grouped"),
    ("stream.submit", "repro.stream.service", "StreamingRangingService.submit"),
    ("loc.locate", "repro.loc.service", "LocalizationService.locate"),
    ("loc.solve", "repro.loc.service", "locate_transmitter_batch"),
    ("loc.track", "repro.loc.tracker", "PositionTrackerBank.update"),
)

DEFLATION_KEYS = (
    "deflation.extract",
    "deflation.prune",
    "deflation.refit",
    "deflation.first_path",
)


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _merge_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Ledger:
    """Counts, busy time and work units per wrapped function."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. the warm-up)."""
        with self._lock:
            self._clear()

    def _clear(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.units: dict[str, int] = defaultdict(int)
        self.fista_iterations: list[int] = []
        self.service_self_s: list[float] = []
        self.queue_waits_s: list[float] = []
        self.engine_inflight = 0
        self.engine_inflight_max = 0
        # Stream submit start per request key (link id or sweeps object).
        self._submitted_at: dict[object, float] = {}
        self._submit_spans: dict[str, tuple[float, float]] = {}
        self._locate_spans: list[tuple[float, float, tuple[str, ...]]] = []
        self._solve_spans: list[tuple[float, float]] = []

    # ------------------------------------------------------------------
    def _add(self, key: str, seconds: float, units: int = 1) -> None:
        with self._lock:
            self.calls[key] += 1
            self.seconds[key] += seconds
            self.units[key] += units

    def _child_time(self) -> list[float] | None:
        return getattr(self._tls, "child", None)

    def _timed(self, key: str, fn: Callable, units: Callable[..., int] | None = None,
               after: Callable[..., None] | None = None) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                ledger._add(key, elapsed, units(*args, **kwargs) if units else 1)
                if after is not None:
                    after(elapsed, *args, **kwargs)

        return wrapper

    # --- per-layer hooks ------------------------------------------------
    def _engine(self, key: str, fn: Callable) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def wrapper(engine, first, *args, **kwargs):
            # Sweeps: the first argument holds one entry per link;
            # products: the channel stack (second argument) does.
            stack = first if key == "engine.sweeps" else (
                args[0] if args else kwargs["channels"]
            )
            with ledger._lock:
                ledger.engine_inflight += 1
                ledger.engine_inflight_max = max(
                    ledger.engine_inflight_max, ledger.engine_inflight
                )
            if key == "engine.sweeps":
                ledger._record_queue_wait([id(s) for s in first])
            start = time.perf_counter()
            try:
                return fn(engine, first, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with ledger._lock:
                    ledger.engine_inflight -= 1
                ledger._add(key, elapsed, len(stack))
                child = ledger._child_time()
                if child is not None:
                    child[0] += elapsed

        return wrapper

    def _service(self, key: str, fn: Callable) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def wrapper(service, requests, *args, **kwargs):
            requests = list(requests)
            if key == "service.submit_grouped":
                ledger._record_queue_wait([r.link_id for r in requests])
            outer = ledger._child_time()
            ledger._tls.child = [0.0]
            start = time.perf_counter()
            try:
                return fn(service, requests, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                engine_s = ledger._tls.child[0]
                ledger._tls.child = outer
                ledger._add(key, elapsed, len(requests))
                with ledger._lock:
                    ledger.service_self_s.append(elapsed - engine_s)

        return wrapper

    def _record_queue_wait(self, keys: list[object]) -> None:
        now = time.perf_counter()
        with self._lock:
            for k in keys:
                t0 = self._submitted_at.pop(k, None)
                if t0 is not None:
                    self.queue_waits_s.append(now - t0)

    def _stream_submit(self, fn: Callable) -> Callable:
        ledger = self

        @functools.wraps(fn)
        async def wrapper(service, request, *args, **kwargs):
            start = time.perf_counter()
            key = id(request.sweeps) if hasattr(request, "sweeps") else request.link_id
            with ledger._lock:
                ledger._submitted_at[key] = start
            try:
                return await fn(service, request, *args, **kwargs)
            finally:
                end = time.perf_counter()
                ledger._add("stream.submit", end - start)
                with ledger._lock:
                    ledger._submit_spans[request.link_id] = (start, end)

        return wrapper

    def _locate(self, fn: Callable) -> Callable:
        ledger = self

        @functools.wraps(fn)
        async def wrapper(service, client_id, requests, *args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(service, client_id, requests, *args, **kwargs)
            finally:
                end = time.perf_counter()
                ledger._add("loc.locate", end - start)
                with ledger._lock:
                    ledger._locate_spans.append(
                        (start, end, tuple(r.link_id for r in requests))
                    )

        return wrapper

    # ------------------------------------------------------------------
    def _wrap(self, key: str, fn: Callable) -> Callable:
        if key in ("engine.sweeps", "engine.products"):
            return self._engine(key, fn)
        if key.startswith("service."):
            return self._service(key, fn)
        if key == "stream.submit":
            return self._stream_submit(fn)
        if key == "loc.locate":
            return self._locate(fn)
        if key == "sparse.invert":
            def after(_elapsed, *args, **kwargs):
                iterations = kwargs.get("iterations_out")
                if iterations is not None:
                    with self._lock:
                        self.fista_iterations.extend(int(v) for v in iterations)
            return self._timed(key, fn, units=lambda stack, *a, **k: len(stack), after=after)
        if key == "loc.solve":
            def after(elapsed, *args, **kwargs):
                end = time.perf_counter()
                with self._lock:
                    self._solve_spans.append((end - elapsed, end))
            return self._timed(key, fn, units=lambda anchors, distances, *a, **k: len(distances),
                               after=after)
        return self._timed(key, fn)

    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Patch every target for the duration of the block."""
        originals = []
        try:
            for key, module, path in TARGETS:
                owner, attr = _resolve(module, path)
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(key, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    # ------------------------------------------------------------------
    def loc_self_s(self) -> list[float]:
        """Per fix: locate span minus its submits and the solves after them."""
        out = []
        for start, end, link_ids in self._locate_spans:
            children = [self._submit_spans[i] for i in link_ids if i in self._submit_spans]
            ranged_at = max((b for _, b in children), default=start)
            solves = [(a, b) for a, b in self._solve_spans if b > ranged_at and a < end]
            covered = _merge_length(children + solves, start, end)
            out.append(end - start - covered)
        return out

    def metrics(self, n_links: int) -> dict[str, float]:
        """Per-layer figures, per link of the pass where they are totals."""
        per_link = 1.0 / max(n_links, 1)
        engine_calls = self.calls["engine.sweeps"] + self.calls["engine.products"]
        engine_links = self.units["engine.sweeps"] + self.units["engine.products"]

        def median(values: list[float]) -> float:
            return statistics.median(values) if values else 0.0

        loc_self = self.loc_self_s()
        return {
            "prep.band_products_s_per_link": self.seconds["prep.band_products"] * per_link,
            "prep.coarse_s_per_link": self.seconds["prep.coarse"] * per_link,
            "engine.sweeps_s_per_link": self.seconds["engine.sweeps"] * per_link,
            "engine.products_s_per_link": self.seconds["engine.products"] * per_link,
            "engine.links_per_call": engine_links / engine_calls if engine_calls else 0.0,
            "sparse.invert_s_per_link": self.seconds["sparse.invert"] * per_link,
            "sparse.fista_iterations_mean": (
                statistics.fmean(self.fista_iterations) if self.fista_iterations else 0.0
            ),
            "profile.refine_s_per_link": self.seconds["profile.refine"] * per_link,
            "deflation.s_per_link": sum(self.seconds[k] for k in DEFLATION_KEYS) * per_link,
            "service.self_s_per_call": (
                statistics.fmean(self.service_self_s) if self.service_self_s else 0.0
            ),
            "stream.queue_wait_p50_s": median(self.queue_waits_s),
            "stream.concurrent_groups_max": float(self.engine_inflight_max),
            "loc.self_s_per_fix": statistics.fmean(loc_self) if loc_self else 0.0,
            "loc.solve_s_per_call": (
                self.seconds["loc.solve"] / self.calls["loc.solve"]
                if self.calls["loc.solve"] else 0.0
            ),
            "loc.clients_per_solve": (
                self.units["loc.solve"] / self.calls["loc.solve"]
                if self.calls["loc.solve"] else 0.0
            ),
        }

    def call_counts(self) -> dict[str, int]:
        return {key: self.calls[key] for key, _, _ in TARGETS}
