"""``embed_open``: open-loop Poisson arrivals of unique raw images.

An ``EmbeddingService(max_batch_size=32, max_wait_ms=2)`` without a
cache serves the int8 encoder on ``engine="eager"``, the only int8
serving setup that returns correct embeddings today (the stale-replay
probe keeps the trace-engine defect visible).  Two phases:

- ``low`` at 200/s: batches hold one or two requests, so the 2 ms
  batching wait dominates;
- ``high`` at 1200/s, about half the service's capacity on a 2-vCPU
  host, so queueing shows without a growing backlog.

A request's latency runs from its due time to its result, so a stall of
the sender is charged to the requests it delays.  Latencies are scaled
to reference host speed slice by slice (see ``Phase``).  This loads the
serving queue and batcher and the lowered int8 GEMMs, and no training
code; the cache is off, so a cache change should not move it.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.serving import EmbeddingService, ModelRegistry, ServingFuture

from .. import measure
from ..encoder import (
    TimedForward,
    build_int8_encoder,
    random_images,
    reference_embeddings,
)
from .base import Window, Workload

LOW_RATE = 200.0
HIGH_RATE = 1200.0
#: Share of a window spent in the low phase; the rest is the high phase.
LOW_SHARE = 0.3
RESULT_TIMEOUT_S = 30.0
MODEL = "encoder-int8"


class Phase:
    """One open-loop phase: schedule, inputs, and what came back.

    The phase runs as back-to-back slices of ``measure.SLICE_S``
    seconds of schedule.  Between slices the sender lets every
    outstanding request finish and then probes the host's speed, so the
    probe never delays a request and each slice's latencies can be
    scaled by the probes on either side of it.
    """

    def __init__(self, rng: np.random.Generator, rate: float,
                 seconds: float) -> None:
        count = max(1, int(round(rate * seconds)))
        self.offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
        self.images = random_images(rng, count)
        self.results: List[Optional[np.ndarray]] = [None] * count
        self.sent = np.zeros(count)
        self.done = np.zeros(count)
        self.due = np.zeros(count)
        self.slices = (self.offsets // measure.SLICE_S).astype(np.int64)
        #: Host-speed probe before the first slice and after every slice.
        self.probes: List[float] = []

    def __len__(self) -> int:
        return len(self.results)

    def latency(self) -> Tuple[float, float, str]:
        """Per-slice medians of due-to-result latency (ms) at reference
        host speed, over the completed requests: ``(p50, tail,
        description)``."""
        ok = np.array([r is not None for r in self.results])
        probes = np.asarray(self.probes)
        speed = measure.PROBE_REFERENCE_S / ((probes[:-1] + probes[1:]) / 2)
        latency_ms = ((self.done - self.due) * 1e3 * speed[self.slices])[ok]
        return measure.per_slice(self.slices[ok], latency_ms)


class EmbedOpen(Workload):
    name = "embed_open"

    def setup(self) -> None:
        self.model = build_int8_encoder()
        self.registry = ModelRegistry()
        self.registry.publish(MODEL, self.model)
        self.service = EmbeddingService(self.registry, MODEL,
                                        max_batch_size=32, max_wait_ms=2.0,
                                        engine="eager").start()
        self.rng = np.random.default_rng(self.seed)
        self.phases: List[Phase] = []
        self.timed: Optional[TimedForward] = None
        # Warm-up: every batch size from 1 to 32 once, which also builds
        # the lowered GEMM operand caches.
        warm = random_images(np.random.default_rng([self.seed, 1]), 32)
        for size in range(1, 33):
            self.service.embed_many(list(warm[:size]),
                                    timeout=RESULT_TIMEOUT_S)

    def instrument(self, spans) -> None:
        super().instrument(spans)
        self.timed = TimedForward(self.model, spans)
        # Same weights under a new version: the service picks it up on
        # its next batch.
        self.registry.publish(MODEL, self.timed)
        spans.wrap(self.service.engine, "execute", "engine.execute")

    def _run_phase(self, phase: Phase) -> None:
        phase.probes.append(measure.probe_s())
        for k in range(int(phase.slices[-1]) + 1):
            members = np.flatnonzero(phase.slices == k)
            origin = time.perf_counter() + 0.002 - k * measure.SLICE_S
            phase.due[members] = origin + phase.offsets[members]
            self._send(phase, members)
            phase.probes.append(measure.probe_s())
        self.attempted += len(phase)

    def _send(self, phase: Phase, members: np.ndarray) -> None:
        """Send ``members`` on schedule, then wait for all of them.

        One thread sends and collects: between due times it waits on
        the oldest outstanding result, so it wakes for whichever comes
        first; requests resolve in submit order (one batcher, no cache).
        """
        pending: Deque[Tuple[int, ServingFuture]] = deque()
        sent = 0
        while sent < len(members) or pending:
            now = time.perf_counter()
            due = phase.due[members[sent]] if sent < len(members) else None
            if due is not None and now >= due:
                index = members[sent]
                phase.sent[index] = now
                pending.append((index,
                                self.service.submit(phase.images[index])))
                sent += 1
                continue
            if not pending:
                time.sleep(due - now)
                continue
            index, future = pending[0]
            try:
                phase.results[index] = future.result(
                    due - now if due is not None else RESULT_TIMEOUT_S)
            except TimeoutError as exc:
                if due is not None:
                    continue  # the next request is due first
                self.failed += 1
                self.errors.append(repr(exc))
            except Exception as exc:  # a failed request is counted
                self.failed += 1
                self.errors.append(repr(exc))
            phase.done[index] = time.perf_counter()
            pending.popleft()

    def measure(self, seconds: float) -> Window:
        low = Phase(self.rng, LOW_RATE, seconds * LOW_SHARE)
        high = Phase(self.rng, HIGH_RATE, seconds * (1.0 - LOW_SHARE))
        if self.timed is not None:
            self.timed.calls.clear()
        start = time.perf_counter()
        for phase in (low, high):
            first = self.attempted
            self._run_phase(phase)
            self.phases.append(phase)
            if self.spans is not None:
                for i, (due, done) in enumerate(zip(phase.due, phase.done)):
                    self.spans.record("loadgen.request", due, done,
                                      request=first + i)
        wall = time.perf_counter() - start
        self.window = (low, high, wall)
        high_p50, high_tail, high_how = high.latency()
        low_p50, low_tail, low_how = low.latency()
        late_ms = np.concatenate([p.sent - p.due for p in (low, high)]) * 1e3
        completed = sum(r is not None for p in (low, high) for r in p.results)
        return Window(
            e2e={
                "images_per_s": completed / wall,
                "p50_ms": high_p50,
                "tail_ms": high_tail,
                "aux_p50_ms": low_p50,
            },
            notes={
                "requests": {"low": len(low), "high": len(high)},
                "host_speed": "{:.3f} of reference over {} probes".format(
                    measure.PROBE_REFERENCE_S
                    / float(np.median(low.probes + high.probes)),
                    len(low.probes) + len(high.probes)),
                "high": high_how,
                "aux": "low-phase p50 latency",
                "low_tail_ms": round(low_tail, 3),
                "low": low_how,
                "loadgen_late_ms": {
                    "p50": round(float(np.median(late_ms)), 4),
                    "max": round(float(late_ms.max()), 3)},
            },
        )

    def layers(self, window: Window) -> Dict[str, float]:
        low, high, wall = self.window
        calls = self.timed.calls
        # No cache and one batcher: requests reach forwards in submit
        # order, so cumulative row counts map each request to the
        # forward that served it.
        sent = np.concatenate([low.sent, high.sent])
        starts = np.repeat([c[0] for c in calls], [c[2] for c in calls])
        if starts.shape[0] != sent.shape[0]:
            raise RuntimeError(
                f"{starts.shape[0]} rows forwarded for {sent.shape[0]} "
                f"requests; cannot attribute queueing time")
        late_ms = np.concatenate([p.sent - p.due for p in (low, high)]) * 1e3
        return {
            "serving.queue_ms": measure.p50((starts - sent) * 1e3),
            "engine.execute_ms": self.spans.mean_ms("engine.execute"),
            "loadgen.late_p50_ms": float(np.median(late_ms)),
            "loadgen.late_max_ms": float(late_ms.max()),
            **self.timed.metrics(wall),
        }

    def check(self) -> List[str]:
        wrong = 0
        missing = 0
        for phase in self.phases:
            expected = reference_embeddings(self.model, phase.images)
            for i, got in enumerate(phase.results):
                if got is None:
                    missing += 1
                elif got.tobytes() != expected[i].tobytes():
                    wrong += 1
        self.failed += wrong
        self.check_note = (f"{sum(len(p) for p in self.phases)} embeddings "
                           f"vs eager, {wrong} differ, {missing} missing")
        return [f"{wrong} embeddings differ from eager model(x)"] if wrong \
            else []

    def close(self) -> None:
        # Also called after a set-up that failed part way.
        service = getattr(self, "service", None)
        if service is not None:
            service.stop()
