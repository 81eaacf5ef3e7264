"""``train_cq``: closed-loop CQ-C SimCLR pre-training through ``fit``.

GroupNorm ResNet-18 (width 1/16) with a LayerNorm head, precision set
``2-8``, Adam, batch 32 of two 12x12 SimCLR views from an inline seeded
``DataLoader``, on the default ``engine="trace"``.  This is the
plan-replay path; ``data``, ``engine``, the fake-quant weight cache and
the optimizer do the work here, serving and retrieval none.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.contrastive import ContrastiveQuantTrainer, SimCLRModel
from repro.data import (
    DataLoader,
    SyntheticConfig,
    SyntheticImages,
    TwoViewTransform,
    simclr_augmentations,
)
from repro.models import resnet18
from repro.nn.optim import Adam
from repro.telemetry import Callback

from .. import measure
from .base import Window, Workload

BATCH = 32
IMAGE_SIZE = 12
PRECISION_SET = "2-8"
#: Fixed precision-sampling stream.  Its second draw is a same-precision
#: pair, so both plan signatures (q1 == q2 and q1 != q2) compile within
#: the first two steps and warm-up has the same length for every seed.
PRECISION_SEED = 3
#: Plan signatures per batch shape: same-precision and mixed pairs.
SIGNATURES = 2
#: Replayed steps after the last compile, still part of warm-up.
SETTLE_STEPS = 2
#: Replayed steps the eager twin re-runs beyond warm-up in the check.
CHECK_REPLAYED = 6
MAX_WARMUP_STEPS = 40


def make_trainer(engine: str) -> ContrastiveQuantTrainer:
    """Fresh CQ-C trainer; identical weights and precision stream."""
    encoder = resnet18(stem="cifar", width_multiplier=0.0625,
                       rng=np.random.default_rng(0), norm="group")
    model = SimCLRModel(encoder, projection_dim=16,
                        rng=np.random.default_rng(1), head_norm="layer")
    return ContrastiveQuantTrainer(
        model, "cq-c", PRECISION_SET, Adam(model.parameters(), lr=1e-3),
        rng=np.random.default_rng(PRECISION_SEED), engine=engine,
    )


def make_loader(seed: int) -> DataLoader:
    data = SyntheticImages(SyntheticConfig(
        num_classes=10, image_size=IMAGE_SIZE, train_per_class=32,
        test_per_class=1, seed=seed,
    ))
    return DataLoader(data.train, batch_size=BATCH, shuffle=True,
                      drop_last=True,
                      transform=TwoViewTransform(simclr_augmentations(1.0)),
                      seed=seed)


class Feed:
    """The batch source handed to ``fit``: loader epochs until ``stop``.

    Records when ``fit`` asked for each batch and how long it waited,
    so a step is the interval between two consecutive requests (data
    wait included).
    """

    def __init__(self, loader: DataLoader) -> None:
        self._batches = self._forever(loader)
        self.spans = None
        #: Host-speed clock of a timed window (probes excluded from steps).
        self.clock: Optional[measure.HostSpeed] = None
        self.stop: Callable[[int], bool] = lambda steps: True
        self.requests: List[float] = []
        self.waits: List[float] = []

    @staticmethod
    def _forever(loader):
        while True:
            yield from loader

    def _now(self) -> float:
        return self.clock.now() if self.clock else time.perf_counter()

    def __iter__(self) -> "Feed":
        return self

    def __next__(self):
        if self.clock is not None:
            self.clock.tick()
        asked = self._now()
        self.requests.append(asked)
        if self.stop(len(self.waits)):
            raise StopIteration
        span = self.spans.begin("data.wait") if self.spans else None
        batch = next(self._batches)
        if span is not None:
            self.spans.end(span)
        self.waits.append(self._now() - asked)
        return batch

    def run(self, trainer, stop: Callable[[int], bool], callback) -> None:
        """One ``fit`` epoch over this feed, ending when ``stop(steps)``."""
        self.requests.clear()
        self.waits.clear()
        self.stop = stop
        trainer.fit(self, 1, callbacks=(callback,))


class StepLog(Callback):
    """Per-step payloads from ``fit``'s ``on_step`` events."""

    def __init__(self) -> None:
        self.steps: List[Dict[str, object]] = []

    def on_step(self, trainer, payload: Dict) -> None:
        self.steps.append(dict(payload))


class TrainCQ(Workload):
    name = "train_cq"

    def setup(self) -> None:
        self.trainer = make_trainer("trace")
        self.feed = Feed(make_loader(self.seed))
        self.log = StepLog()
        engine = self.trainer.engine
        compiled_at: List[int] = []

        def warm(steps: int) -> bool:
            if not compiled_at and len(engine.plans()) >= SIGNATURES:
                compiled_at.append(steps)
            if steps >= MAX_WARMUP_STEPS:
                raise RuntimeError(
                    f"plan signatures not compiled after {steps} steps")
            return bool(compiled_at) and steps >= compiled_at[0] + SETTLE_STEPS

        self.feed.run(self.trainer, warm, self.log)
        self.warmup_steps = len(self.log.steps)

    def instrument(self, spans) -> None:
        super().instrument(spans)
        self.feed.spans = spans
        spans.wrap(self.trainer, "train_step", "contrastive.step")
        spans.wrap(self.trainer.engine, "execute", "engine.execute")
        spans.wrap(self.trainer.optimizer, "step", "optim.step")

    def measure(self, seconds: float) -> Window:
        first = len(self.log.steps)
        engine_before = dict(self.trainer.engine.stats())
        clock = self.feed.clock = measure.HostSpeed()
        clock.start()
        start = time.perf_counter()
        deadline = start + seconds
        try:
            self.feed.run(self.trainer,
                          lambda steps: time.perf_counter() >= deadline,
                          self.log)
        finally:
            clock.stop()
            self.feed.clock = None
        steps = self.log.steps[first:]
        self.attempted += len(steps)
        starts = np.array(self.feed.requests[:-1])
        raw_ms = np.diff(self.feed.requests) * 1e3
        scale = clock.factors(starts)
        step_ms = raw_ms * scale
        wait_ms = np.array(self.feed.waits) * 1e3 * scale
        tail, pct, beyond = measure.tail(step_ms)
        self.engine_delta = {
            key: value - engine_before[key]
            for key, value in self.trainer.engine.stats().items()
        }
        self.window_steps = steps
        images = BATCH * len(steps)
        return Window(
            e2e={
                "images_per_s": images / (step_ms.sum() / 1e3),
                "p50_ms": measure.p50(step_ms),
                "tail_ms": tail,
                "aux_p50_ms": measure.p50(wait_ms),
            },
            notes={
                "steps": len(steps),
                "tail": f"p{pct:g} of {len(step_ms)} steps, {beyond} beyond",
                "aux": "data wait per step",
                "host_speed": f"{clock.speed():.3f} of reference over "
                              f"{len(clock.probes)} probes",
                "raw": {"images_per_s": images / (raw_ms.sum() / 1e3),
                        "p50_ms": measure.p50(raw_ms)},
                "engine": self.engine_delta,
            },
        )

    def layers(self, window: Window) -> Dict[str, float]:
        spans = self.spans
        steps = max(len(self.window_steps), 1)

        def per_step(key: str) -> float:
            return sum(int(s[key]) for s in self.window_steps) / steps

        return {
            "data.wait_ms": spans.mean_ms("data.wait"),
            "engine.execute_ms": spans.mean_ms("engine.execute"),
            "optim.step_ms": spans.mean_ms("optim.step"),
            "contrastive.other_ms":
                1e3 * spans.self_times().get("contrastive.step", 0.0) / steps,
            "quant.cache_hits": per_step("quant_cache_hits"),
            "quant.cache_misses": per_step("quant_cache_misses"),
            **{f"engine.{k}": float(v) for k, v in self.engine_delta.items()},
        }

    def check(self) -> List[str]:
        problems: List[str] = []
        losses = [float(s["loss"]) for s in self.log.steps]
        bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
        if bad:
            self.failed += len(bad)
            problems.append(f"{len(bad)} non-finite losses, first at step "
                            f"{bad[0]}")
        # The eager twin re-runs warm-up plus replayed steps on the same
        # batches; traced losses must match it byte for byte.
        count = min(len(losses), self.warmup_steps + CHECK_REPLAYED)
        twin = make_trainer("eager")
        twin_log = StepLog()
        Feed(make_loader(self.seed)).run(
            twin, lambda steps: steps >= count, twin_log)
        eager = [float(s["loss"]) for s in twin_log.steps]
        replayed = sum(1 for s in self.log.steps[:count]
                       if int(s.get("engine_plan_hits", 0)) > 0)
        mismatched = [i for i, (a, b) in enumerate(zip(losses, eager))
                      if np.float64(a).tobytes() != np.float64(b).tobytes()]
        if mismatched or len(eager) != count:
            self.failed += len(mismatched)
            problems.append(
                f"traced losses differ from eager at steps {mismatched[:5]}")
        if replayed == 0:
            problems.append("the eager check covered no replayed step")
        self.check_note = f"{count} steps vs eager, {replayed} replayed"
        return problems
