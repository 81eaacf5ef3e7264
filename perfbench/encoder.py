"""The served int8 encoder, its eager references, and the trace probe.

Every serving workload deploys the same model: a BatchNorm ResNet-18 at
width 1/16 (32-d embeddings) taken through the staged
``prepare`` → ``calibrate`` → ``convert`` pipeline.  Its weights and
calibration batches are fixed, so only the generated inputs change with
the benchmark seed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro.models import resnet18
from repro.nn.autograd import no_grad
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.quant import calibrate, convert, prepare
from repro.serving import EmbeddingService, ModelRegistry

IMAGE_SHAPE = (3, 12, 12)
WIDTH = 0.0625
BITS = 8
REFERENCE_BATCH = 32
#: Rows served through the default ``engine="trace"`` by the probe, in
#: two full batches of 32.
PROBE_ROWS = 64


def random_images(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` unique raw images, float32 in [0, 1)."""
    return rng.random((count,) + IMAGE_SHAPE, dtype=np.float32)


def build_int8_encoder() -> Module:
    """Calibrated, converted int8 ResNet-18 (same weights every call)."""
    model = resnet18(stem="cifar", width_multiplier=WIDTH,
                     rng=np.random.default_rng(0), norm="batch")
    prepare(model)
    calib_rng = np.random.default_rng(1)
    calibrate(model, [random_images(calib_rng, 32) for _ in range(4)],
              bits=BITS)
    convert(model, input_shape=(2,) + IMAGE_SHAPE)
    return model


def reference_embeddings(model: Module, images: np.ndarray) -> np.ndarray:
    """Eager ``model(x)`` of every image, in batches.

    For this model eager batched output equals eager single-input
    output, so these are the exact expected serving results.
    """
    out = []
    with no_grad():
        for start in range(0, images.shape[0], REFERENCE_BATCH):
            x = Tensor(images[start:start + REFERENCE_BATCH],
                       dtype=np.float64)
            out.append(np.asarray(model(x).data))
    return np.concatenate(out)


def stale_replay_probe(model: Module) -> Tuple[int, int]:
    """Rows served through the default trace engine that differ from eager.

    Serves ``PROBE_ROWS`` fixed inputs in full batches of 32 through an
    ``EmbeddingService`` on its default engine and compares each row with
    eager ``model(x)``.  Returns ``(stale rows, rows)``; reported, never
    gated, so the trace-engine defect stays visible in every record.
    """
    images = random_images(np.random.default_rng(2), PROBE_ROWS)
    expected = reference_embeddings(model, images)
    registry = ModelRegistry()
    registry.publish("probe", model)
    # A long batching wait makes both batches exactly 32 rows.
    with EmbeddingService(registry, "probe", max_batch_size=32,
                          max_wait_ms=1000.0) as service:
        served = np.stack(service.embed_many(list(images), timeout=60.0))
    stale = int(np.count_nonzero(np.any(served != expected, axis=1)))
    return stale, PROBE_ROWS


class TimedForward(Module):
    """Publishes ``inner`` with every forward timed (traced run only)."""

    def __init__(self, inner: Module, spans) -> None:
        super().__init__()
        self.inner = inner
        self._spans = spans
        #: (start, end, rows) of every forward, in call order.
        self.calls: List[Tuple[float, float, int]] = []

    def metrics(self, wall: float) -> Dict[str, float]:
        """Per-layer metrics of the forwards over a ``wall``-second
        window: rows per forward and time in the model."""
        rows = np.array([c[2] for c in self.calls], dtype=np.float64)
        busy = np.array([c[1] - c[0] for c in self.calls])
        return {
            "serving.batches": float(len(self.calls)),
            "serving.batch_size_mean": float(rows.mean()),
            "serving.batch_size_p50": float(np.median(rows)),
            "lowered.forward_ms": float(busy.mean() * 1e3),
            "lowered.forward_ms_per_row": float(busy.sum() * 1e3 / rows.sum()),
            "lowered.busy_frac": float(busy.sum() / wall),
        }

    def forward(self, x):
        index = self._spans.begin("lowered.forward")
        start = time.perf_counter()
        try:
            return self.inner(x)
        finally:
            end = self._spans.end(index)
            self.calls.append((start, end, int(x.shape[0])))
