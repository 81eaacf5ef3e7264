"""Summary statistics, process memory and host description."""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Candidate tail percentiles, highest first.  The reported tail is the
#: highest one with at least ``TAIL_MIN_BEYOND`` samples above it, so it
#: is never read off the last one or two samples.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

#: Windows are cut into slices of ``SLICE_S`` seconds by sample start
#: time.  Slices with fewer than ``MIN_SLICE_SAMPLES`` samples (a
#: window's ragged end) are left out of per-slice statistics.
SLICE_S = 2.0
MIN_SLICE_SAMPLES = 5

#: Host-speed reference.  On a shared host the CPU's speed drifts by up
#: to ~2x over seconds to minutes as neighbours load the same cores,
#: which moves timings by as much between runs of identical code.  A
#: fixed reference task (``probe_s``) is run between operations, and
#: each sample is scaled to the speed where that task takes
#: ``PROBE_REFERENCE_S`` (its undisturbed time on the 2-vCPU 2.1 GHz
#: Xeon host the benchmark was sized on): multiplied by
#: ``PROBE_REFERENCE_S`` over the mean of the probes just before and
#: just after it.
PROBE_REFERENCE_S = 0.9e-3
PROBE_EVERY_S = 0.25
_PROBE_RNG = np.random.default_rng(0)
_PROBE_MATRIX = _PROBE_RNG.random((64, 64))
#: 4 MiB table and random rows into it: a memory-bound gather like the
#: retrieval scan's table lookups.
_PROBE_TABLE = _PROBE_RNG.random(1 << 20).astype(np.float32)
_PROBE_ROWS = _PROBE_RNG.integers(0, 1 << 20, size=1 << 15)


def p50(values: Sequence[float]) -> float:
    if len(values) == 0:
        raise ValueError("p50 of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), 50.0))


def tail_percentile(n: int) -> Tuple[float, int]:
    """``(percentile, samples beyond it)`` the tail of ``n`` samples is
    read at: the highest candidate with ``TAIL_MIN_BEYOND`` beyond it,
    else the lowest candidate."""
    for pct in TAIL_PERCENTILES:
        beyond = int(np.floor(n * (100.0 - pct) / 100.0))
        if beyond >= TAIL_MIN_BEYOND:
            return pct, beyond
    pct = TAIL_PERCENTILES[-1]
    return pct, int(np.floor(n * (100.0 - pct) / 100.0))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples beyond it)`` of the reported tail."""
    if len(values) == 0:
        raise ValueError("tail of no samples")
    pct, beyond = tail_percentile(len(values))
    value = np.percentile(np.asarray(values, dtype=np.float64), pct)
    return float(value), pct, beyond


def probe_once() -> float:
    """Seconds for one run of the reference task: the program's mix of
    interpreted Python, small matrix products and memory-bound
    gathers."""
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    for _ in range(60):
        _PROBE_MATRIX @ _PROBE_MATRIX
    for _ in range(2):
        _PROBE_TABLE[_PROBE_ROWS].sum()
    return time.perf_counter() - start


def probe_s() -> float:
    """Fastest of three back-to-back reference-task runs, in seconds.

    The first run can be slowed by caches the workload just evicted;
    the fastest of three measures the host, not the workload's
    footprint.
    """
    return min(probe_once() for _ in range(3))


class HostSpeed:
    """A clock for closed loops that probes host speed as it goes.

    ``now()`` excludes the time spent probing, so samples timed with it
    never contain a probe.  Call ``start()`` before the window,
    ``tick()`` before each operation and ``stop()`` after the window;
    then ``factors(starts)`` gives each sample's scale to reference
    speed.
    """

    def __init__(self) -> None:
        self.paused = 0.0
        self.times: List[float] = []
        self.probes: List[float] = []

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def start(self) -> None:
        self.times.clear()
        self.probes.clear()
        self._probe()

    def tick(self) -> None:
        if self.now() - self.times[-1] >= PROBE_EVERY_S:
            self._probe()

    def stop(self) -> None:
        self._probe()

    def _probe(self) -> None:
        self.times.append(self.now())
        began = time.perf_counter()
        self.probes.append(probe_s())
        self.paused += time.perf_counter() - began

    def factors(self, starts: Sequence[float]) -> np.ndarray:
        """Per-sample ``PROBE_REFERENCE_S`` over the mean of the probes
        that bracket the sample's start."""
        probes = np.asarray(self.probes)
        before = np.searchsorted(self.times, starts, side="right") - 1
        before = np.clip(before, 0, probes.shape[0] - 2)
        return PROBE_REFERENCE_S / ((probes[before] + probes[before + 1])
                                    / 2.0)

    def speed(self) -> float:
        """Median host speed over the window, as a share of reference."""
        return float(PROBE_REFERENCE_S / np.median(self.probes))


def slice_ids(starts: Sequence[float], origin: float) -> np.ndarray:
    """Slice index of every sample started at ``starts`` (seconds)."""
    return ((np.asarray(starts, dtype=np.float64) - origin)
            // SLICE_S).astype(np.int64)


def per_slice(ids: np.ndarray,
              values: Sequence[float]) -> Tuple[float, float, str]:
    """Median over slices of each slice's p50 and tail.

    Slices holding fewer than ``MIN_SLICE_SAMPLES`` samples or less than
    half the fullest slice are left out; every slice's tail is read at
    the percentile the smallest kept slice supports.  Returns ``(p50,
    tail, description)``.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = {k: int(np.count_nonzero(ids == k)) for k in np.unique(ids)}
    floor = max(MIN_SLICE_SAMPLES, max(counts.values()) / 2.0)
    kept = [k for k, n in counts.items() if n >= floor]
    pct, beyond = tail_percentile(min(counts[k] for k in kept))
    p50s = [np.percentile(values[ids == k], 50.0) for k in kept]
    tails = [np.percentile(values[ids == k], pct) for k in kept]
    return (float(np.median(p50s)), float(np.median(tails)),
            f"median over {len(kept)} slices of {SLICE_S:g} s; tail p{pct:g},"
            f" >= {beyond} beyond in each")


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def host_info() -> Dict[str, object]:
    """What the numbers were measured on."""
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, AttributeError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }
