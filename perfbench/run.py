"""The repository benchmark: build a workload from a seed, measure, check.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_cq --seed 1 --seconds 20 --trace 0

Workloads: ``train_cq``, ``embed_open``, ``search_mixed`` (see
``perfbench/README.md``).  Set-up runs ``SETUP_REPEATS`` times and
``setup_s`` is their median; the last set-up is measured for
``--seconds``.  With ``--trace 0`` the whole window runs untraced and the
end-to-end metrics are reported.  With ``--trace 1`` half the window
runs untraced and half with spans around each layer's public calls; the
per-layer metrics come from the traced half and the tracing overhead
from comparing the two halves, and the spans are written to
``perfbench/out/``.  Every output is checked after the windows; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it start with ``#``.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS/OpenMP thread, so the numbers measure the
# program and not the thread scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pathlib
import statistics
import sys
import time
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent

SETUP_REPEATS = 3

#: name -> unit; reported with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "images_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "aux_p50_ms": "ms",
}

#: name -> unit; reported with ``--trace 1``, 0 where a workload does
#: not use the layer.
PER_LAYER = {
    "data.wait_ms": "ms",
    "engine.execute_ms": "ms",
    "engine.plan_hits": "count",
    "engine.plan_misses": "count",
    "engine.retraces": "count",
    "engine.fallbacks": "count",
    "optim.step_ms": "ms",
    "contrastive.other_ms": "ms",
    "quant.cache_hits": "count",
    "quant.cache_misses": "count",
    "serving.queue_ms": "ms",
    "serving.batches": "count",
    "serving.batch_size_mean": "rows",
    "serving.batch_size_p50": "rows",
    "serving.cache_hit_ratio": "ratio",
    "serving.cache_lookups": "count",
    "lowered.forward_ms": "ms",
    "lowered.forward_ms_per_row": "ms",
    "lowered.busy_frac": "ratio",
    "retrieval.embed_ms": "ms",
    "retrieval.scan_ms": "ms",
    "retrieval.rerank_ms": "ms",
    "retrieval.shortlist": "count",
    "retrieval.cells_probed": "count",
    "retrieval.add_ms": "ms",
    "retrieval.add_embed_ms": "ms",
    "retrieval.add_index_ms": "ms",
    "loadgen.late_p50_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "engine.stale_replays": "count",
    "engine.stale_probe_rows": "count",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

#: Ratios and the base each is printed with.
RATIO_BASES = {
    "serving.cache_hit_ratio": "serving.cache_lookups",
    "lowered.busy_frac": "window_s",
    "engine.stale_replays": "engine.stale_probe_rows",
    "trace.overhead_pct": "untraced_p50_ms",
}


def workload_classes():
    from perfbench.workloads.embed_open import EmbedOpen
    from perfbench.workloads.search_mixed import SearchMixed
    from perfbench.workloads.train_cq import TrainCQ

    return {cls.name: cls for cls in (TrainCQ, EmbedOpen, SearchMixed)}


def note(label: str, value) -> None:
    print(f"# {label}: {json.dumps(value, default=str)}", flush=True)


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Optional[pathlib.Path] = None) -> Dict[str, object]:
    """One benchmark run; returns the result object printed last."""
    from perfbench import measure
    from perfbench.encoder import build_int8_encoder, stale_replay_probe
    from perfbench.spans import Spans

    cls = workload_classes()[workload]
    note("host", measure.host_info())
    setups: List[float] = []
    raw_setups: List[float] = []
    current = None
    for _ in range(SETUP_REPEATS):
        if current is not None:
            current.close()
            current = None
        candidate = cls(seed)
        before = measure.probe_s()
        started = time.perf_counter()
        try:
            candidate.setup()
        except BaseException:
            candidate.close()
            raise
        raw = time.perf_counter() - started
        speed = measure.PROBE_REFERENCE_S / ((before + measure.probe_s()) / 2)
        raw_setups.append(raw)
        setups.append(raw * speed)
        current = candidate
    note("setup_s per repeat", {"at reference speed": setups,
                                 "raw": raw_setups})
    try:
        spans = None
        if trace:
            untraced = current.measure(seconds / 2.0)
            note("untraced window", untraced.e2e)
            spans = Spans()
            current.instrument(spans)
            window = current.measure(seconds / 2.0)
        else:
            window = current.measure(seconds)
        peak_rss = measure.peak_rss_mb()
        note("window", window.notes)
        layers = current.layers(window) if trace else {}
        problems = current.check()
        note("check", getattr(current, "check_note", ""))
    finally:
        current.close()
    stale, probe_rows = stale_replay_probe(build_int8_encoder())
    note("probe", f"engine.stale_replays {stale} of {probe_rows} rows "
                  f"served through engine='trace' differ from eager")

    e2e = dict(window.e2e, setup_s=statistics.median(setups),
               peak_rss_mb=peak_rss)
    note("end_to_end medians", e2e)
    if trace:
        base_p50 = untraced.e2e["p50_ms"]
        layers.update({
            "engine.stale_replays": float(stale),
            "engine.stale_probe_rows": float(probe_rows),
            "trace.overhead_pct":
                100.0 * (window.e2e["p50_ms"] - base_p50) / base_p50,
            "trace.spans": float(len(spans.records)),
        })
        values = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
        bases = dict(values, window_s=seconds / 2.0,
                     untraced_p50_ms=base_p50)
        for name, unit in PER_LAYER.items():
            base = RATIO_BASES.get(name)
            suffix = f"  (base {base} = {bases[base]:.6g})" if base else ""
            print(f"# layer {name:28s} {values[name]:>14.6g} {unit}{suffix}")
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            spans.dump(out_dir / f"spans-{workload}-seed{seed}.json")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    if current.errors:
        note(f"{len(current.errors)} operations raised, first",
             current.errors[:3])
    for problem in problems:
        note("check failed", problem)
    return {
        "correct": not problems and current.failed == 0,
        "attempted": int(current.attempted),
        "failed": int(current.failed),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src}/repro not found; run from the root of a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    if args.workload not in workload_classes():
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workload_classes())}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be > 0 and --seed >= 0",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 out_dir=ROOT / "perfbench" / "out")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
