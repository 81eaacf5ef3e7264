"""Tests of the benchmark itself::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ("train_cq", "embed_open", "search_mixed")
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))


def run_bench(workload: str, seed: int, trace: int = 0,
              seconds: float = 2.0, cwd: pathlib.Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    return json.loads(lines[-1])


@pytest.fixture(scope="module")
def runner():
    import perfbench.run as runner

    return runner


@pytest.fixture(scope="module")
def short_runs():
    """One short untraced run per workload, seed 1."""
    return {name: run_bench(name, seed=1) for name in WORKLOADS}


def test_metric_names_and_benchmark_json_agree(runner):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == runner.END_TO_END
    assert layers == runner.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert set(runner.workload_classes()) == set(WORKLOADS)
    for name in list(e2e) + list(layers) + list(WORKLOADS):
        assert NAME.fullmatch(name), name
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_passes_output_checks(short_runs, runner, workload):
    proc = short_runs[workload]
    result = result_of(proc)
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(runner.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == runner.END_TO_END[name]
        assert metric["value"] > 0, name
    assert "# host: " in proc.stdout


def test_traced_run_reports_every_layer_and_the_probe(runner):
    result = result_of(run_bench("embed_open", seed=1, trace=1))
    assert result["correct"] is True
    assert set(result["metrics"]) == set(runner.PER_LAYER)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["engine.stale_probe_rows"] == 64
    assert values["serving.batches"] > 0
    assert values["lowered.forward_ms"] > 0
    spans = ROOT / "perfbench" / "out" / "spans-embed_open-seed1.json"
    assert json.loads(spans.read_text())["spans"]


def test_probe_reports_rather_than_aborts(short_runs):
    from perfbench.encoder import build_int8_encoder, stale_replay_probe

    stale, rows = stale_replay_probe(build_int8_encoder())
    assert rows == 64 and 0 <= stale <= rows
    # Whatever the probe finds, the run above stayed correct and printed it.
    proc = short_runs["embed_open"]
    assert result_of(proc)["correct"] is True
    assert f"engine.stale_replays {stale} of {rows}" in proc.stdout


def test_other_seed_changes_inputs_not_metric_names(short_runs):
    from perfbench.workloads.embed_open import Phase
    from perfbench.workloads.train_cq import make_loader

    a = next(iter(make_loader(1)))[0]
    b = next(iter(make_loader(2)))[0]
    assert not np.array_equal(a, b)
    assert np.array_equal(a, next(iter(make_loader(1)))[0])
    p1 = Phase(np.random.default_rng(1), 200.0, 1.0)
    p2 = Phase(np.random.default_rng(2), 200.0, 1.0)
    assert not np.array_equal(p1.images, p2.images)
    first = result_of(short_runs["embed_open"])
    second = result_of(run_bench("embed_open", seed=2))
    assert set(first["metrics"]) == set(second["metrics"])


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("train_cq", seed=1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children(runner):
    from perfbench.spans import Spans

    spans = Spans()
    outer = spans.begin("outer")
    inner = spans.begin("inner")
    time.sleep(0.02)
    spans.end(inner)
    time.sleep(0.01)
    spans.end(outer)
    self_times = spans.self_times()
    assert self_times["inner"] == pytest.approx(spans.durations("inner")[0])
    assert self_times["outer"] == pytest.approx(
        spans.durations("outer")[0] - spans.durations("inner")[0])
    name, _, _, parent, _ = spans.records[inner]
    assert parent == outer


def test_tail_and_per_slice_statistics(runner):
    from perfbench import measure

    value, pct, beyond = measure.tail(list(range(1000)))
    assert pct == 99.0 and beyond == 10
    assert measure.tail(list(range(30)))[1] == 50.0
    # Three full 2 s slices of 100 samples and a ragged 3-sample end.
    starts = np.concatenate([np.repeat([0.5, 2.5, 4.5], 100), [6.5] * 3])
    values = np.concatenate([np.full(100, 5.0), np.full(100, 1.0),
                             np.arange(100.0), [1e6] * 3])
    p50, tail, how = measure.per_slice(measure.slice_ids(starts, 0.0),
                                       values)
    assert p50 == 5.0
    assert tail == 5.0 and "3 slices" in how and "p90" in how


def test_host_speed_scales_each_sample_by_its_probes(runner):
    from perfbench import measure

    clock = measure.HostSpeed()
    ref = measure.PROBE_REFERENCE_S
    clock.times = [0.0, 1.0, 2.0, 3.0]
    clock.probes = [ref, ref, 2 * ref, 2 * ref]
    factors = clock.factors([0.1, 1.1, 2.1, 9.0])
    assert factors.tolist() == pytest.approx([1.0, 2 / 3, 0.5, 0.5])
