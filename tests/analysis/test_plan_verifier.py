"""AUD006 static plan-aliasing verifier."""

import numpy as np
import pytest

import repro.engine.plan as plan_mod
from repro.analysis.plans import main, verify_plan
from repro.engine.plan import PlanError, compile_plan
from repro.engine.tracer import Tracer, tracing
from repro.nn.tensor import Tensor


def trace(fn, inputs):
    tracer = Tracer(inputs=inputs)
    with tracing(tracer):
        root, taps = fn(**inputs)
    return tracer.finalize(root, taps)


def chain(x, y):
    """Long enough elementwise chain for the arena to pool buffers."""
    a = x * y
    b = a + x
    c = b * y
    d = c + b
    e = d * x
    return e + d, {"mid": c}


def arr(shape, seed):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


@pytest.fixture
def graph():
    return trace(chain, {"x": arr((4, 4), 0), "y": arr((4, 4), 1)})


@pytest.fixture
def liveness_ignoring_planner(monkeypatch):
    """plan_buffers that hands every unpinned slot the same pool key —
    the mutated-plan fixture AUD006 must catch."""
    real = plan_mod.plan_buffers

    def evil(records, pinned, reuse):
        keys = real(records, pinned, reuse)
        if reuse:
            pinned_set = set(pinned)
            for i in range(len(records)):
                if i not in pinned_set:
                    keys[i] = ("pool", 0)
        return keys

    monkeypatch.setattr(plan_mod, "plan_buffers", evil)
    return evil


def test_clean_inference_plan_verifies(graph):
    plan = compile_plan(graph, training=False)
    assert verify_plan(plan, "inference") == []


def test_clean_training_plan_verifies():
    g = trace(chain, {"x": arr((4, 4), 0), "y": arr((4, 4), 1)})
    plan = compile_plan(g, training=True)
    assert verify_plan(plan, "training") == []


def test_inference_plan_actually_reuses_buffers(graph):
    # the clean-pass test above is only meaningful if pooling happens
    plan = compile_plan(graph, training=False)
    assert any(
        key[0] == "pool" for key in plan._buffer_keys.values()
    ), "expected at least one pooled slot in the inference plan"


def test_mutated_plan_is_caught(graph, liveness_ignoring_planner):
    plan = plan_mod.Plan(graph, training=False)
    findings = verify_plan(plan, "mutated")
    assert findings, "liveness-ignoring planner must be rejected"
    assert all(f.code == "AUD006" for f in findings)
    assert all(f.severity == "error" for f in findings)
    assert any("liveness violation" in f.message for f in findings)
    assert findings[0].file == "<plan:mutated>"


def test_plan_without_buffer_fields_fails_loudly(graph):
    # A plan that stops exposing its buffer assignment must not verify
    # vacuously against empty maps.
    plan = compile_plan(graph, training=False)
    del plan._planned_buffers
    with pytest.raises(AttributeError):
        verify_plan(plan)


def test_compile_plan_verify_kwarg(graph, liveness_ignoring_planner):
    with pytest.raises(PlanError, match="AUD006"):
        compile_plan(graph, training=False, verify=True)


def test_compile_plan_verify_env_flag(
    graph, liveness_ignoring_planner, monkeypatch
):
    monkeypatch.setenv("REPRO_PLAN_VERIFY", "1")
    with pytest.raises(PlanError, match="AUD006"):
        compile_plan(graph, training=False)


def test_verify_kwarg_overrides_env_off(graph, monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_VERIFY", "0")
    plan = compile_plan(graph, training=False, verify=True)
    assert verify_plan(plan) == []


def test_clean_compile_passes_under_verify(graph):
    plan = compile_plan(graph, training=False, verify=True)
    result = plan.replay({
        "x": np.random.default_rng(0).normal(size=(4, 4)),
        "y": np.random.default_rng(1).normal(size=(4, 4)),
    })
    assert result.root.shape == (4, 4)


def test_replay_results_match_eager_after_verification(graph):
    plan = compile_plan(graph, training=False, verify=True)
    x = np.random.default_rng(2).normal(size=(4, 4))
    y = np.random.default_rng(3).normal(size=(4, 4))
    expected_root = ((x * y + x) * y + (x * y + x)) * x + \
        ((x * y + x) * y + (x * y + x))
    got = plan.replay({"x": x, "y": y})
    np.testing.assert_allclose(got.root, expected_root, rtol=1e-5,
                               atol=1e-7)


def test_engine_surfaces_verification_failure_not_fallback(
    liveness_ignoring_planner, monkeypatch
):
    """PlanVerificationError must not be swallowed by the engine's
    TraceError fallback path — a hazard in a plan that would have been
    replayed is a planner bug, not an untraceable step."""
    from repro.engine import ExecutionEngine, PlanVerificationError
    from repro.nn.autograd import no_grad

    monkeypatch.setenv("REPRO_PLAN_VERIFY", "1")
    engine = ExecutionEngine(mode="trace", training=False)
    x, y = arr((4, 4), 0), arr((4, 4), 1)

    def eager_fn():
        with no_grad():
            return chain(x, y)

    with pytest.raises(PlanVerificationError, match="AUD006"):
        engine.execute("sig", {"x": x, "y": y}, None, eager_fn)
    assert engine.stats()["fallbacks"] == 0


@pytest.mark.slow
def test_cli_sweep_passes_on_bench_models(capsys):
    assert main(["--batch", "2"]) == 0
    out = capsys.readouterr().out
    assert "0 violation(s)" in out
