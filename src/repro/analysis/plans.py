"""AUD006: static aliasing verification of compiled engine plans.

The arena planner (:func:`repro.engine.arena.plan_buffers`) hands freed
buffers to later slots.  That is only sound under three invariants,
which this module *re-proves* against the plan a
:class:`~repro.engine.plan.Plan` actually compiled — independently
re-deriving liveness from the records rather than trusting the
planner's own bookkeeping:

1. **Liveness** — when two planned slots physically share storage
   (``np.shares_memory`` over the real arena buffers), the earlier
   slot's last reader must run strictly before the later slot's write.
   A violation means some step reads a value the arena already let a
   later op clobber.
2. **Pinned privacy** — the root, every named output, every view-op
   input, and every generic-fallback slot must hold a private
   ``("slot", i)`` key, and a pinned slot that owns arena storage must
   not share it with any other planned slot.  Root/output buffers
   escape the replay inside :class:`~repro.engine.plan.ReplayResult`;
   if they aliased pooled storage, results would mutate under the
   caller before they could copy.
3. **View pinning** — inputs of ``Reshape``/``Transpose``/``GetItem``
   must be pinned: their outputs alias the input's storage, so pooling
   the input would silently pool the view too.

Verification runs in three ways: explicitly via :func:`verify_plan`;
automatically from :func:`repro.engine.plan.compile_plan` when
``verify=True`` or ``REPRO_PLAN_VERIFY=1`` (debug/CI mode — hazards
raise ``PlanError``); and as a CLI sweep over the bench-canonical
models::

    PYTHONPATH=src python -m repro.analysis.plans

which traces resnet18 (GroupNorm, train and inference) and
mobilenet_v2 (eval-mode inference), then verifies every plan in each
engine's cache.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .findings import ERROR, Finding, exit_code, render_json, render_text

__all__ = ["verify_plan", "main"]


def _slot_refs(record) -> List[Any]:
    from ..engine.graph import DataRef, SlotRef

    refs = []
    for ref in list(record.args) + list(record.kwargs.values()):
        if isinstance(ref, (SlotRef, DataRef)):
            refs.append(ref)
    return refs


def _derive_last_uses(records) -> Dict[int, int]:
    """Index of the last record reading each slot (independent of arena)."""
    last: Dict[int, int] = {}
    for i, record in enumerate(records):
        for ref in _slot_refs(record):
            last[ref.index] = i
    return last


def _derive_pinned(plan) -> set:
    """Slots that must keep private storage, re-derived from records."""
    from ..engine.plan import _VIEW_OPS

    records = plan.records
    pinned = set()
    for i, record in enumerate(records):
        if record.op in _VIEW_OPS:
            pinned.add(i)  # view outputs are never planned
            for ref in _slot_refs(record):
                pinned.add(ref.index)  # ...and their inputs stay private
    pinned.add(plan._root_slot)
    pinned.update(plan._output_slots.values())
    return pinned


def verify_plan(plan, label: str = "plan") -> List[Finding]:
    """Prove the AUD006 invariants for one compiled plan.

    Returns an empty list when the plan is sound; otherwise one
    error-severity ``AUD006`` finding per violated invariant, located at
    the offending record index (``line`` is the record's position in the
    compiled schedule).
    """
    loc = f"<plan:{label}>"
    findings: List[Finding] = []
    records = plan.records
    # Read directly: a plan that stopped exposing these must fail here,
    # not verify vacuously against empty maps.
    keys: Dict[int, Any] = plan._buffer_keys
    buffers: Dict[int, np.ndarray] = plan._planned_buffers
    last = _derive_last_uses(records)
    pinned = _derive_pinned(plan)

    # 2a. Private keys for everything that escapes or is aliased by a view.
    for i in sorted(pinned):
        key = keys.get(i)
        if key is not None and key != ("slot", i):
            what = "root" if i == plan._root_slot else (
                "output" if i in plan._output_slots.values()
                else "view-adjacent slot"
            )
            findings.append(Finding(
                loc, i, "AUD006", ERROR,
                f"{what} slot {i} ({records[i].op.__name__}) was given "
                f"pooled arena key {key!r}; it must own private storage "
                f"('slot', {i})",
            ))

    slots = sorted(buffers)
    for a in range(len(slots)):
        i = slots[a]
        for b in range(a + 1, len(slots)):
            j = slots[b]
            if not np.shares_memory(buffers[i], buffers[j]):
                continue
            # 2b. Pinned storage may not be shared at all.
            if i in pinned or j in pinned:
                p = i if i in pinned else j
                other = j if p == i else i
                findings.append(Finding(
                    loc, p, "AUD006", ERROR,
                    f"pinned slot {p} ({records[p].op.__name__}) shares "
                    f"arena storage with slot {other} "
                    f"({records[other].op.__name__}); pinned buffers "
                    f"escape the replay and must be private",
                ))
                continue
            # 1. Reuse is legal only after the earlier slot's last read.
            last_read = last.get(i, -1)
            if last_read >= j:
                findings.append(Finding(
                    loc, j, "AUD006", ERROR,
                    f"slot {j} ({records[j].op.__name__}) overwrites the "
                    f"buffer of slot {i} ({records[i].op.__name__}), but "
                    f"slot {i} is still read at record {last_read} "
                    f"(liveness violation: stale-read hazard)",
                ))

    return findings


# ---------------------------------------------------------------------------
# CLI sweep over the bench-canonical models
# ---------------------------------------------------------------------------

_IMAGE_SIZE = 8
_WIDTH = 0.0625


def _train_plans(batch: int) -> Dict[str, Any]:
    """Trace CQ training steps on the bench resnet18 config."""
    from ..contrastive import ContrastiveQuantTrainer, CQVariant, SimCLRModel
    from ..models import resnet18
    from ..nn.optim import Adam

    encoder = resnet18(stem="cifar", width_multiplier=_WIDTH,
                       rng=np.random.default_rng(0), norm="group")
    model = SimCLRModel(encoder, projection_dim=16,
                        rng=np.random.default_rng(1), head_norm="layer")
    trainer = ContrastiveQuantTrainer(
        model,
        CQVariant.A,
        "2-8",
        Adam(model.parameters(), lr=1e-3),
        rng=np.random.default_rng(0),
        fuse_views=True,
        weight_cache=True,
        engine="trace",
    )
    rng = np.random.default_rng(42)
    shape = (batch, 3, _IMAGE_SIZE, _IMAGE_SIZE)
    for _ in range(3):  # trace, then replay at least once
        v1 = rng.normal(size=shape).astype(np.float32)
        v2 = rng.normal(size=shape).astype(np.float32)
        trainer.train_step(v1, v2)
    return {
        f"resnet18-train:{sig}": plan
        for sig, plan in trainer.engine.plans().items()
    }


def _inference_plans(batch: int) -> Dict[str, Any]:
    """Trace eval-mode forwards for both bench encoders."""
    from ..engine import ExecutionEngine
    from ..models import mobilenet_v2, resnet18
    from ..nn.autograd import no_grad
    from ..nn.tensor import Tensor

    models = {
        "resnet18-infer": resnet18(stem="cifar", width_multiplier=_WIDTH,
                                   rng=np.random.default_rng(0),
                                   norm="group"),
        # BatchNorm blocks training-mode tracing; eval() replays running
        # statistics and is the serving configuration anyway.
        "mobilenet_v2-infer": mobilenet_v2(width_multiplier=0.25,
                                           rng=np.random.default_rng(0)),
    }
    plans: Dict[str, Any] = {}
    rng = np.random.default_rng(7)
    for name, model in models.items():
        model.eval()
        engine = ExecutionEngine(mode="trace", training=False)
        x = Tensor(
            rng.normal(size=(batch, 3, _IMAGE_SIZE, _IMAGE_SIZE)),
            dtype=np.float64,
        )

        def eager_fn(model=model, x=x):
            with no_grad():
                return model(x), {}

        signature = (name, x.data.shape, str(x.data.dtype))
        for _ in range(2):  # trace, then one replay
            engine.execute(signature, {"x": x}, None, eager_fn)
        for sig, plan in engine.plans().items():
            plans[f"{name}:{sig}"] = plan
    return plans


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.plans",
        description="AUD006 sweep: verify buffer aliasing of every plan "
                    "the bench-canonical models compile",
    )
    parser.add_argument("--batch", type=int, default=4,
                        help="per-view batch size for the traced steps")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    args = parser.parse_args(argv)

    plans = {}
    plans.update(_train_plans(args.batch))
    plans.update(_inference_plans(args.batch))
    if not plans:
        print("no plans were compiled; nothing to verify")
        return 1

    findings: List[Finding] = []
    for label, plan in sorted(plans.items()):
        findings.extend(verify_plan(plan, label=label))

    if args.format == "json":
        print(render_json(findings))
    else:
        if findings:
            print(render_text(findings))
        print(f"AUD006: verified {len(plans)} plan(s), "
              f"{len(findings)} violation(s)")
    return exit_code(findings)


if __name__ == "__main__":
    raise SystemExit(main())
