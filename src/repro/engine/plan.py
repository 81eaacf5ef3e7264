"""Compiling a traced :class:`Graph` into a replayable :class:`Plan`.

Compilation has three stages:

1. **Fusion** — single-consumer elementwise chains (``mul→add`` affine
   tails, ``add→relu`` residual joins, and their ``mul→add→relu``
   composition) collapse into one fused node from
   :mod:`repro.nn._ops.fused`.  The fused forward/backward run the exact
   constituent arithmetic in the original order, so bytes are preserved;
   fusion only removes dispatch and intermediate storage.
2. **Buffer planning** — every op whose forward takes ``out=`` (the
   :class:`~repro.nn.autograd.Function` contract) writes its output into
   an :class:`~repro.engine.arena.Arena` buffer owned by the plan.
   Training plans keep one persistent buffer per slot (backward reads
   forward activations); inference plans reuse freed buffers via a
   greedy liveness scan.
3. **Schedule compilation** — the forward becomes a flat list of
   zero-argument closures, each calling its record's own
   ``ctx.forward`` (with ``out=buf`` where planned); the backward
   becomes a precompiled entry list of ``ctx.backward`` calls that
   mirrors ``repro.nn.autograd.backward``'s reverse-topological walk and
   its exact accumulation order (``existing + new``), minus the per-step
   graph walk and validation.

There is one kernel per op: eager execution and replay run the same
forward and backward.  A plan keeps its ctx objects across replays, so
the scratch an op takes from ``Function.scratch`` (masks, im2col
columns, conv/linear gradient buffers) is allocated once.  It keeps none
of the traced step's activations: once compiled, every record's ``out``
and every ctx's ``parents`` are released.  Ops without
``out=`` (the view ops, ``LogSumExp``, ...) re-run their forward into a
fresh array.  Any compilation surprise raises :class:`PlanError` (a
:class:`TraceError`), which the engine converts into a permanent eager
fallback for that signature.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..nn._ops import elementwise as _ew
from ..nn._ops import shape as _sh
from ..nn._ops.fused import FusedAddRelu, FusedMulAdd, FusedMulAddRelu
from ..nn.autograd import _topological_order
from ..nn.module import Parameter
from .arena import Arena, plan_buffers
from .graph import (
    ConstRef,
    DataRef,
    Graph,
    InputRef,
    ParamRef,
    Record,
    SlotRef,
    SymbolRef,
    TraceError,
)

__all__ = [
    "Plan",
    "PlanError",
    "PlanVerificationError",
    "ReplayResult",
    "compile_plan",
]


class PlanError(TraceError):
    """A graph traced fine but could not be compiled."""


class PlanVerificationError(PlanError):
    """The compiled plan failed AUD006 aliasing verification.

    Deliberately distinct from :class:`PlanError`: a compile failure is
    a recoverable "run this signature eagerly" condition, but a verified
    aliasing hazard in a plan that *would have been replayed* is a
    planner bug — the engine re-raises it instead of falling back.
    """


class ReplayResult:
    """Arrays produced by one replay.

    ``root`` and ``outputs`` values may be arena buffers that the next
    replay overwrites — copy anything that outlives the step.
    """

    __slots__ = ("root", "outputs")

    def __init__(self, root: np.ndarray, outputs: Dict[str, np.ndarray]):
        self.root = root
        self.outputs = outputs


# Ops whose output may alias their input's storage; their input slots are
# pinned out of the inference reuse pool.
_VIEW_OPS = (_sh.Reshape, _sh.Transpose, _sh.GetItem)


# ---------------------------------------------------------------------------
# fusion pass
# ---------------------------------------------------------------------------


def _ref_slots(record: Record):
    for ref in record.args:
        if isinstance(ref, (SlotRef, DataRef)):
            yield ref
    for ref in record.kwargs.values():
        if isinstance(ref, (SlotRef, DataRef)):
            yield ref


def _single_consumer_map(
    records: List[Record], protected: Set[int]
) -> Dict[int, int]:
    """Map slot -> index of its sole SlotRef consumer, when fusable."""
    uses: Dict[int, List[Tuple[int, Any]]] = {}
    for i, record in enumerate(records):
        for ref in _ref_slots(record):
            uses.setdefault(ref.index, []).append((i, ref))
    sole: Dict[int, int] = {}
    for slot, refs in uses.items():
        if slot in protected or len(refs) != 1:
            continue
        consumer, ref = refs[0]
        if isinstance(ref, SlotRef):
            sole[slot] = consumer
    return sole


def _remap_ref(ref: Any, old_to_new: Dict[int, int]) -> Any:
    if isinstance(ref, SlotRef):
        return SlotRef(old_to_new[ref.index])
    if isinstance(ref, DataRef):
        return DataRef(old_to_new[ref.index])
    return ref


def _rewrite(records, fusions, dropped, root_slot, output_slots):
    """Apply fusion decisions, re-indexing every slot reference."""
    old_to_new: Dict[int, int] = {}
    new_records: List[Record] = []
    for i, record in enumerate(records):
        if i in dropped:
            continue
        if i in fusions:
            record = fusions[i]
        old_to_new[i] = len(new_records)
        new_records.append(record)
    for record in new_records:
        record.args = tuple(_remap_ref(r, old_to_new) for r in record.args)
        record.kwargs = {
            k: _remap_ref(v, old_to_new) for k, v in record.kwargs.items()
        }
    new_outputs = {k: old_to_new[v] for k, v in output_slots.items()}
    return new_records, old_to_new[root_slot], new_outputs


def _make_fused(op_cls, parents, args, out):
    """A fused record with a fresh ctx; its forward stashes the state."""
    ctx = op_cls()
    if parents is not None:
        ctx.parents, ctx.needs_input_grad = parents
        out._ctx = ctx
    return Record(op_cls, ctx, tuple(args), {}, out, out._ctx is not None)


def _fuse_records(records, root_slot, output_slots):
    """Run the two fusion scans; returns rewritten records and indices."""
    for _ in range(2):  # second scan folds relu over freshly fused affines
        protected = {root_slot} | set(output_slots.values())
        sole = _single_consumer_map(records, protected)
        fusions: Dict[int, Record] = {}
        dropped: Set[int] = set()
        for i, record in enumerate(records):
            if i in dropped:
                continue
            grad = record.requires_grad
            # add → relu  /  fused-mul-add → relu
            if record.op is _ew.Relu and isinstance(record.args[0], SlotRef):
                j = record.args[0].index
                inner = records[j]
                if sole.get(j) != i or j in dropped or j in fusions:
                    continue
                if inner.requires_grad != grad:
                    continue
                if inner.op is _ew.Add and len(inner.args) == 2:
                    fused_op = FusedAddRelu
                elif inner.op is FusedMulAdd:
                    fused_op = FusedMulAddRelu
                else:
                    continue
                parents = (
                    (inner.ctx.parents, inner.ctx.needs_input_grad)
                    if grad
                    else None
                )
                fusions[i] = _make_fused(
                    fused_op, parents, inner.args, record.out
                )
                dropped.add(j)
                continue
            # mul → add (affine tail)
            if (
                record.op is _ew.Add
                and len(record.args) == 2
                and isinstance(record.args[0], SlotRef)
                and isinstance(record.args[1], (SlotRef, DataRef, ParamRef,
                                                InputRef, ConstRef))
            ):
                j = record.args[0].index
                inner = records[j]
                if sole.get(j) != i or j in dropped or j in fusions:
                    continue
                if inner.op is not _ew.Mul or len(inner.args) != 2:
                    continue
                if inner.requires_grad != grad:
                    continue
                if not all(
                    isinstance(
                        r, (SlotRef, DataRef, ParamRef, InputRef, ConstRef)
                    )
                    for r in inner.args
                ):
                    continue
                if inner.out.data.shape != record.out.data.shape:
                    continue
                if grad and (
                    len(inner.ctx.parents) != 2 or len(record.ctx.parents) != 2
                ):
                    continue
                parents = None
                if grad:
                    parents = (
                        inner.ctx.parents + (record.ctx.parents[1],),
                        inner.ctx.needs_input_grad
                        + (record.ctx.needs_input_grad[1],),
                    )
                fusions[i] = _make_fused(
                    FusedMulAdd,
                    parents,
                    (inner.args[0], inner.args[1], record.args[1]),
                    record.out,
                )
                dropped.add(j)
        if not fusions:
            break
        records, root_slot, output_slots = _rewrite(
            records, fusions, dropped, root_slot, output_slots
        )
    return records, root_slot, output_slots


# ---------------------------------------------------------------------------
# forward step builders
# ---------------------------------------------------------------------------


def _fetcher(ref, slots, inbox):
    if isinstance(ref, (SlotRef, DataRef)):
        j = ref.index
        return lambda: slots[j]
    if isinstance(ref, ParamRef):
        p = ref.param
        return lambda: p.data
    if isinstance(ref, InputRef):
        name = ref.name
        return lambda: inbox[name]
    if isinstance(ref, ConstRef):
        arr = ref.array
        return lambda: arr
    value = ref
    return lambda: value


@functools.lru_cache(maxsize=None)
def _takes_out(op) -> bool:
    """Whether ``op``'s forward follows the ``out=`` contract."""
    return "out" in inspect.signature(op.forward).parameters


def _step(record, index, slots, inbox, symbox, buf):
    """The replay closure of one record: its own ``ctx.forward``.

    ``buf`` (an arena buffer, or None for ops without ``out=``) is bound
    as the ``out`` keyword; literal kwargs are bound once, symbolic ones
    (``SymbolRef``) are read from the replay's symbol bindings.
    """
    fwd = record.ctx.forward
    fetchers = tuple(_fetcher(r, slots, inbox) for r in record.args)
    static = {
        k: v for k, v in record.kwargs.items() if not isinstance(v, SymbolRef)
    }
    symbolic = tuple(
        (k, v.name) for k, v in record.kwargs.items()
        if isinstance(v, SymbolRef)
    )
    if buf is not None:
        static["out"] = buf
    if symbolic:
        def step():
            kw = dict(static)
            for key, name in symbolic:
                kw[key] = symbox[name]
            slots[index] = fwd(*[f() for f in fetchers], **kw)
        return step
    if len(fetchers) == 1:
        (fa,) = fetchers
        def step():
            slots[index] = fwd(fa(), **static)
        return step
    if len(fetchers) == 2:
        fa, fb = fetchers
        def step():
            slots[index] = fwd(fa(), fb(), **static)
        return step
    def step():
        slots[index] = fwd(*[f() for f in fetchers], **static)
    return step


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


class Plan:
    """A compiled, replayable step.

    Training plans (``training=True``) run the precompiled backward on
    every replay, accumulating into ``Parameter.grad`` exactly as the
    eager engine does.  Inference plans validate parameter versions via
    :meth:`stale` so weight updates force a retrace (the spec'd
    invalidation rule), and reuse output buffers across slots.  Each
    plan owns its :attr:`arena`, so dropping a plan frees its buffers.
    """

    def __init__(self, graph: Graph, training: bool, fuse: bool = True) -> None:
        self.training = training
        self.arena = Arena()

        records = list(graph.records)
        root_slot = graph.slot_of(graph.root)
        if root_slot is None:
            raise PlanError("root is not a traced op output")
        output_slots = {k: ref.index for k, ref in graph.outputs.items()}
        if fuse:
            records, root_slot, output_slots = _fuse_records(
                records, root_slot, output_slots
            )
        self.records = records
        self.fused = fuse
        self._root_slot = root_slot
        self._output_slots = output_slots
        self._input_names = graph.input_names
        self.symbols = graph.symbols

        self._slots: List[Any] = [None] * len(records)
        self._inbox: Dict[str, np.ndarray] = {}
        self._symbox: Dict[str, int] = {}

        self._compile_forward()
        self._version_guard: Tuple[Tuple[Any, int], ...] = ()
        if training:
            self._compile_backward(graph.root)
        else:
            params = []
            seen: Set[int] = set()
            for record in records:
                for ref in record.args:
                    if isinstance(ref, ParamRef) and id(ref.param) not in seen:
                        seen.add(id(ref.param))
                        params.append(ref.param)
            self._version_guard = tuple((p, p.version) for p in params)
        self._release_trace()

    # -- compilation ------------------------------------------------------
    def _compile_forward(self) -> None:
        records = self.records
        # View outputs alias their input's storage: both stay out of the
        # inference reuse pool, as do the buffers the replay hands back.
        pinned = {self._root_slot, *self._output_slots.values()}
        for i, record in enumerate(records):
            if record.op in _VIEW_OPS:
                pinned.add(i)
                pinned.update(ref.index for ref in _ref_slots(record))
        keys = plan_buffers(records, pinned, reuse=not self.training)
        # Read by the AUD006 plan-aliasing verifier
        # (repro.analysis.plans): the buffer assignment actually compiled
        # in, and which slots really write into arena storage.
        self._buffer_keys = dict(keys)
        self._planned_buffers: Dict[int, np.ndarray] = {}

        steps: List[Callable[[], None]] = []
        for i, record in enumerate(records):
            buf = None
            if _takes_out(record.op):
                data = record.out.data
                buf = self.arena.buffer(keys[i], data.shape, data.dtype)
                self._planned_buffers[i] = buf
            steps.append(
                _step(record, i, self._slots, self._inbox, self._symbox, buf)
            )
        self._steps = steps

    def _compile_backward(self, root) -> None:
        order = _topological_order(root)
        gids = {id(t): k for k, t in enumerate(order)}
        self._num_gids = len(order)
        self._root_gid = gids[id(root)]
        entries: List[Tuple] = []
        for node in reversed(order):
            gid = gids[id(node)]
            ctx = node._ctx
            if ctx is None:
                if node.requires_grad:
                    if not isinstance(node, Parameter):
                        raise PlanError(
                            "trainable non-Parameter leaf in backward graph"
                        )
                    entries.append(("leaf", gid, node))
                continue
            parent_gids = tuple(gids[id(p)] for p in ctx.parents)
            entries.append(
                ("op", gid, ctx.backward, parent_gids, ctx.needs_input_grad)
            )
        self._backward_entries = entries

    def _release_trace(self) -> None:
        """Drop the traced step's activations, which replay never reads.

        Each record's ``out`` Tensor, and each ctx's ``parents`` (the
        Tensors it was applied to, which link back through the whole
        traced step), would otherwise stay alive as long as the plan.
        Backward reads only ``len(self.parents)``, so the parents become
        placeholders of the same length.
        """
        for record in self.records:
            record.out = None
            ctx = record.ctx
            ctx.parents = (None,) * len(ctx.parents)

    # -- validity ---------------------------------------------------------
    def stale(self) -> bool:
        """True when a guarded Parameter's version moved (inference)."""
        for param, version in self._version_guard:
            if param.version != version:
                return True
        return False

    # -- execution --------------------------------------------------------
    def replay(
        self,
        inputs: Dict[str, np.ndarray],
        symbols: Optional[Dict[str, int]] = None,
    ) -> ReplayResult:
        inbox = self._inbox
        for name in self._input_names:
            inbox[name] = inputs[name]
        if symbols:
            self._symbox.update(symbols)
        slots = self._slots
        for step in self._steps:
            step()
        if self.training:
            self._run_backward()
        outputs = {
            name: slots[slot] for name, slot in self._output_slots.items()
        }
        return ReplayResult(slots[self._root_slot], outputs)

    def _run_backward(self) -> None:
        grads: List[Optional[np.ndarray]] = [None] * self._num_gids
        root_arr = self._slots[self._root_slot]
        grads[self._root_gid] = np.ones_like(root_arr)
        for entry in self._backward_entries:
            if entry[0] == "op":
                _, gid, bwd, parent_gids, needs = entry
                g = grads[gid]
                if g is None:
                    continue
                grads[gid] = None
                input_grads = bwd(g)
                if not isinstance(input_grads, (tuple, list)):
                    input_grads = (input_grads,)
                for pgid, pg, need in zip(parent_gids, input_grads, needs):
                    if pg is None or not need:
                        continue
                    cur = grads[pgid]
                    grads[pgid] = pg if cur is None else cur + pg
            else:
                _, gid, param = entry
                g = grads[gid]
                if g is None:
                    continue
                grads[gid] = None
                param.grad = g if param.grad is None else param.grad + g


def compile_plan(
    graph: Graph,
    training: bool,
    fuse: bool = True,
    verify: Optional[bool] = None,
) -> Plan:
    """Compile ``graph`` into a :class:`Plan` (raises :class:`PlanError`).

    ``verify=True`` — or the ``REPRO_PLAN_VERIFY`` environment flag when
    ``verify`` is left ``None`` — runs the AUD006 static aliasing
    verifier (:func:`repro.analysis.plans.verify_plan`) on the compiled
    plan and raises :class:`PlanVerificationError` if it proves a
    hazard.  Off by default: it is a debug/CI mode, not a per-trace
    cost.
    """
    try:
        plan = Plan(graph, training=training, fuse=fuse)
    except TraceError:
        raise
    except Exception as exc:
        raise PlanError(f"plan compilation failed: {exc!r}")
    if verify is None:
        import os

        verify = os.environ.get(
            "REPRO_PLAN_VERIFY", ""
        ).strip().lower() not in ("", "0", "false", "off", "no")
    if verify:
        from ..analysis.plans import verify_plan

        findings = verify_plan(plan)
        if findings:
            rendered = "; ".join(f.message for f in findings)
            raise PlanVerificationError(
                f"plan failed AUD006 verification: {rendered}"
            )
    return plan
