"""Pre-planned output buffers for compiled plans.

Each compiled plan owns one :class:`Arena`, planned in one of two modes:

- **Training plans** give every graph slot its own persistent buffer
  (``reuse=False``).  Backward reads forward activations after the whole
  forward has run, so no within-step sharing is legal; the win is that a
  replayed step performs zero output allocations after the first.
- **Inference plans** (``reuse=True``) run a greedy liveness scan: a
  slot's buffer returns to the free pool after the last record that reads
  it, so later slots of the same shape/dtype reuse the storage.  Final
  outputs (the root and named taps) are pinned and never pooled.

Arena keys are explicit tuples (``("slot", i)`` or ``("pool", n)``);
the arena lives and dies with its plan, so a dropped or retraced plan's
buffers are freed with it.  Buffers are plain ``np.empty`` arrays; the
ops' ``out=`` forwards own the contract of fully overwriting them.
Anything downstream that caches against array *identity* (the
``repro.quant.lowered`` GEMM operand cache) must also key on a version
counter, because an arena deliberately serves the same ndarray object
with new contents every replay — see ``LoweredModule._weight_operand``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set, Tuple

import numpy as np

from .graph import DataRef, Record, SlotRef

__all__ = ["Arena", "plan_buffers"]


class Arena:
    """A pool of named, persistently owned output buffers."""

    def __init__(self) -> None:
        self._buffers: Dict[Any, np.ndarray] = {}

    def buffer(self, key: Any, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Return the buffer for ``key``, (re)allocating on shape change."""
        shape = tuple(shape)
        dtype = np.dtype(dtype)
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def __len__(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())

    def __repr__(self) -> str:
        return f"Arena({len(self)} buffers, {self.nbytes} bytes)"


def _last_uses(records: List[Record]) -> Dict[int, int]:
    """Map each slot to the index of the last record that reads it."""
    last: Dict[int, int] = {}
    for i, record in enumerate(records):
        for ref in record.args:
            if isinstance(ref, (SlotRef, DataRef)):
                last[ref.index] = i
        for ref in record.kwargs.values():
            if isinstance(ref, (SlotRef, DataRef)):
                last[ref.index] = i
    return last


def plan_buffers(
    records: List[Record],
    pinned: Iterable[int],
    reuse: bool,
) -> Dict[int, Any]:
    """Assign an arena key to every record's output slot.

    ``pinned`` slots (root, taps, anything read after the replay returns)
    always get private keys.  With ``reuse=False`` every slot does.  With
    ``reuse=True`` a freed slot's key re-enters a per-(shape, dtype) free
    pool; inputs of record ``i`` are released only *after* slot ``i`` is
    assigned, so an op's output can never alias one of its own inputs.
    """
    pinned_set: Set[int] = set(pinned)
    keys: Dict[int, Any] = {}
    if not reuse:
        for i in range(len(records)):
            keys[i] = ("slot", i)
        return keys

    last = _last_uses(records)
    free: Dict[Tuple[Tuple[int, ...], Any], List[Any]] = {}
    fresh = 0
    for i, record in enumerate(records):
        out = record.out.data
        pool_key = (tuple(out.shape), out.dtype.str)
        if i in pinned_set:
            keys[i] = ("slot", i)
        else:
            pool = free.get(pool_key)
            if pool:
                keys[i] = pool.pop()
            else:
                keys[i] = ("pool", fresh)
                fresh += 1
        # Release inputs whose final read was this record.
        for ref in list(record.args) + list(record.kwargs.values()):
            if not isinstance(ref, (SlotRef, DataRef)):
                continue
            j = ref.index
            if j in pinned_set or last.get(j) != i:
                continue
            src = records[j].out.data
            free.setdefault((tuple(src.shape), src.dtype.str), []).append(
                keys[j]
            )
            # A slot released once must not be released again via a
            # second ref to it in this same record.
            pinned_set.add(j)
        # Slots never read at all (dead taps) stay private; they were
        # assigned above and simply never enter the pool.
    return keys
