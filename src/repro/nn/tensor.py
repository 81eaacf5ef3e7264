"""The :class:`Tensor` — a numpy array with reverse-mode autograd.

Arithmetic operators and most methods are installed by
:mod:`repro.nn.functional` at import time so that the operation
implementations can live in small per-topic modules without creating
circular imports.  Importing :mod:`repro.nn` guarantees installation.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Optional, Tuple, Union

import numpy as np

from . import autograd

__all__ = ["Tensor", "as_tensor", "forbid_silent_downcast"]

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_DEFAULT_DTYPE = np.float32


class _DowncastGuard(threading.local):
    depth = 0
    label = ""


_downcast_guard = _DowncastGuard()


@contextlib.contextmanager
def forbid_silent_downcast(label: str = "a float64-exact computation"):
    """Turn :class:`Tensor`'s silent float64→float32 downcast into an error.

    Constructing a Tensor from a float64 array without an explicit
    ``dtype=`` normally casts to float32 (the framework default).  Inside
    computations whose correctness *depends* on float64 — the integer
    quantization grids, where ``step * code`` must dequantize exactly —
    that silent cast is a data-corruption bug, so the code wraps itself
    in this guard and the constructor raises ``TypeError`` instead.
    """
    _downcast_guard.depth += 1
    previous = _downcast_guard.label
    _downcast_guard.label = label
    try:
        yield
    finally:
        _downcast_guard.depth -= 1
        _downcast_guard.label = previous


class Tensor:
    """A multi-dimensional array that records operations for autograd.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Floating-point data defaults to
        float32 to match the conventions of deep-learning frameworks.
    requires_grad:
        When True, operations involving this tensor are recorded and
        ``backward()`` will populate ``.grad``.
    """

    # ``__weakref__`` lets tests prove that a tensor was freed.
    __slots__ = (
        "data", "grad", "requires_grad", "_ctx", "_retain_grad", "__weakref__"
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: Optional[np.dtype] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data, dtype=dtype)
        if dtype is None and array.dtype == np.float64:
            if _downcast_guard.depth:
                raise TypeError(
                    f"silent float64->float32 downcast inside "
                    f"{_downcast_guard.label}; pass dtype= explicitly "
                    f"(dtype=np.float64 to keep the wide grid)"
                )
            array = array.astype(_DEFAULT_DTYPE)
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._ctx: Optional[autograd.Function] = None
        self._retain_grad: bool = False

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        return self._ctx is None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_note})"

    # -- gradient plumbing ----------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (see :func:`autograd.backward`)."""
        autograd.backward(self, grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def retain_grad(self) -> "Tensor":
        """Request that ``.grad`` be kept for this non-leaf tensor."""
        self._retain_grad = True
        return self

    def detach(self) -> "Tensor":
        """Return a view of the data cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        """Return a copy that participates in the graph (identity op)."""
        from . import functional as F

        return F.identity(self)

    # -- conversions ------------------------------------------------------------
    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); detached from autograd."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item(self)

    def astype(self, dtype: np.dtype) -> "Tensor":
        """Return a detached copy cast to ``dtype``."""
        return Tensor(self.data.astype(dtype), requires_grad=False,
                      dtype=dtype)

    # NumPy interop: allow np.asarray(tensor).
    def __array__(self, dtype=None) -> np.ndarray:
        return self.data.astype(dtype) if dtype is not None else self.data


def _raise_item(t: Tensor) -> float:
    raise ValueError(f"item() requires a single-element tensor, got shape {t.shape}")


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor`, passing Tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)
