"""The linear quantizer of the paper (Eq. 10) and a learnable-step variant.

Eq. 10:  ``A_q = S_a * round(A / S_a)``, with ``S_a = A_range / (2^q - 1)``
where ``A_range`` is the dynamic range (max - min) of the tensor being
quantized.  Both weights and activations are quantized this way.

The paper notes that *learnable* quantizers are unstable when the encoder is
switched between precisions every iteration, which is why the fixed linear
quantizer is adopted; we ship :class:`LearnableQuantizer` as well so that
the instability claim can be examined (see the quantizer ablation bench).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..nn.autograd import Function
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor, as_tensor

__all__ = [
    "linear_quantize",
    "linear_quantize_per_view",
    "linear_quantize_per_channel",
    "linear_quantize_static",
    "integer_quantization_params",
    "quantize_to_int",
    "LinearQuantizer",
    "LearnableQuantizer",
]


def quantization_step(a_min: float, a_max: float, bits: int) -> float:
    """Step size ``S = A_range / (2^q - 1)`` from Eq. 10."""
    if bits < 1:
        raise ValueError(f"bit-width must be >= 1, got {bits}")
    a_range = float(a_max) - float(a_min)
    return a_range / (2.0 ** bits - 1.0)


def linear_quantize(
    array: np.ndarray,
    bits: int,
    a_min: Optional[float] = None,
    a_max: Optional[float] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply Eq. 10 to a raw numpy array (no autograd).

    The dynamic range defaults to the array's own min/max, matching the
    paper's per-tensor dynamic quantization.  A constant array (zero range)
    is returned unchanged — there is nothing to quantize.  ``out``, when
    given, receives the result and is returned: each stage of Eq. 10 is
    staged through it, with the same rounding as the allocating form
    (a Python-float step never widens a float32 array).
    """
    array = np.asarray(array)
    lo = float(array.min()) if a_min is None else float(a_min)
    hi = float(array.max()) if a_max is None else float(a_max)
    step = quantization_step(lo, hi, bits)
    if step == 0.0 or not math.isfinite(step):
        if out is None:
            return array.copy()
        np.copyto(out, array)
        return out
    q = np.divide(array, step, out=out)
    q = np.multiply(np.round(q, out=out), step, out=out)
    return q if out is not None else q.astype(array.dtype, copy=False)


def linear_quantize_per_channel(
    array: np.ndarray, bits: int, axis: int = 0
) -> np.ndarray:
    """Per-channel Eq. 10: an independent dynamic range per slice of ``axis``.

    Standard practice for convolution weights (each output filter gets its
    own step size), offered as an extension beyond the paper's per-tensor
    scheme; see the per-channel ablation bench.
    """
    array = np.asarray(array)
    if not -array.ndim <= axis < array.ndim:
        raise ValueError(f"axis {axis} out of range for ndim {array.ndim}")
    if bits < 1:
        raise ValueError(f"bit-width must be >= 1, got {bits}")
    reduce_axes = tuple(i for i in range(array.ndim) if i != axis % array.ndim)
    lo = array.min(axis=reduce_axes, keepdims=True)
    hi = array.max(axis=reduce_axes, keepdims=True)
    step = (hi - lo) / (2.0 ** bits - 1.0)
    safe_step = np.where(step == 0.0, 1.0, step)
    quantized = safe_step * np.round(array / safe_step)
    return np.where(step == 0.0, array, quantized).astype(array.dtype)


def linear_quantize_per_view(
    array: np.ndarray, bits: int, views: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Eq. 10 applied independently to each of ``views`` equal batch chunks.

    A fused multi-view batch (two augmented views concatenated along axis 0)
    must quantize each view with *its own* dynamic range, otherwise the
    fused forward would differ from two separate forwards.  Chunk ``v`` of
    the result is bit-for-bit ``linear_quantize(array[v], bits)``.  ``out``
    as in :func:`linear_quantize`.
    """
    array = np.asarray(array)
    if views < 1:
        raise ValueError(f"views must be >= 1, got {views}")
    if views == 1:
        return linear_quantize(array, bits, out=out)
    n = array.shape[0]
    if n % views != 0:
        raise ValueError(
            f"batch of {n} samples does not split into {views} equal views"
        )
    chunk = n // views
    if out is None:
        out = np.empty_like(array)
    for v in range(views):
        sl = slice(v * chunk, (v + 1) * chunk)
        linear_quantize(array[sl], bits, out=out[sl])
    return out


def integer_quantization_params(
    a_min: float, a_max: float, bits: int
) -> Tuple[float, int, int]:
    """Integer grid of the Eq. 10 quantizer over a *fixed* range.

    Returns ``(step, q_lo, q_hi)`` such that representable values are
    ``step * n`` for integer codes ``n`` in ``[q_lo, q_hi]`` with exactly
    ``2^bits`` codes.  A degenerate range (``a_min == a_max`` or a
    non-finite step) is signalled by ``step == 0.0``.
    """
    step = quantization_step(a_min, a_max, bits)
    if step == 0.0 or not math.isfinite(step):
        return 0.0, 0, 0
    q_lo = int(round(float(a_min) / step))
    return step, q_lo, q_lo + 2 ** bits - 1


def quantize_to_int(
    array: np.ndarray, bits: int, a_min: float, a_max: float
) -> Tuple[np.ndarray, float, int]:
    """Quantize to integer codes over a fixed calibrated range.

    Unlike :func:`linear_quantize` (dynamic range, never clips), the
    static form clips to the calibrated ``[a_min, a_max]`` grid — the
    deployment semantics of the integer engine, where codes must fit the
    ``2^bits`` storage grid.  Returns ``(codes, step, q_lo)`` with
    ``codes`` int64; dequantization is ``step * codes``.  A degenerate
    range yields all-zero codes with ``step == 0.0`` (the caller decides
    how to represent the constant).
    """
    array = np.asarray(array)
    step, q_lo, q_hi = integer_quantization_params(a_min, a_max, bits)
    if step == 0.0:
        return np.zeros(array.shape, dtype=np.int64), 0.0, 0
    codes = np.clip(np.round(array / step), q_lo, q_hi).astype(np.int64)
    return codes, step, q_lo


def linear_quantize_static(
    array: np.ndarray, bits: int, a_min: float, a_max: float
) -> np.ndarray:
    """Eq. 10 over a fixed calibrated range, with clipping.

    Bit-for-bit the dequantization of :func:`quantize_to_int`, so a
    fake-quantized reference forward using this function matches the
    integer engine's requantized output up to float rounding in the GEMM.
    """
    array = np.asarray(array)
    codes, step, _ = quantize_to_int(array, bits, a_min, a_max)
    if step == 0.0:
        return np.full_like(array, a_min)
    return (step * codes).astype(array.dtype)


class _FakeQuantSTE(Function):
    """Quantized forward, straight-through (identity) backward.

    The dynamic range always covers the tensor's values, so no clipping
    occurs and the straight-through gradient needs no mask.
    """

    def forward(self, a, bits, a_min=None, a_max=None, out=None):
        return linear_quantize(a, bits, a_min, a_max, out=out)

    def backward(self, grad):
        return (grad,)


class _FakeQuantStaticSTE(Function):
    """Static-range (clipping) quantized forward, straight-through backward.

    Used for deployment-semantics forwards (frozen observer ranges); the
    straight-through gradient is unmasked to match the repo's Eq. 10 STE
    convention — frozen-range forwards are an inference construct, not a
    training path.
    """

    def forward(self, a, bits, a_min, a_max):
        return linear_quantize_static(a, bits, a_min, a_max)

    def backward(self, grad):
        return (grad,)


class _FakeQuantPerChannelSTE(Function):
    """Per-channel quantized forward, straight-through backward."""

    def forward(self, a, bits, axis=0):
        return linear_quantize_per_channel(a, bits, axis)

    def backward(self, grad):
        return (grad,)


class _FakeQuantPerViewSTE(Function):
    """Per-view-chunk quantized forward, straight-through backward."""

    def forward(self, a, bits, views, out=None):
        return linear_quantize_per_view(a, bits, views, out=out)

    def backward(self, grad):
        return (grad,)


class LinearQuantizer:
    """Callable quantizer object implementing the paper's scheme with STE.

    Parameters
    ----------
    observer:
        Optional range observer (see :mod:`repro.quant.observer`).  When
        None, the dynamic range is recomputed from each tensor (the paper's
        configuration).
    """

    def __init__(self, observer=None) -> None:
        self.observer = observer

    def __call__(self, tensor: Tensor, bits: Optional[int]) -> Tensor:
        """Fake-quantize ``tensor`` to ``bits``; identity when bits is None."""
        if bits is None:
            return as_tensor(tensor)
        tensor = as_tensor(tensor)
        if self.observer is not None:
            lo, hi = self.observer.update(tensor.data)
        else:
            lo = hi = None
        return _FakeQuantSTE.apply(tensor, bits=bits, a_min=lo, a_max=hi)

    def __repr__(self) -> str:
        return f"LinearQuantizer(observer={self.observer!r})"


class _LearnableQuantSTE(Function):
    """LSQ-style quantization with a learnable step size.

    ``x_q = s * round(clip(x / s, qmin, qmax))``; the input gradient is
    straight-through inside the clip range, and the step-size gradient
    follows the LSQ estimator: ``round(v) - v`` for in-range values and the
    clip bound for clipped values.
    """

    def forward(self, a, step, bits):
        qmax = 2.0 ** (bits - 1) - 1.0
        qmin = -(2.0 ** (bits - 1))
        raw = float(np.asarray(step).reshape(-1)[0])
        self.sign = -1.0 if raw < 0 else 1.0
        s = max(abs(raw), 1e-8)
        v = a / s
        self.in_range = (v >= qmin) & (v <= qmax)
        clipped = np.clip(v, qmin, qmax)
        rounded = np.round(clipped)
        self.step_grad_terms = np.where(self.in_range, rounded - v, clipped)
        return (s * rounded).astype(a.dtype)

    def backward(self, grad):
        grad_x = grad * self.in_range
        grad_s = np.sum(grad * self.step_grad_terms) * self.sign
        return grad_x, np.asarray([grad_s], dtype=np.float32)


class LearnableQuantizer(Module):
    """Learnable-step quantizer module (ablation; unstable per the paper)."""

    def __init__(self, init_step: float = 0.05) -> None:
        super().__init__()
        if init_step <= 0:
            raise ValueError(f"init_step must be positive, got {init_step}")
        self.step = Parameter(np.array([init_step], dtype=np.float32))

    def forward(self, x: Tensor, bits: Optional[int]) -> Tensor:
        if bits is None:
            return as_tensor(x)
        return _LearnableQuantSTE.apply(as_tensor(x), self.step, bits=bits)


def quantization_error(array: np.ndarray, bits: int) -> Tuple[float, float]:
    """Return (max-abs, rms) quantization error of Eq. 10 at ``bits``."""
    q = linear_quantize(array, bits)
    err = np.abs(np.asarray(array, dtype=np.float64) - q)
    return float(err.max()), float(np.sqrt(np.mean(err ** 2)))
