"""Shape-manipulation operations (reshape, transpose, slicing, concat, pad)."""

from __future__ import annotations

import numpy as np

from ..autograd import Function


class Reshape(Function):
    def forward(self, a, shape):
        self.in_shape = a.shape
        return a.reshape(shape)

    def backward(self, grad):
        return (grad.reshape(self.in_shape),)


class Transpose(Function):
    """Axis permutation (numpy ``transpose`` semantics)."""

    def forward(self, a, axes=None):
        self.axes = tuple(axes) if axes is not None else tuple(
            reversed(range(a.ndim))
        )
        return np.transpose(a, self.axes)

    def backward(self, grad):
        inverse = np.argsort(self.axes)
        return (np.transpose(grad, inverse),)


class GetItem(Function):
    """Basic and advanced indexing; backward scatters with accumulation."""

    def forward(self, a, index):
        self.in_shape = a.shape
        self.index = index
        return a[index]

    def backward(self, grad):
        out = np.zeros(self.in_shape, dtype=grad.dtype)
        np.add.at(out, self.index, grad)
        return (out,)


class Concat(Function):
    """Concatenate tensors along ``axis``."""

    def forward(self, *arrays, axis=0, out=None):
        self.axis = axis
        self.sizes = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis, out=out)

    def backward(self, grad):
        splits = np.cumsum(self.sizes)[:-1]
        return tuple(np.split(grad, splits, axis=self.axis))


class Stack(Function):
    """Stack tensors along a new axis."""

    def forward(self, *arrays, axis=0):
        self.axis = axis
        return np.stack(arrays, axis=axis)

    def backward(self, grad):
        parts = np.split(grad, grad.shape[self.axis], axis=self.axis)
        return tuple(np.squeeze(p, axis=self.axis) for p in parts)


class Pad(Function):
    """Zero padding with numpy ``pad_width`` semantics."""

    def forward(self, a, pad_width):
        self.pad_width = pad_width
        return np.pad(a, pad_width, mode="constant")

    def backward(self, grad):
        slices = tuple(
            slice(before, grad.shape[i] - after)
            for i, (before, after) in enumerate(self.pad_width)
        )
        return (grad[slices],)


class BroadcastTo(Function):
    def forward(self, a, shape):
        self.in_shape = a.shape
        return np.broadcast_to(a, shape).copy()

    def backward(self, grad):
        from ..autograd import unbroadcast

        return (unbroadcast(grad, self.in_shape),)
