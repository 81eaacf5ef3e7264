"""Reduction operations (sum, mean, max, logsumexp)."""

from __future__ import annotations

import math

import numpy as np

from ..autograd import Function


def _normalize_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_for_broadcast(grad, in_shape, axes, keepdims):
    """Reshape a reduced gradient so it broadcasts back to ``in_shape``."""
    if not keepdims:
        shape = list(in_shape)
        for a in axes:
            shape[a] = 1
        grad = grad.reshape(shape)
    return grad


class Sum(Function):
    def forward(self, a, axis=None, keepdims=False, out=None):
        self.in_shape = a.shape
        self.axes = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        return np.sum(a, axis=self.axes, keepdims=keepdims, out=out)

    def backward(self, grad):
        grad = _expand_for_broadcast(grad, self.in_shape, self.axes, self.keepdims)
        return (np.broadcast_to(grad, self.in_shape).copy(),)


class Mean(Function):
    def forward(self, a, axis=None, keepdims=False, out=None):
        self.in_shape = a.shape
        self.axes = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        self.count = math.prod(a.shape[ax] for ax in self.axes)
        # For float arrays this is np.mean's own arithmetic (sum, then
        # divide by the count) without its Python-level wrapper, which
        # dominates the cost of small reductions.
        total = np.sum(a, axis=self.axes, keepdims=keepdims, out=out)
        return np.divide(total, self.count, out=out)

    def backward(self, grad):
        grad = _expand_for_broadcast(grad, self.in_shape, self.axes, self.keepdims)
        return (np.broadcast_to(grad / self.count, self.in_shape).copy(),)


class Max(Function):
    """Max reduction; gradient flows to the (first) maximal elements."""

    def forward(self, a, axis=None, keepdims=False):
        self.a = a
        self.axes = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        self.out = a.max(axis=self.axes, keepdims=True)
        return self.out if keepdims else np.squeeze(self.out, axis=self.axes)

    def backward(self, grad):
        grad = _expand_for_broadcast(grad, self.a.shape, self.axes, self.keepdims)
        mask = self.a == self.out
        counts = mask.sum(axis=self.axes, keepdims=True)
        return (np.broadcast_to(grad, self.a.shape) * mask / counts,)


class Min(Function):
    def forward(self, a, axis=None, keepdims=False):
        self.a = a
        self.axes = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        self.out = a.min(axis=self.axes, keepdims=True)
        return self.out if keepdims else np.squeeze(self.out, axis=self.axes)

    def backward(self, grad):
        grad = _expand_for_broadcast(grad, self.a.shape, self.axes, self.keepdims)
        mask = self.a == self.out
        counts = mask.sum(axis=self.axes, keepdims=True)
        return (np.broadcast_to(grad, self.a.shape) * mask / counts,)


class LogSumExp(Function):
    """Numerically stable logsumexp reduction over ``axis``."""

    def forward(self, a, axis=-1, keepdims=False):
        self.axes = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        self.in_shape = a.shape
        a_max = a.max(axis=self.axes, keepdims=True)
        shifted = a - a_max
        sum_exp = np.exp(shifted).sum(axis=self.axes, keepdims=True)
        out = a_max + np.log(sum_exp)
        self.softmax = np.exp(shifted) / sum_exp
        return out if keepdims else np.squeeze(out, axis=self.axes)

    def backward(self, grad):
        grad = _expand_for_broadcast(grad, self.in_shape, self.axes, self.keepdims)
        return (np.broadcast_to(grad, self.in_shape) * self.softmax,)
