"""Fused elementwise chains used by the tracing engine's plan compiler.

Each fused op composes the *exact* arithmetic of its constituent ops in
their original order — fusion here means one graph node (one dispatch,
no intermediate Tensor, temporaries from :meth:`Function.scratch`)
rather than a new arithmetic kernel, which is what keeps replayed plans
byte-identical to eager execution.  The backward methods replay the
constituent backward formulas verbatim, innermost-last, so gradient
bytes match too.

These are registered alongside the primitives so they can also be used
directly (they are ordinary :class:`Function` subclasses); the engine's
fusion pass only substitutes them where the interior value has a single
consumer and is not itself a requested output.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Function, unbroadcast

__all__ = ["FusedMulAdd", "FusedAddRelu", "FusedMulAddRelu"]


def _scaled(ctx, a, b, c, out):
    """``a * b`` (into kept scratch on replay), stashing the Mul/Add state."""
    ctx.a, ctx.b = a, b
    ctx.mul_shape = np.broadcast(a, b).shape
    ctx.c_shape = np.shape(c)
    tmp = ctx.scratch(
        out is not None, "mul", ctx.mul_shape, np.result_type(a, b)
    )
    return np.multiply(a, b, out=tmp)


def _relu_into(ctx, s, out):
    """``relu(s)`` written over ``s`` itself, stashing the Relu mask."""
    mask = ctx.scratch(out is not None, "mask", s.shape, bool)
    ctx.mask = np.greater(s, 0, out=mask)
    return np.multiply(s, mask, out=s)


class FusedMulAdd(Function):
    """``(a * b) + c`` — the norm/affine tail (scale then shift)."""

    def forward(self, a, b, c, out=None):
        mul = _scaled(self, a, b, c, out)
        return np.add(mul, c, out=out)

    def backward(self, grad):
        # Add.backward first (outermost), then Mul.backward — the same
        # formulas eager runs at the two original schedule positions.
        g_mul = unbroadcast(grad, self.mul_shape)
        grads = [
            unbroadcast(g_mul * self.b, np.shape(self.a)),
            unbroadcast(g_mul * self.a, np.shape(self.b)),
            unbroadcast(grad, self.c_shape),
        ]
        return tuple(grads[: len(self.parents)])


class FusedAddRelu(Function):
    """``relu(a + b)`` — residual-join + activation."""

    def forward(self, a, b, out=None):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return _relu_into(self, np.add(a, b, out=out), out)

    def backward(self, grad):
        g = grad * self.mask
        grads = [unbroadcast(g, self.a_shape)]
        if len(self.parents) > 1:
            grads.append(unbroadcast(g, self.b_shape))
        return tuple(grads)


class FusedMulAddRelu(Function):
    """``relu((a * b) + c)`` — affine tail feeding an activation."""

    def forward(self, a, b, c, out=None):
        mul = _scaled(self, a, b, c, out)
        return _relu_into(self, np.add(mul, c, out=out), out)

    def backward(self, grad):
        g = grad * self.mask
        g_mul = unbroadcast(g, self.mul_shape)
        grads = [
            unbroadcast(g_mul * self.b, np.shape(self.a)),
            unbroadcast(g_mul * self.a, np.shape(self.b)),
            unbroadcast(g, self.c_shape),
        ]
        return tuple(grads[: len(self.parents)])
