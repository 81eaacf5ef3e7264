"""Elementwise differentiable operations (arithmetic and pointwise maps)."""

from __future__ import annotations

import numpy as np

from ..autograd import Function, unbroadcast


class Add(Function):
    def forward(self, a, b, out=None):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return np.add(a, b, out=out)

    def backward(self, grad):
        grads = []
        if self.needs_input_grad and self.needs_input_grad[0]:
            grads.append(unbroadcast(grad, self.a_shape))
        else:
            grads.append(None)
        if len(self.parents) > 1:
            if self.needs_input_grad[1]:
                grads.append(unbroadcast(grad, self.b_shape))
            else:
                grads.append(None)
        return tuple(grads)


class Sub(Function):
    def forward(self, a, b, out=None):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return np.subtract(a, b, out=out)

    def backward(self, grad):
        grads = [unbroadcast(grad, self.a_shape)]
        if len(self.parents) > 1:
            grads.append(unbroadcast(-grad, self.b_shape))
        return tuple(grads)


class RSub(Function):
    """scalar - tensor (the tensor is the only differentiable input)."""

    def forward(self, a, scalar):
        self.a_shape = np.shape(a)
        return scalar - a

    def backward(self, grad):
        return (unbroadcast(-grad, self.a_shape),)


class Mul(Function):
    def forward(self, a, b, out=None):
        self.a, self.b = a, b
        return np.multiply(a, b, out=out)

    def backward(self, grad):
        grads = [unbroadcast(grad * self.b, np.shape(self.a))]
        if len(self.parents) > 1:
            grads.append(unbroadcast(grad * self.a, np.shape(self.b)))
        return tuple(grads)


class Div(Function):
    def forward(self, a, b, out=None):
        self.a, self.b = a, b
        return np.divide(a, b, out=out)

    def backward(self, grad):
        grads = [unbroadcast(grad / self.b, np.shape(self.a))]
        if len(self.parents) > 1:
            grads.append(
                unbroadcast(-grad * self.a / (self.b * self.b), np.shape(self.b))
            )
        return tuple(grads)


class RDiv(Function):
    """scalar / tensor."""

    def forward(self, a, scalar):
        self.a, self.scalar = a, scalar
        return scalar / a

    def backward(self, grad):
        return (unbroadcast(-grad * self.scalar / (self.a * self.a), np.shape(self.a)),)


class Neg(Function):
    def forward(self, a, out=None):
        return np.negative(a, out=out)

    def backward(self, grad):
        return (-grad,)


class Pow(Function):
    """tensor ** exponent for a constant scalar exponent."""

    def forward(self, a, exponent, out=None):
        self.a, self.exponent = a, exponent
        return np.power(a, exponent, out=out)

    def backward(self, grad):
        return (grad * self.exponent * self.a ** (self.exponent - 1),)


class Exp(Function):
    def forward(self, a, out=None):
        self.out = np.exp(a, out=out)
        return self.out

    def backward(self, grad):
        return (grad * self.out,)


class Log(Function):
    def forward(self, a, out=None):
        self.a = a
        return np.log(a, out=out)

    def backward(self, grad):
        return (grad / self.a,)


class Sqrt(Function):
    def forward(self, a, out=None):
        self.out = np.sqrt(a, out=out)
        return self.out

    def backward(self, grad):
        return (grad / (2.0 * self.out),)


class Abs(Function):
    def forward(self, a):
        self.sign = np.sign(a)
        return np.abs(a)

    def backward(self, grad):
        return (grad * self.sign,)


class Clip(Function):
    """Clamp; gradients flow only through the un-clipped region."""

    def forward(self, a, low, high):
        self.mask = (a >= low) & (a <= high)
        return np.clip(a, low, high)

    def backward(self, grad):
        return (grad * self.mask,)


class Maximum(Function):
    """Elementwise maximum of two tensors (ties split evenly)."""

    def forward(self, a, b, out=None):
        self.a, self.b = a, b
        return np.maximum(a, b, out=out)

    def backward(self, grad):
        a_wins = self.a > self.b
        tie = self.a == self.b
        ga = grad * (a_wins + 0.5 * tie)
        gb = grad * (~a_wins & ~tie) + grad * 0.5 * tie
        grads = [unbroadcast(ga, np.shape(self.a))]
        if len(self.parents) > 1:
            grads.append(unbroadcast(gb, np.shape(self.b)))
        return tuple(grads)


class Identity(Function):
    def forward(self, a, out=None):
        if out is None:
            out = np.empty(np.shape(a), dtype=np.result_type(a))
        np.copyto(out, a)
        return out

    def backward(self, grad):
        return (grad,)


class Relu(Function):
    def forward(self, a, out=None):
        mask = self.scratch(out is not None, "mask", np.shape(a), bool)
        self.mask = np.greater(a, 0, out=mask)
        return np.multiply(a, mask, out=out)

    def backward(self, grad):
        return (grad * self.mask,)


class Relu6(Function):
    def forward(self, a):
        self.mask = (a > 0) & (a < 6.0)
        return np.clip(a, 0.0, 6.0)

    def backward(self, grad):
        return (grad * self.mask,)


class LeakyRelu(Function):
    def forward(self, a, negative_slope=0.01):
        self.mask = a > 0
        self.negative_slope = negative_slope
        return np.where(self.mask, a, negative_slope * a)

    def backward(self, grad):
        return (np.where(self.mask, grad, self.negative_slope * grad),)


class Sigmoid(Function):
    def forward(self, a):
        self.out = 1.0 / (1.0 + np.exp(-a))
        return self.out

    def backward(self, grad):
        return (grad * self.out * (1.0 - self.out),)


class Tanh(Function):
    def forward(self, a, out=None):
        self.out = np.tanh(a, out=out)
        return self.out

    def backward(self, grad):
        return (grad * (1.0 - self.out * self.out),)
