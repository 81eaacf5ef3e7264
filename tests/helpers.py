"""Shared test utilities: numerical gradient checking and references."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.tensor import Tensor


def numerical_gradients(
    func: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    eps: float = 1e-6,
):
    """Central-difference gradients of a scalar-valued ``func``.

    ``func`` must recompute from the current ``tensor.data`` each call so
    perturbations are observed.
    """
    grads = []
    for tensor in tensors:
        grad = np.zeros_like(tensor.data, dtype=np.float64)
        flat = tensor.data.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = float(func().data)
            flat[i] = original - eps
            minus = float(func().data)
            flat[i] = original
            grad.reshape(-1)[i] = (plus - minus) / (2 * eps)
        grads.append(grad)
    return grads


def check_gradients(
    func: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    atol: float = 1e-5,
    rtol: float = 1e-4,
    eps: float = 1e-6,
) -> None:
    """Assert autograd gradients match central differences.

    Tensors should be float64 for the comparison to be meaningful.
    """
    for tensor in tensors:
        tensor.zero_grad()
    out = func()
    assert out.data.size == 1, "gradient check requires a scalar output"
    out.backward()
    numeric = numerical_gradients(func, tensors, eps=eps)
    for tensor, expected in zip(tensors, numeric):
        assert tensor.grad is not None, "missing gradient after backward()"
        np.testing.assert_allclose(
            tensor.grad.astype(np.float64), expected, atol=atol, rtol=rtol
        )


def gradcheck(
    func: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    atol: float = 1e-5,
    rtol: float = 1e-4,
    eps: float = 1e-6,
) -> None:
    """Numerical gradient check for a ``func`` of any output shape.

    Non-scalar outputs are scalarized as ``sum(out * out)``, which feeds a
    non-uniform upstream gradient into the op under test (a plain ``sum``
    would mask bugs that only show with varying ``grad_output``).  This is
    the promoted form of the per-module ``test_gradcheck`` pattern.
    """
    from repro.nn import functional as F

    def scalarized() -> Tensor:
        out = func()
        return F.sum(out * out)

    check_gradients(scalarized, tensors, atol=atol, rtol=rtol, eps=eps)


def tensor64(array, requires_grad: bool = True) -> Tensor:
    """Float64 tensor for numerically tight gradient checks."""
    return Tensor(np.asarray(array, dtype=np.float64), requires_grad=requires_grad,
                  dtype=np.float64)


def conv2d_reference(x, weight, bias, stride, padding, groups=1):
    """Naive loop conv2d used as ground truth for the im2col implementation."""
    n, c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, oh, ow), dtype=x.dtype)
    group_in = c_in // groups
    group_out = c_out // groups
    for b in range(n):
        for oc in range(c_out):
            g = oc // group_out
            for i in range(oh):
                for j in range(ow):
                    patch = xp[
                        b,
                        g * group_in : (g + 1) * group_in,
                        i * sh : i * sh + kh,
                        j * sw : j * sw + kw,
                    ]
                    out[b, oc, i, j] = np.sum(patch * weight[oc])
            if bias is not None:
                out[b, oc] += bias[oc]
    return out


def conv2d_grads_reference(x, weight, grad, stride, padding, groups=1):
    """Naive loop gradients of conv2d: ``(grad_x, grad_w, grad_b)``.

    ``grad`` is the upstream gradient of :func:`conv2d_reference`'s
    output; every output position's patch is visited once and its
    products accumulated by hand, with no GEMM or einsum.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(weight)
    group_out = c_out // groups
    for b in range(n):
        for oc in range(c_out):
            g = oc // group_out
            chans = slice(g * c_in_g, (g + 1) * c_in_g)
            for i in range(grad.shape[2]):
                for j in range(grad.shape[3]):
                    rows = slice(i * sh, i * sh + kh)
                    cols = slice(j * sw, j * sw + kw)
                    up = grad[b, oc, i, j]
                    grad_w[oc] += up * xp[b, chans, rows, cols]
                    grad_xp[b, chans, rows, cols] += up * weight[oc]
    grad_x = grad_xp[:, :, ph : ph + h, pw : pw + w]
    return grad_x, grad_w, grad.sum(axis=(0, 2, 3))
