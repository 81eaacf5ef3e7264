"""2-D convolution via im2col, with stride, padding, and groups support.

The im2col buffer is batch-inner: ``(groups, k, N * OH * OW)`` with
``k = C_in/groups * kh * kw``, so every image's patches for one group sit
side by side in one matrix.  Against the weight viewed as
``(groups, C_out/groups, k)`` that makes each backward product one GEMM per
group over all images and positions:

- ``grad_w = grad_t @ cols.T``, where ``grad_t`` is the upstream grad
  copied once into ``(groups, C_out/groups, N * OH * OW)``;
- ``grad_cols = w.T @ grad_t``, scattered back by :func:`_col2im`.

The forward writes straight into the ``(N, C_out, OH, OW)`` output through
a strided batched matmul over the same buffer (each image's columns are a
BLAS-compatible strided slice).  :func:`_im2col` and :func:`_col2im` work on
``(N, C, kh, kw, OH, OW)`` views, which for this buffer are transposes.
Depthwise convolution (MobileNetV2) is therefore a grouped GEMM rather
than a Python loop over channels.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..autograd import Function


def conv2d_output_shape(
    in_size: Tuple[int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[int, int]:
    """Spatial output size of a conv/pool with the given geometry."""
    oh = (in_size[0] + 2 * padding[0] - kernel_size[0]) // stride[0] + 1
    ow = (in_size[1] + 2 * padding[1] - kernel_size[1]) // stride[1] + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"convolution output would be empty: input {in_size}, "
            f"kernel {kernel_size}, stride {stride}, padding {padding}"
        )
    return oh, ow


def _im2col(
    x: np.ndarray, kh: int, kw: int, sh: int, sw: int, out: np.ndarray
) -> np.ndarray:
    """Copy the patches of padded ``x`` into ``out`` (N, C, kh, kw, OH, OW)."""
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]  # (N, C, OH, OW, kh, kw)
    np.copyto(out, windows.transpose(0, 1, 4, 5, 2, 3))
    return out


def _col2im(
    cols: np.ndarray, kh: int, kw: int, sh: int, sw: int, out: np.ndarray
) -> np.ndarray:
    """Scatter-add patches (N, C, kh, kw, OH, OW) into ``out`` (N, C, H, W).

    ``out`` is zeroed first, so whatever it held is overwritten.
    """
    out.fill(0)
    oh, ow = cols.shape[4], cols.shape[5]
    for i in range(kh):
        h_end = i + sh * oh
        for j in range(kw):
            w_end = j + sw * ow
            out[:, :, i:h_end:sh, j:w_end:sw] += cols[:, :, i, j]
    return out


def _image_view(
    cols: np.ndarray, n: int, kh: int, kw: int, oh: int, ow: int
) -> np.ndarray:
    """The batch-inner ``(g, k, N*OH*OW)`` buffer as (N, C, kh, kw, OH, OW).

    A transposed view (never a copy), so :func:`_im2col` writes and
    :func:`_col2im` reads the buffer itself.
    """
    return cols.reshape(-1, kh, kw, n, oh, ow).transpose(3, 0, 1, 2, 4, 5)


class Conv2d(Function):
    """Grouped 2-D cross-correlation (deep-learning ``conv``)."""

    def forward(
        self, x, weight, bias=None, stride=(1, 1), padding=(0, 0), groups=1,
        out=None,
    ):
        self.stride, self.padding, self.groups = stride, padding, groups
        self.has_bias = bias is not None
        self.x_shape = x.shape
        self.keep = keep = out is not None
        n, c_in, h, w = x.shape
        c_out, c_in_g, kh, kw = weight.shape
        if c_in != c_in_g * groups:
            raise ValueError(
                f"input channels {c_in} incompatible with weight "
                f"{weight.shape} and groups={groups}"
            )
        ph, pw = padding
        oh, ow = conv2d_output_shape((h, w), (kh, kw), stride, padding)
        if ph or pw:
            # Zero padding: a zeroed frame whose interior is overwritten
            # (a kept frame's border stays zero across replays).
            xp = self.scratch(
                keep, "padded", (n, c_in, h + 2 * ph, w + 2 * pw), x.dtype,
                zeros=True,
            )
            xp[:, :, ph : ph + h, pw : pw + w] = x
            x = xp
        self.padded_shape = x.shape

        k, p = c_in_g * kh * kw, oh * ow
        cols = self.scratch(keep, "cols", (groups, k, n * p), x.dtype)
        _im2col(x, kh, kw, *stride, out=_image_view(cols, n, kh, kw, oh, ow))
        w_mat = weight.reshape(groups, c_out // groups, k)
        if out is None:
            out = np.empty(
                (n, c_out, oh, ow), dtype=np.result_type(weight, cols)
            )
        # (N, g, C_out/g, OH*OW), written straight into the output; image
        # n's columns are the strided slice cols[:, :, n*P:(n+1)*P].
        np.matmul(
            w_mat[None], cols.reshape(groups, k, n, p).transpose(2, 0, 1, 3),
            out=out.reshape(n, groups, c_out // groups, p),
        )
        if bias is not None:
            np.add(out, bias.reshape(1, c_out, 1, 1), out=out)
        self.cols = cols
        self.weight = weight
        return out

    def backward(self, grad):
        n, c_out, oh, ow = grad.shape
        groups = self.groups
        c_out_g = c_out // groups
        kh, kw = self.weight.shape[2], self.weight.shape[3]
        k = self.weight.shape[1] * kh * kw
        p = oh * ow
        sh, sw = self.stride
        ph, pw = self.padding
        keep = self.keep

        # The upstream grad, batch-inner like the columns: (g, C_out/g, N*P).
        grad_t = self.scratch(keep, "grad_t", (groups, c_out_g, n * p),
                              grad.dtype)
        np.copyto(
            grad_t.reshape(groups, c_out_g, n, p),
            grad.reshape(n, groups, c_out_g, p).transpose(1, 2, 0, 3),
        )

        # dL/dW: one GEMM per group over all images and positions.
        grad_w = np.matmul(
            grad_t, self.cols.transpose(0, 2, 1),
            out=self.scratch(keep, "grad_w", (groups, c_out_g, k),
                             np.result_type(grad, self.cols)),
        ).reshape(self.weight.shape)

        # dL/dcols -> dL/dx via col2im.
        w_mat = self.weight.reshape(groups, c_out_g, k)
        grad_cols = np.matmul(
            w_mat.transpose(0, 2, 1), grad_t,
            out=self.scratch(keep, "grad_cols", (groups, k, n * p),
                             np.result_type(self.weight, grad)),
        )
        grad_x = _col2im(
            _image_view(grad_cols, n, kh, kw, oh, ow), kh, kw, sh, sw,
            out=self.scratch(keep, "grad_x", self.padded_shape,
                             grad_cols.dtype),
        )
        if ph or pw:
            h, w = self.x_shape[2], self.x_shape[3]
            grad_x = grad_x[:, :, ph : ph + h, pw : pw + w]

        grads = [grad_x, grad_w]
        if self.has_bias:
            grads.append(grad.sum(axis=(0, 2, 3)))
        # The im2col buffer is the largest saved activation on deep models
        # (C_in * kh * kw * OH * OW floats per image); the engine calls
        # backward once per node, so drop it as soon as the grads exist
        # (a plan's ctx keeps its scratch copy for the next replay).
        self.cols = None
        return tuple(grads[: len(self.parents)])
