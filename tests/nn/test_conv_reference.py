"""Conv2d's batch-inner im2col kernel against direct-loop float64 math.

The forward and all three gradients of :class:`repro.nn._ops.conv.Conv2d`
are checked against :func:`tests.helpers.conv2d_reference` and
:func:`tests.helpers.conv2d_grads_reference`, which visit every output
position by hand.  Each geometry runs eagerly and through the ``out=``
path a compiled plan takes (kept scratch, a NaN-filled output handed in,
called twice so the second call reuses every kept array).
"""

import numpy as np
import pytest

from repro.nn._ops.conv import Conv2d, conv2d_output_shape

from ..helpers import conv2d_grads_reference, conv2d_reference

#: id -> (N, C_in, C_out, (H, W), (kh, kw), stride, padding, groups, bias)
GEOMETRIES = {
    "dense": (2, 4, 6, (7, 7), (3, 3), (1, 1), (0, 0), 1, True),
    "grouped-strided-padded": (3, 4, 6, (6, 9), (3, 3), (2, 2), (1, 1), 2,
                               True),
    "depthwise-nobias": (2, 4, 4, (5, 7), (3, 3), (1, 1), (1, 1), 4, False),
    "depthwise-multiplier": (2, 4, 8, (5, 7), (3, 3), (2, 1), (1, 1), 4,
                             True),
    "single-image-rect-kernel": (1, 3, 5, (8, 6), (3, 2), (2, 2), (0, 1), 1,
                                 False),
    "single-image-pointwise-grouped": (1, 6, 6, (4, 5), (1, 1), (1, 1),
                                       (0, 0), 3, True),
}


def make_case(geometry, seed=7):
    n, c_in, c_out, hw, kernel, stride, padding, groups, bias = geometry
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c_in) + hw)
    weight = rng.normal(size=(c_out, c_in // groups) + kernel)
    b = rng.normal(size=c_out) if bias else None
    oh, ow = conv2d_output_shape(hw, kernel, stride, padding)
    grad = rng.normal(size=(n, c_out, oh, ow))
    return x, weight, b, grad, dict(stride=stride, padding=padding,
                                    groups=groups)


def run_kernel(ctx, x, weight, b, grad, kwargs, out=None):
    args = (x, weight) if b is None else (x, weight, b)
    ctx.parents = args  # backward only reads how many inputs there were
    y = ctx.forward(*args, **kwargs, out=out)
    return y, ctx.backward(grad)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@pytest.mark.parametrize("kept", [False, True], ids=["eager", "out"])
def test_conv2d_matches_direct_loop_reference(name, kept):
    x, weight, b, grad, kwargs = make_case(GEOMETRIES[name])
    expected = conv2d_reference(x, weight, b, kwargs["stride"],
                                kwargs["padding"], kwargs["groups"])
    grad_x, grad_w, grad_b = conv2d_grads_reference(
        x, weight, grad, kwargs["stride"], kwargs["padding"],
        kwargs["groups"])

    ctx = Conv2d()
    for _ in range(2 if kept else 1):
        out = np.full(expected.shape, np.nan) if kept else None
        y, grads = run_kernel(ctx, x, weight, b, grad, kwargs, out=out)
        if kept:
            assert y is out
        assert y.dtype == np.float64
        np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12)
        assert len(grads) == (2 if b is None else 3)
        np.testing.assert_allclose(grads[0], grad_x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads[1], grad_w, rtol=1e-12, atol=1e-12)
        if b is not None:
            np.testing.assert_allclose(grads[2], grad_b, rtol=1e-12,
                                       atol=1e-12)


def test_weight_grad_of_a_float32_step_tracks_float64_reference():
    x, weight, b, grad, kwargs = make_case(GEOMETRIES["grouped-strided-padded"])
    _, grad_w, _ = conv2d_grads_reference(
        x, weight, grad, kwargs["stride"], kwargs["padding"],
        kwargs["groups"])
    f32 = [a.astype(np.float32) for a in (x, weight, b, grad)]
    _, grads = run_kernel(Conv2d(), *f32, kwargs)
    assert grads[1].dtype == np.float32
    np.testing.assert_allclose(grads[1], grad_w, rtol=1e-4, atol=1e-4)
