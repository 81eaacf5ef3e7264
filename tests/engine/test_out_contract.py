"""The ``out=`` contract: replay through arena buffers equals eager bytes.

Every op whose forward takes ``out=`` is the one kernel both eager
execution and plan replay run.  Arena buffers are plain ``np.empty``
arrays reused across replays, so a kernel that leaves any element of
``out`` unwritten leaks the previous contents into the result.  Each
case here traces a small training step around one such op, poisons
every arena buffer with NaN between replays, and requires the replayed
loss and parameter gradients to be byte-identical to a fresh eager
step.  A coverage check keeps the table in step with the ops.
"""

import numpy as np
import pytest

from repro.analysis import discover_autograd_functions
from repro.engine import compile_plan, run_backward
from repro.engine.plan import _takes_out
from repro.engine.tracer import Tracer, tracing
from repro.nn import functional as F
from repro.nn._ops.fused import FusedAddRelu, FusedMulAdd, FusedMulAddRelu
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.quant import fake_quantize, fake_quantize_per_view
from repro.quant.quantizer import _FakeQuantPerViewSTE, _FakeQuantSTE

X_SHAPE = (4, 6)
IMG_SHAPE = (2, 4, 6, 6)


def positive(x):
    return F.add(F.abs(x), 0.5)


def conv(stride=1, padding=0, groups=1, bias=True, img="img"):
    def build(x, p):
        # Scaling by a Parameter first makes grad_x reach a checked grad.
        weight = p["w%d" % groups]
        return F.conv2d(F.mul(x, p[img]), weight,
                        p["cb%d" % weight.shape[0]] if bias else None,
                        stride=stride, padding=padding, groups=groups)
    return build


#: case id -> (op name, input shape, build(x, params) -> output)
CASES = {
    "Add": ("Add", X_SHAPE, lambda x, p: F.add(x, p["a"])),
    "Add-broadcast": ("Add", X_SHAPE, lambda x, p: F.add(x, p["row"])),
    "Sub": ("Sub", X_SHAPE, lambda x, p: F.sub(x, p["a"])),
    "Mul": ("Mul", X_SHAPE, lambda x, p: F.mul(x, p["a"])),
    "Div": ("Div", X_SHAPE, lambda x, p: F.div(x, positive(p["a"]))),
    "Maximum": ("Maximum", X_SHAPE, lambda x, p: F.maximum(x, p["a"])),
    "Neg": ("Neg", X_SHAPE, lambda x, p: F.neg(F.mul(x, p["a"]))),
    "Identity": ("Identity", X_SHAPE,
                 lambda x, p: F.identity(F.mul(x, p["a"]))),
    "Relu": ("Relu", X_SHAPE, lambda x, p: F.relu(F.mul(x, p["a"]))),
    "Exp": ("Exp", X_SHAPE, lambda x, p: F.exp(F.mul(x, p["a"]))),
    "Sqrt": ("Sqrt", X_SHAPE, lambda x, p: F.sqrt(positive(F.mul(x, p["a"])))),
    "Tanh": ("Tanh", X_SHAPE, lambda x, p: F.tanh(F.mul(x, p["a"]))),
    "Log": ("Log", X_SHAPE, lambda x, p: F.log(positive(F.mul(x, p["a"])))),
    "Pow": ("Pow", X_SHAPE, lambda x, p: F.pow(F.mul(x, p["a"]), 2)),
    "Sum-axis": ("Sum", X_SHAPE,
                 lambda x, p: F.sum(F.mul(x, p["a"]), axis=1, keepdims=True)),
    "Sum-all": ("Sum", X_SHAPE, lambda x, p: F.sum(F.mul(x, p["a"]))),
    "Mean-axis": ("Mean", X_SHAPE,
                  lambda x, p: F.mean(F.mul(x, p["a"]), axis=0)),
    "Mean-all": ("Mean", X_SHAPE, lambda x, p: F.mean(F.mul(x, p["a"]))),
    "MatMul": ("MatMul", X_SHAPE, lambda x, p: F.matmul(x, p["m"])),
    "Linear": ("Linear", X_SHAPE, lambda x, p: F.linear(x, p["lw"], p["lb"])),
    "Linear-3d": ("Linear", (2,) + X_SHAPE,
                  lambda x, p: F.linear(x, p["lw"], p["lb"])),
    "Linear-nobias": ("Linear", X_SHAPE, lambda x, p: F.linear(x, p["lw"])),
    "Concat": ("Concat", X_SHAPE,
               lambda x, p: F.concat([x, p["a"]], axis=1)),
    "Conv2d": ("Conv2d", IMG_SHAPE, conv()),
    "Conv2d-padded-strided": ("Conv2d", IMG_SHAPE, conv(stride=2, padding=1)),
    "Conv2d-grouped-nobias": ("Conv2d", IMG_SHAPE,
                              conv(padding=1, groups=2, bias=False)),
    "Conv2d-depthwise": ("Conv2d", IMG_SHAPE,
                         conv(stride=2, padding=1, groups=IMG_SHAPE[1])),
    "Conv2d-single-image": ("Conv2d", (1,) + IMG_SHAPE[1:],
                            conv(padding=1, img="img1")),
    "FusedMulAdd": ("FusedMulAdd", X_SHAPE,
                    lambda x, p: FusedMulAdd.apply(x, p["a"], p["row"])),
    "FusedAddRelu": ("FusedAddRelu", X_SHAPE,
                     lambda x, p: FusedAddRelu.apply(x, p["a"])),
    "FusedMulAddRelu": ("FusedMulAddRelu", X_SHAPE,
                        lambda x, p: FusedMulAddRelu.apply(x, p["a"],
                                                           p["row"])),
    "_FakeQuantSTE": ("_FakeQuantSTE", X_SHAPE,
                      lambda x, p: fake_quantize(F.mul(x, p["a"]), 4)),
    "_FakeQuantPerViewSTE": ("_FakeQuantPerViewSTE", X_SHAPE,
                             lambda x, p: fake_quantize_per_view(
                                 F.mul(x, p["a"]), 4, views=2)),
}


def make_params(seed=3):
    rng = np.random.default_rng(seed)

    def param(*shape):
        return Parameter(rng.normal(size=shape).astype(np.float32))

    return {
        "a": param(*X_SHAPE), "row": param(X_SHAPE[1]),
        "m": param(X_SHAPE[1], 5), "lw": param(3, X_SHAPE[1]),
        "lb": param(3), "w1": param(6, 4, 3, 3), "w2": param(6, 2, 3, 3),
        "cb6": param(6), "img": param(*IMG_SHAPE),
        "w4": param(4, 1, 3, 3), "cb4": param(4),
        "img1": param(1, *IMG_SHAPE[1:]),
    }


def loss_of(build, x, params):
    y = build(x, params)
    weights = np.random.default_rng(0).normal(size=y.shape)
    return F.sum(F.mul(y, Tensor(weights.astype(y.data.dtype))))


def grads(params):
    return {k: None if p.grad is None else p.grad.tobytes()
            for k, p in params.items()}


def test_every_out_capable_op_has_a_case():
    ops = dict(discover_autograd_functions())
    ops.update(_FakeQuantSTE=_FakeQuantSTE,
               _FakeQuantPerViewSTE=_FakeQuantPerViewSTE)
    capable = {name for name, op in ops.items() if _takes_out(op)}
    covered = {op_name for op_name, _, _ in CASES.values()}
    assert capable == covered, (
        f"out=-capable ops without a case: {sorted(capable - covered)}; "
        f"cases for ops without out=: {sorted(covered - capable)}"
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_over_poisoned_buffers_equals_eager(case):
    op_name, shape, build = CASES[case]
    rng = np.random.default_rng(11)
    params = make_params()

    def fresh():
        return rng.normal(size=shape).astype(np.float32)

    x0 = Tensor(fresh())
    tracer = Tracer(inputs={"x": x0}, symbols={"q": 4})
    with tracing(tracer):
        loss = loss_of(build, x0, params)
        run_backward(loss)
    plan = compile_plan(tracer.finalize(loss, {}), training=True, fuse=False)
    planned = [i for i, r in enumerate(plan.records)
               if r.op.__name__ == op_name and i in plan._planned_buffers]
    assert planned, f"{op_name} did not get an arena buffer"

    for _ in range(2):  # second round reuses every kept scratch array
        x = fresh()
        for p in params.values():
            p.grad = None
        expected_loss = loss_of(build, Tensor(x), params)
        run_backward(expected_loss)
        expected_grads = grads(params)

        for buf in plan._planned_buffers.values():
            buf.fill(np.nan)
        for p in params.values():
            p.grad = None
        result = plan.replay({"x": x}, {"q": 4})

        assert result.root.tobytes() == expected_loss.data.tobytes()
        assert grads(params) == expected_grads
        for i in planned:  # the forward returned the buffer it was handed
            assert plan._slots[i] is plan._planned_buffers[i]
