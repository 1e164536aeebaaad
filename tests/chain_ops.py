"""Each fused autodiff op written as the chain of primitive ops it replaced.

`relu`, `log`, `take_rows`, `transpose`, `matmul` with a constant left
operand and `softmax` with a mask are the primitive nodes as the engine
once had them, built here from `Tensor` itself; the fused ops
(`mlp2`, `scaled_dot_attention`, `kl_div`, `log_pick`, `log_sigmoid`) are
compositions of them with the engine's remaining ops, in the old order. A
fused op must give their values and gradients bit for bit, and the tests
also use them as per-op references that do not share the fused code.
"""

import math

import numpy as np

from drivelab import autodiff as ad
from drivelab.autodiff import Tensor


def relu(x):
    graph = isinstance(x, Tensor)
    a = x.data if graph else x
    out_data = a * (a > 0.0)
    if not graph:
        return out_data

    def backward(out):
        x._accum(out.grad * (a > 0.0))

    return Tensor(out_data, parents=(x,), backward=backward)


def log(x):
    graph = isinstance(x, Tensor)
    a = x.data if graph else x
    if np.any(a <= 0.0):
        raise ad.NonFiniteError("log: non-positive input")
    out_data = np.log(a)
    if not graph:
        return out_data

    def backward(out):
        x._accum(out.grad / a)

    return Tensor(out_data, parents=(x,), backward=backward)


def take_rows(x, indices):
    """Rows by integer index (first axis); a 1-D operand gathers entries."""
    graph = isinstance(x, Tensor)
    a = x.data if graph else x
    indices = np.asarray(indices, dtype=np.intp)
    out_data = a[indices]
    if not graph:
        return out_data

    def backward(out):
        g = np.zeros_like(a)
        np.add.at(g, indices, out.grad)
        x._accum(g)

    return Tensor(out_data, parents=(x,), backward=backward)


def transpose(x):
    """The last two axes swapped (numpy's `mT`)."""
    if not isinstance(x, Tensor):
        return x.mT

    def backward(out):
        x._accum(out.grad.mT)

    return Tensor(x.data.mT, parents=(x,), backward=backward)


def matmul(x, y):
    """x @ y, x a Tensor or, as the engine's product once allowed, a
    constant."""
    if isinstance(x, Tensor):
        return x @ y

    def backward(out):
        g = out.grad
        if y.data.ndim == 2:
            y._accum(x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        else:
            y._accum(ad._unbroadcast(x.mT @ g, y.shape))

    return Tensor(x @ y.data, parents=(y,), backward=backward)


def mlp2(x, w1, b1, w2, b2):
    return relu(matmul(x, w1) + b1) @ w2 + b2


def softmax(x, mask):
    """Row softmax with a key mask, as the engine's op once took one."""
    out_data = ad._softmax_value(x.data, mask)

    def backward(out):
        g = out.grad
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        x._accum((g - dot) * out_data)

    return Tensor(out_data, parents=(x,), backward=backward)


def scaled_dot_attention(q, k, v, mask=None):
    scores = (q @ transpose(k)) * (1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        mask = mask[..., None, :]
    return softmax(scores, mask) @ v


def kl_div(target, x):
    target = target.reshape(-1, target.shape[-1])
    idx = np.flatnonzero(target > 0.0)
    t = target.ravel()[idx]
    p = take_rows(x.reshape(-1), idx)
    if np.any(ad.value(p) <= 0.0):
        raise ValueError("support mismatch: predicted has zero mass where target > 0")
    entropy_term = float((t * np.log(t)).sum())
    cross = (log(p) * t).sum()
    return (cross * -1.0 + entropy_term) * (1.0 / target.shape[0])


def log_pick(x, indices, clamp, floor):
    p = take_rows(x.reshape(-1), indices)
    if not clamp.any():
        return log(p)
    clamped = clamp.astype(np.float64)
    return log(p * (1.0 - clamped) + clamped) + floor * clamped


def log_sigmoid(x):
    return log(ad.sigmoid(x))


FUSED = ("mlp2", "scaled_dot_attention", "kl_div", "log_pick", "log_sigmoid")
