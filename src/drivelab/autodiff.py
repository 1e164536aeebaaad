"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Supports exactly the operations the policy heads and training losses need:
matrix products (batched: a (B, n, d) operand against a (d, m) weight or a
(B, d, m) batch, the weight's gradient summed over the batch), a sigmoid, a
row softmax, sums, reshapes, the row normalisation, last-axis slices and
concatenation, and five fused ops: a two-layer perceptron (`mlp2`),
single-head attention with a key mask, the KL divergence against a target
distribution, the log-probability pick with its floor clamp (`log_pick`),
and ln sigmoid. Every op records its parents; `backward` orders the graph by
a depth-first topological sort from the loss and runs each node's backward
in that order, so repeated backward passes are bit-identical.

A fused op is one node for a chain of primitive ops, with a closed-form
backward: its forward runs the chain's float ops in the chain's order, and
its backward runs the chain's gradient formulas (`_left_grad`,
`_softmax_grad`, ...) in the order the chain's nodes would, adding into each
operand in that order too. So it gives the chain's values and gradients bit
for bit (`tests/chain_ops.py` keeps the chains) and costs `backward` one
node instead of up to eight.

Gradients accumulate by two rules. A node's first gradient is stored as it
arrives, without a copy: it may be a view of another node's gradient, and
no non-parameter gradient is ever written in place, so it cannot change
under the node. Each later gradient is added out of place. A parameter's
gradient is the exception: it is added in place into the parameter's view
of the store's gradient buffer (see `ParameterStore`).

The key mask lets one graph run a padded batch: a masked key gets exactly
zero attention weight, so its value adds nothing and no gradient reaches it,
whatever the padded slot holds; a query row with no valid key attends to
nothing and its attention output is exactly zero.

A plain array or Python scalar is a constant: it joins no graph and gets no
gradient. `+`, `-`, `*` and `@` accept one constant operand, on the right,
and record the op against the Tensor operand alone. Every other op is one
module-level function, its only definition (`sigmoid`, `log_sigmoid`,
`softmax`, `log_pick`, `kl_div`, `narrow`, `concat`, `normalize`, `mlp2`,
`scaled_dot_attention`). It takes Tensors or plain float64 arrays and
computes the value from the arrays they hold; arrays get that value back,
and a Tensor operand gets a node that records the op. `Tensor` itself keeps
only the arithmetic operators and the names numpy arrays also have
(`shape`, `sum`, `reshape`). So a network written once, its inputs
constants, runs as a graph when its parameters are Tensors and graph-free
when they are arrays, bit for bit alike; `value` reads the array either one
holds.

Both paths check for non-finite values in the same places: the inputs of
every sigmoid and softmax (those inside `log_sigmoid` and the attention
included), where an inf would become finite and a nan in a masked slot
would vanish; the reciprocal of normalize's row sums, where a zero sum first
becomes inf; and the logs of `log_pick` and `log_sigmoid`, where an input
that is not positive would first become -inf or nan. Every other op passes
an inf or nan on to one of them, so both paths raise NonFiniteError on the
same inputs. `backward` rejects a non-finite loss and `Adam.step`
non-finite gradients, so what the losses add after the network is checked
too.

Importing the module sets two of glibc's malloc thresholds, where the
process runs on glibc, so that a training step reuses the heap the previous
step's graph freed (see the `mallopt` calls below).
"""

import ctypes
import math
import platform
from functools import partial

import numpy as np

# A training step's graph frees a few MB at once. With glibc's defaults that
# heap top goes back to the kernel (M_TRIM_THRESHOLD is 128 KiB) and the next
# step faults every page in again, so freed heap is kept. Setting a threshold
# turns off glibc's dynamic mmap threshold, which would leave every array of
# 128 KiB or more mmapped, and faulted in, on each allocation; so arrays under
# 32 MiB come from the heap as well. No float changes, and forked `--jobs`
# workers inherit the setting.
if platform.libc_ver()[0] == "glibc":
    _M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc's malloc.h
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    _mallopt(_M_MMAP_THRESHOLD, 32 << 20)


class ShapeError(ValueError):
    """Raised when an op receives incompatible input shapes."""


class NonFiniteError(FloatingPointError):
    """Raised when a checked op, a loss or an optimizer step meets non-finite values."""


def _as_array(x):
    return np.asarray(x, dtype=np.float64)


def _finite(x):
    """x itself; NonFiniteError if any element is inf or nan."""
    if not np.isfinite(x).all():
        raise NonFiniteError("non-finite values")
    return x


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = _as_array(data)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g):
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    # -- arithmetic -------------------------------------------------------

    # numpy refuses `array + Tensor` (and `-`, `*`, `@`) instead of treating
    # the Tensor as an object scalar: a constant operand goes on the right.
    __array_ufunc__ = None

    def __add__(self, other):
        b = value(other)
        try:
            out_data = self.data + b
        except ValueError:
            raise ShapeError(f"add: incompatible shapes {self.shape} and {b.shape}")

        def backward(out):
            self._accum(_unbroadcast(out.grad, self.data.shape))
            if isinstance(other, Tensor):
                other._accum(_unbroadcast(out.grad, b.shape))

        return Tensor(out_data, parents=_graph_parents(self, other), backward=backward)

    def __sub__(self, other):
        return self + other * -1.0

    def __mul__(self, other):
        b = value(other)
        try:
            out_data = self.data * b
        except ValueError:
            raise ShapeError(f"mul: incompatible shapes {self.shape} and {b.shape}")

        def backward(out):
            self._accum(_unbroadcast(out.grad * b, self.data.shape))
            if isinstance(other, Tensor):
                other._accum(_unbroadcast(out.grad * self.data, b.shape))

        return Tensor(out_data, parents=_graph_parents(self, other), backward=backward)

    def __matmul__(self, other):
        """Matrix product over the last two axes, leading (batch) axes
        broadcast as numpy does: (n, d) @ (d, m), (B, n, d) @ (d, m) and
        (B, n, d) @ (B, d, m)."""
        a, b = self.data, value(other)
        if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
        try:
            out_data = a @ b
        except ValueError:
            raise ShapeError(f"matmul: incompatible batch shapes {a.shape} and {b.shape}")

        def backward(out):
            self._accum(_left_grad(out.grad, b, a.shape))
            if isinstance(other, Tensor):
                other._accum(_right_grad(a, out.grad, b.shape))

        return Tensor(out_data, parents=_graph_parents(self, other), backward=backward)

    # -- reductions / reshaping ------------------------------------------

    def sum(self, axis=None):
        """Sum over `axis` (every axis if None), keeping the summed axes."""
        def backward(out):
            self._accum(np.broadcast_to(out.grad, self.data.shape))

        return Tensor(self.data.sum(axis=axis, keepdims=True), parents=(self,),
                      backward=backward)

    def reshape(self, *shape):
        old = self.data.shape

        def backward(out):
            self._accum(out.grad.reshape(old))

        return Tensor(self.data.reshape(*shape), parents=(self,), backward=backward)


def value(x):
    """The array an operand holds: a Tensor's data, or the constant itself."""
    return x.data if isinstance(x, Tensor) else _as_array(x)


def _tensors(operands):
    """A fused op's graph parents: its Tensor operands, in order."""
    return tuple(t for t in operands if isinstance(t, Tensor))


def _graph_parents(x, other):
    """A binary op's graph parents: the Tensor x, and `other` if it is one."""
    return (x, other) if isinstance(other, Tensor) else (x,)


# The gradient formulas of the recorded ops, on arrays. A fused op runs the
# same formulas, in the same order, as the chain of ops it replaces.


def _left_grad(g, b, a_shape):
    """The gradient of `a` in `a @ b`, given the product's gradient g."""
    return _unbroadcast(g @ b.mT, a_shape)


def _right_grad(a, g, b_shape):
    """The gradient of `b` in `a @ b`. A weight shared by the batch gets one
    product that sums its gradient over every row of every sample."""
    if len(b_shape) == 2:
        return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return _unbroadcast(a.mT @ g, b_shape)


def _softmax_grad(g, out_data):
    dot = (g * out_data).sum(axis=-1, keepdims=True)
    return (g - dot) * out_data


def _sigmoid_grad(g, out_data):
    return g * out_data * (1.0 - out_data)


def _scatter(g, indices, size):
    """A flat gradient of `size` entries: g added at `indices`, zero elsewhere."""
    flat = np.zeros(size)
    np.add.at(flat, indices, g)
    return flat


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- ops on a Tensor or a plain array ----------------------------------------
# Each reads a Tensor's data, or takes an array operand as it is: `value`'s
# float64 conversion would cost every op of the graph-free pass a call.


def _sigmoid_value(a):
    # Numerically stable split over sign.
    e = np.exp(-np.abs(_finite(a)))
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x):
    graph = isinstance(x, Tensor)
    out_data = _sigmoid_value(x.data if graph else x)
    if not graph:
        return out_data

    def backward(out):
        x._accum(_sigmoid_grad(out.grad, out_data))

    return Tensor(out_data, parents=(x,), backward=backward)


def _log(a):
    if np.any(a <= 0.0):
        raise NonFiniteError("log: non-positive input")
    return np.log(a)


def log_sigmoid(x):
    """ln sigmoid(x), one node: the sigmoid's value, the log of it, and
    back the log's gradient through the sigmoid's."""
    graph = isinstance(x, Tensor)
    s = _sigmoid_value(x.data if graph else x)
    out_data = _log(s)
    if not graph:
        return out_data

    def backward(out):
        x._accum(_sigmoid_grad(out.grad / s, s))

    return Tensor(out_data, parents=(x,), backward=backward)


def _softmax_value(a, mask):
    """Row softmax of a finite array. Entries where `mask` (broadcast
    against a; None: every entry) is False get exactly zero, and a row with
    no unmasked entry is all zeros. With every entry of a row unmasked, the
    row's floats are those of the unmasked formula."""
    _finite(a)
    if mask is None:
        e = np.exp(a - a.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    top = np.where(mask, a, -np.inf).max(axis=-1, keepdims=True)
    e = np.exp(np.where(mask, a - top, -np.inf))
    total = e.sum(axis=-1, keepdims=True)
    return e / np.where(total > 0.0, total, 1.0)


def softmax(x):
    """Row softmax over the last axis; rows sum to 1 within fp64 rounding."""
    graph = isinstance(x, Tensor)
    out_data = _softmax_value(x.data if graph else x, None)
    if not graph:
        return out_data

    def backward(out):
        x._accum(_softmax_grad(out.grad, out_data))

    return Tensor(out_data, parents=(x,), backward=backward)


def log_pick(x, indices, clamp, floor):
    """ln x.flat[indices], one node; an entry where `clamp` is True is
    `floor` instead, a constant that takes no gradient. Every other picked
    entry must be positive."""
    graph = isinstance(x, Tensor)
    a = x.data if graph else x
    p = a.reshape(-1)[indices]
    clamped = clamp.any()
    if clamped:
        p = np.where(clamp, 1.0, p)
    out_data = _log(p)
    if clamped:
        out_data[clamp] = floor
    if not graph:
        return out_data

    def backward(out):
        g = out.grad / p
        if clamped:
            g[clamp] = 0.0
        x._accum(_scatter(g, indices, a.size).reshape(a.shape))

    return Tensor(out_data, parents=(x,), backward=backward)


def kl_div(target, x):
    """Mean over rows of D_KL(target row || x row), with 0 ln 0 = 0, one
    node: the log of x where the target is positive, weighted by the target,
    summed, and shifted by the target's entropy. `target` is an array of
    distributions, (B, n) or one (n,), and x has its shape; x must be
    positive wherever the target is."""
    graph = isinstance(x, Tensor)
    a = x.data if graph else x
    target = target.reshape(-1, target.shape[-1])
    indices = np.flatnonzero(target > 0.0)
    t = target.ravel()[indices]
    p = a.reshape(-1)[indices]
    if np.any(p <= 0.0):
        raise ValueError("support mismatch: predicted has zero mass where target > 0")
    entropy = float((t * np.log(t)).sum())
    inv_rows = 1.0 / target.shape[0]
    out_data = ((np.log(p) * t).sum(keepdims=True) * -1.0 + entropy) * inv_rows
    if not graph:
        return out_data

    def backward(out):
        # The (1,) gradient broadcasts over t as the sum's gradient did.
        g = out.grad * inv_rows * -1.0 * t / p
        x._accum(_scatter(g, indices, a.size).reshape(a.shape))

    return Tensor(out_data, parents=(x,), backward=backward)


def narrow(x, start, length):
    """Contiguous slice along the last axis (used for control-group splits)."""
    graph = isinstance(x, Tensor)
    a = x.data if graph else x
    if start < 0 or start + length > a.shape[-1]:
        raise ShapeError(
            f"narrow: [{start}:{start + length}] out of range for last axis of {a.shape}")
    idx = (..., slice(start, start + length))
    out_data = a[idx]
    if not graph:
        return out_data

    def backward(out):
        g = np.zeros_like(a)
        g[idx] = out.grad
        x._accum(g)

    return Tensor(out_data, parents=(x,), backward=backward)


def _reciprocal(x):
    return _finite(1.0 / x)


def normalize(x):
    """x / sum(x) along the last axis of a positive operand, as x times the
    reciprocal of the row sums."""
    if not isinstance(x, Tensor):
        return x * _reciprocal(x.sum(axis=-1, keepdims=True))
    total = x.sum(axis=-1)

    def backward(out):
        total._accum(-out.grad / (total.data * total.data))

    return x * Tensor(_reciprocal(total.data), parents=(total,), backward=backward)


def concat(tensors):
    """Concatenation along the last axis."""
    if not isinstance(tensors[0], Tensor):
        return np.concatenate(tensors, axis=-1)
    datas = [t.data for t in tensors]
    ndim = datas[0].ndim
    for d in datas[1:]:
        if d.ndim != ndim:
            raise ShapeError(f"concat: rank mismatch {[x.shape for x in datas]}")
    out_data = concat(datas)      # the array path gives the value
    splits = np.cumsum([d.shape[-1] for d in datas])[:-1]

    def backward(out):
        for t, g in zip(tensors, np.split(out.grad, splits, axis=-1)):
            t._accum(g)

    return Tensor(out_data, parents=tuple(tensors), backward=backward)


# `infer` runs mlp2 and scaled_dot_attention graph-free on every closed-loop
# tick. Their backward is a module function bound by `partial`, not a
# closure: a closure makes each local it reads a cell, which every call pays
# for, the graph-free ones included.


def mlp2(x, w1, b1, w2, b2):
    """Linear, relu, linear: relu(x @ w1 + b1) @ w2 + b2, one node; any
    operand may be a constant."""
    operands = (x, w1, b1, w2, b2)
    graph = (isinstance(x, Tensor) or isinstance(w1, Tensor) or isinstance(b1, Tensor)
             or isinstance(w2, Tensor) or isinstance(b2, Tensor))
    arrays = tuple(map(value, operands)) if graph else operands
    a, w1_, b1_, w2_, b2_ = arrays
    first = a @ w1_
    pre = first + b1_
    active = pre > 0.0
    h = pre * active
    second = h @ w2_
    out_data = second + b2_
    if not graph:
        return out_data
    return Tensor(out_data, parents=_tensors(operands), backward=partial(
        _mlp2_backward, operands, arrays, active, h, first.shape, second.shape))


def _mlp2_backward(operands, arrays, active, h, first_shape, second_shape, out):
    x, w1, b1, w2, b2 = operands
    a, w1_, b1_, w2_, b2_ = arrays
    g = out.grad
    g_second = _unbroadcast(g, second_shape)
    if isinstance(b2, Tensor):
        b2._accum(_unbroadcast(g, b2_.shape))
    g_h = _left_grad(g_second, w2_, h.shape)
    if isinstance(w2, Tensor):
        w2._accum(_right_grad(h, g_second, w2_.shape))
    g_pre = g_h * active
    g_first = _unbroadcast(g_pre, first_shape)
    if isinstance(b1, Tensor):
        b1._accum(_unbroadcast(g_pre, b1_.shape))
    if isinstance(x, Tensor):
        x._accum(_left_grad(g_first, w1_, a.shape))
    if isinstance(w1, Tensor):
        w1._accum(_right_grad(a, g_first, w1_.shape))


def scaled_dot_attention(q, k, v, mask=None):
    """Single-head attention: softmax(q kᵀ / sqrt(d)) v, over the last two
    axes of (n_q, d) queries and (n_k, d) keys and values, or of batches of
    them; one node, any operand may be a constant.

    `mask` (B, n_k), True for a valid key, masks padded key slots: a masked
    key gets exactly zero weight, so whatever its slot holds changes no
    output bit and receives no gradient, and a query row whose keys are all
    masked returns exactly zero. None means every key is valid.
    """
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(
            f"scaled_dot_attention: query dim {q.shape} vs key dim {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(
            f"scaled_dot_attention: key count {k.shape} vs value count {v.shape}")
    graph = isinstance(q, Tensor) or isinstance(k, Tensor) or isinstance(v, Tensor)
    q_, k_, v_ = map(value, (q, k, v)) if graph else (q, k, v)
    scale = 1.0 / math.sqrt(q_.shape[-1])
    k_t = k_.mT
    scores = q_ @ k_t
    if mask is not None:
        mask = mask[..., None, :]     # the same keys for every query row
    weights = _softmax_value(scores * scale, mask)
    out_data = weights @ v_
    if not graph:
        return out_data
    return Tensor(out_data, parents=_tensors((q, k, v)), backward=partial(
        _attention_backward, (q, k, v), (q_, k_t, v_), weights, scale))


def _attention_backward(operands, arrays, weights, scale, out):
    q, k, v = operands
    q_, k_t, v_ = arrays
    g = out.grad
    g_weights = _left_grad(g, v_, weights.shape)
    if isinstance(v, Tensor):
        v._accum(_right_grad(weights, g, v_.shape))
    g_scores = _softmax_grad(g_weights, weights) * scale
    if isinstance(q, Tensor):
        q._accum(_left_grad(g_scores, k_t, q_.shape))
    if isinstance(k, Tensor):
        k._accum(_right_grad(q_, g_scores, k_t.shape).mT)


def backward(loss, params=None):
    """Backpropagate from a scalar loss through the recorded graph.

    A non-finite loss is rejected before any gradient is touched. If a
    ParameterStore is given, its gradients are zeroed first so that
    parameters unreachable from the loss end with exactly zero gradient.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    _finite(loss.data)
    if params is not None:
        params.zero_grad()

    # Leaves (no parents) have no backward to run and leave the order of
    # the other nodes as it is, so the sort skips them.
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif node not in visited:
            visited.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p._parents and p not in visited:
                    stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node)


class _Parameter(Tensor):
    """A ParameterStore entry: its `data` and `grad` are views of the
    store's flat buffers, and a gradient is added into its view in place."""

    __slots__ = ()

    def _accum(self, g):
        self.grad += g


class ParameterStore:
    """Named, ordered registry of trainable tensors, stored flat.

    Built once from (name, initial value) pairs: all values sit in one
    contiguous float64 buffer and all gradients in a second, each
    parameter's range following the previous one's. A parameter's `data`
    and `grad` are fixed views of its range: values are written into them
    (`load_values`, `Adam.step`) and never rebound, gradients are zeroed by
    one `fill`. `arrays` maps each name to its value view, for the
    graph-free network.
    """

    def __init__(self, params):
        self._params = {}
        for name, data in params:
            if name in self._params:
                raise ValueError(f"duplicate parameter {name!r}")
            self._params[name] = _Parameter(data)
        self.values = np.concatenate(
            [np.zeros(0)] + [t.data.ravel() for t in self._params.values()])
        self.grads = np.zeros_like(self.values)
        self._ranges = {}         # name -> (start, stop) in the flat buffers
        start = 0
        for name, t in self._params.items():
            stop = start + t.data.size
            self._ranges[name] = (start, stop)
            t.data = self.values[start:stop].reshape(t.data.shape)
            t.grad = self.grads[start:stop].reshape(t.data.shape)
            start = stop
        self.arrays = {name: t.data for name, t in self._params.items()}

    def __getitem__(self, name):
        return self._params[name]

    def __getstate__(self):
        # A pickled view would come back as a copy of its own: pickle the
        # values and rebuild the views from them.
        return self.copy_values(), self.grads

    def __setstate__(self, state):
        values, grads = state
        self.__init__(values.items())
        self.grads[:] = grads

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def spans(self, names):
        """The (start, stop) buffer ranges that cover `names`, adjacent
        parameters merged into one range."""
        spans = []
        for a, b in sorted(self._ranges[n] for n in names):
            if spans and spans[-1][1] == a:
                spans[-1] = (spans[-1][0], b)
            else:
                spans.append((a, b))
        return spans

    def zero_grad(self):
        self.grads.fill(0.0)

    def copy_values(self):
        return {k: v.data.copy() for k, v in self.items()}

    def load_values(self, values):
        """Copy a value for every parameter into its view; a value set that
        lacks a stored parameter, holds an unknown one or has a wrong shape
        is rejected before any value is written."""
        for k in self._params:
            if k not in values:
                raise KeyError(f"missing parameter {k!r}")
        for k, v in values.items():
            if k not in self._params:
                raise KeyError(f"unknown parameter {k!r}")
            if self._params[k].data.shape != v.shape:
                raise ShapeError(
                    f"parameter {k!r}: shape {v.shape} != {self._params[k].data.shape}")
        for k, v in values.items():
            self._params[k].data[...] = v


class Adam:
    """Adam with an optional cosine-annealed learning rate.

    Schedule "cosine" decays lr from lr0 to 0 over total_steps; "constant"
    keeps lr0. The moments m and v are flat buffers laid out like the
    store's, and a step is one elementwise update per buffer range of the
    trainable parameters, so it gives the bits a per-parameter loop would.
    A non-finite gradient aborts the whole step with no partial parameter
    updates.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr, schedule="constant", total_steps=0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown schedule {schedule!r}")
        if schedule == "cosine" and total_steps <= 0:
            raise ValueError("cosine schedule needs total_steps > 0")
        self.params = params
        self.lr0 = lr
        self.schedule = schedule
        self.total_steps = total_steps
        self.step_count = 0
        self._m = np.zeros_like(params.values)
        self._v = np.zeros_like(params.values)

    def current_lr(self):
        if self.schedule == "constant":
            return self.lr0
        frac = min(self.step_count, self.total_steps) / self.total_steps
        return self.lr0 * 0.5 * (1.0 + math.cos(math.pi * frac))

    def step(self, trainable=None):
        """Apply one update. `trainable` optionally restricts updated names;
        the others keep their values and their moments."""
        names = self.params.names() if trainable is None else list(trainable)
        spans = self.params.spans(names)
        grads = self.params.grads
        if not all(np.isfinite(grads[a:b]).all() for a, b in spans):
            bad = next(n for n in names if not np.isfinite(self.params[n].grad).all())
            raise NonFiniteError(f"non-finite gradient for {bad!r}; step aborted")
        lr = self.current_lr()
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.BETA1, self.BETA2
        for a, b in spans:
            g, m, v = grads[a:b], self._m[a:b], self._v[a:b]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            self.params.values[a:b] -= lr * (m / (1.0 - b1 ** t)) / (
                np.sqrt(v / (1.0 - b2 ** t)) + self.EPS)


CHECKPOINT_MAGIC = "DRIVELAB-CKPT/1"


def save_checkpoint(path, params, meta=None):
    """Write a ParameterStore's values as a text header (name, shape, offset)
    + LE float64 blob."""
    lines = [CHECKPOINT_MAGIC]
    for key, val in sorted((meta or {}).items()):
        lines.append(f"#{key}={val}")
    offset = 0
    blobs = []
    for name, arr in params.arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        shape = ",".join(str(s) for s in arr.shape) or "1"
        lines.append(f"{name}\t{shape}\t{offset}")
        blobs.append(arr.tobytes())
        offset += arr.size
    header = ("\n".join(lines) + "\n\n").encode("utf-8")
    with open(path, "wb") as f:
        f.write(header)
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path):
    """Read a checkpoint; returns (values dict, meta dict). A checkpoint with
    any non-finite value is rejected, naming the first such parameter."""
    with open(path, "rb") as f:
        raw = f.read()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise ValueError(f"{path}: truncated checkpoint header")
    header = raw[:sep].decode("utf-8").split("\n")
    if header[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic {header[0]!r}, expected {CHECKPOINT_MAGIC!r}")
    meta = {}
    entries = []
    for line in header[1:]:
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key] = val
        elif line:
            name, shape_s, offset_s = line.split("\t")
            shape = tuple(int(s) for s in shape_s.split(","))
            entries.append((name, shape, int(offset_s)))
    body = raw[sep + 2:]
    values = {}
    for name, shape, offset in entries:
        n = int(np.prod(shape))
        chunk = body[offset * 8:(offset + n) * 8]
        if len(chunk) != n * 8:
            raise ValueError(f"{path}: truncated data for parameter {name!r}")
        values[name] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
    if not np.isfinite(np.frombuffer(body, dtype="<f8", count=len(body) // 8)).all():
        for name, val in values.items():
            if not np.isfinite(val).all():
                raise ValueError(f"{path}: non-finite values in parameter {name!r}")
    return values, meta
