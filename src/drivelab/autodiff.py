"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Supports exactly the operations the policy heads and training losses need:
linear algebra, pointwise nonlinearities, row softmax, sum, row gathers,
last-axis slices and concatenation, and single-head attention. Every op is
recorded on an implicit tape (the parent graph); gradients replay in exact
reverse execution order, so repeated backward passes are bit-identical.
"""

import math

import numpy as np


class ShapeError(ValueError):
    """Raised when an op receives incompatible input shapes."""


class NonFiniteError(FloatingPointError):
    """Raised when an op produces, or an optimizer receives, non-finite values."""


def _as_array(x):
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = _as_array(data)
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteError("non-finite values in tensor")
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        try:
            out_data = self.data + other.data
        except ValueError:
            raise ShapeError(f"add: incompatible shapes {self.shape} and {other.shape}")

        def backward(out):
            self._accum(_unbroadcast(out.grad, self.data.shape))
            other._accum(_unbroadcast(out.grad, other.data.shape))

        return Tensor(out_data, parents=(self, other), backward=backward)

    def __sub__(self, other):
        return self + (_wrap(other) * -1.0)

    def __mul__(self, other):
        other = _wrap(other)
        try:
            out_data = self.data * other.data
        except ValueError:
            raise ShapeError(f"mul: incompatible shapes {self.shape} and {other.shape}")

        def backward(out):
            self._accum(_unbroadcast(out.grad * other.data, self.data.shape))
            other._accum(_unbroadcast(out.grad * self.data, other.data.shape))

        return Tensor(out_data, parents=(self, other), backward=backward)

    def __matmul__(self, other):
        other = _wrap(other)
        a, b = self.data, other.data
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
        out_data = a @ b

        def backward(out):
            self._accum(out.grad @ b.T)
            other._accum(a.T @ out.grad)

        return Tensor(out_data, parents=(self, other), backward=backward)

    def transpose(self):
        def backward(out):
            self._accum(out.grad.T)

        return Tensor(self.data.T, parents=(self,), backward=backward)

    # -- nonlinearities ---------------------------------------------------

    def relu(self):
        mask = self.data > 0.0

        def backward(out):
            self._accum(out.grad * mask)

        return Tensor(self.data * mask, parents=(self,), backward=backward)

    def sigmoid(self):
        # Numerically stable split over sign.
        x = self.data
        out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

        def backward(out):
            self._accum(out.grad * out_data * (1.0 - out_data))

        return Tensor(out_data, parents=(self,), backward=backward)

    def log(self):
        if np.any(self.data <= 0.0):
            raise NonFiniteError("log: non-positive input")
        out_data = np.log(self.data)

        def backward(out):
            self._accum(out.grad / self.data)

        return Tensor(out_data, parents=(self,), backward=backward)

    def softmax(self):
        """Row softmax over the last axis; rows sum to 1 within fp64 rounding."""
        z = self.data - self.data.max(axis=-1, keepdims=True)
        e = np.exp(z)
        out_data = e / e.sum(axis=-1, keepdims=True)

        def backward(out):
            g = out.grad
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            self._accum((g - dot) * out_data)

        return Tensor(out_data, parents=(self,), backward=backward)

    # -- reductions / reshaping ------------------------------------------

    def sum(self):
        def backward(out):
            self._accum(np.full_like(self.data, out.grad.item()))

        return Tensor(np.array([self.data.sum()]), parents=(self,), backward=backward)

    def reshape(self, *shape):
        old = self.data.shape

        def backward(out):
            self._accum(out.grad.reshape(old))

        return Tensor(self.data.reshape(*shape), parents=(self,), backward=backward)

    def narrow(self, start, length):
        """Contiguous slice along the last axis (used for control-group splits)."""
        if start < 0 or start + length > self.data.shape[-1]:
            raise ShapeError(
                f"narrow: [{start}:{start + length}] out of range for last axis of {self.shape}")
        idx = (..., slice(start, start + length))

        def backward(out):
            g = np.zeros_like(self.data)
            g[idx] = out.grad
            self._accum(g)

        return Tensor(self.data[idx], parents=(self,), backward=backward)

    def take_rows(self, indices):
        """Select rows by integer index (first axis)."""
        indices = np.asarray(indices, dtype=np.intp)

        def backward(out):
            g = np.zeros_like(self.data)
            np.add.at(g, indices, out.grad)
            self._accum(g)

        return Tensor(self.data[indices], parents=(self,), backward=backward)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def concat(tensors):
    """Concatenation along the last axis."""
    datas = [t.data for t in tensors]
    ndim = datas[0].ndim
    for d in datas[1:]:
        if d.ndim != ndim:
            raise ShapeError(f"concat: rank mismatch {[x.shape for x in datas]}")
    out_data = np.concatenate(datas, axis=-1)
    splits = np.cumsum([d.shape[-1] for d in datas])[:-1]

    def backward(out):
        for t, g in zip(tensors, np.split(out.grad, splits, axis=-1)):
            t._accum(g)

    return Tensor(out_data, parents=tuple(tensors), backward=backward)


def linear(x, w, b):
    return x @ w + b


def scaled_dot_attention(q, k, v):
    """Single-head attention: softmax(q kᵀ / sqrt(d)) v.

    Keys/values carry only valid (unmasked) slots; callers drop empty slots
    before projection, so masked entries contribute exactly zero weight.
    """
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(
            f"scaled_dot_attention: query dim {q.shape} vs key dim {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(
            f"scaled_dot_attention: key count {k.shape} vs value count {v.shape}")
    d = q.shape[-1]
    scores = (q @ k.transpose()) * (1.0 / math.sqrt(d))
    return scores.softmax() @ v


def backward(loss, params=None):
    """Backpropagate from a scalar loss through the recorded graph.

    If a ParameterStore is given, its gradients are zeroed first so that
    parameters unreachable from the loss end with exactly zero gradient.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if params is not None:
        params.zero_grad()

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node)


class ParameterStore:
    """Named, insertion-ordered registry of trainable tensors."""

    def __init__(self):
        self._params = {}

    def add(self, name, data):
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(data)
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.zero_grad()

    def copy_values(self):
        return {k: v.data.copy() for k, v in self._params.items()}

    def load_values(self, values):
        """Replace every parameter's value; a value set that lacks a stored
        parameter, holds an unknown one or has a wrong shape is rejected
        before any value is replaced."""
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
            self._params[k].data = v.astype(np.float64).copy()


class Adam:
    """Adam with an optional cosine-annealed learning rate.

    Schedule "cosine" decays lr from lr0 to 0 over total_steps; "constant"
    keeps lr0. A non-finite gradient aborts the whole step with no partial
    parameter updates.
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
        self._m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self._v = {k: np.zeros_like(t.data) for k, t in params.items()}

    def current_lr(self):
        if self.schedule == "constant":
            return self.lr0
        frac = min(self.step_count, self.total_steps) / self.total_steps
        return self.lr0 * 0.5 * (1.0 + math.cos(math.pi * frac))

    def step(self, trainable=None):
        """Apply one update. `trainable` optionally restricts updated names."""
        names = self.params.names() if trainable is None else list(trainable)
        for name in names:
            g = self.params[name].grad
            if g is None:
                raise ValueError(f"parameter {name!r} has no gradient")
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient for {name!r}; step aborted")
        lr = self.current_lr()
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.BETA1, self.BETA2
        for name in names:
            p = self.params[name]
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** t)
            vhat = v / (1.0 - b2 ** t)
            p.data = p.data - lr * mhat / (np.sqrt(vhat) + self.EPS)


CHECKPOINT_MAGIC = "DRIVELAB-CKPT/1"


def save_checkpoint(path, params, meta=None):
    """Write parameters as a text header (name, shape, offset) + LE float64 blob."""
    values = params.copy_values() if isinstance(params, ParameterStore) else dict(params)
    lines = [CHECKPOINT_MAGIC]
    for key, val in sorted((meta or {}).items()):
        lines.append(f"#{key}={val}")
    offset = 0
    blobs = []
    for name, arr in values.items():
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
