"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Supports exactly the operations the policy heads and training losses need:
linear algebra (batched: a (B, n, d) operand against a (d, m) weight or a
(B, d, m) batch, the weight's gradient summed over the batch), pointwise
nonlinearities, a row softmax with an optional mask, sums, reciprocal, flat
gathers, last-axis slices and concatenation, and single-head attention with a
key mask. Every op records its parents; `backward` orders the graph by a
depth-first topological sort from the loss and runs each node's backward in
that order, so repeated backward passes are bit-identical.

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
gradient. `+`, `-`, `*` and `@` (a constant on either side of `@`) accept
one constant operand and record the op against the Tensor operand alone.
The module-level ops the policy calls (`relu`, `sigmoid`, `softmax`,
`narrow`, `concat`, `normalize`, `linear`, `scaled_dot_attention`) take a
Tensor or a plain float64 array: a Tensor records the op, an array gets the
same value formula and records nothing. So a network written once, its
inputs constants, runs as a graph when its parameters are Tensors and
graph-free when they are arrays, bit for bit alike.

Both paths check for non-finite values in the same three places, the value
formulas they share: the inputs of sigmoid and softmax, where an inf would
become finite and a nan in a masked slot would vanish, and the output of
the reciprocal, where a zero sum first becomes inf. Every other op passes an
inf or nan on to one of them, so both paths raise NonFiniteError on the same
inputs. `backward` rejects a non-finite loss and `Adam.step` non-finite
gradients, so what the losses add after the network is checked too.
"""

import math

import numpy as np


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


# -- value formulas, shared by the Tensor ops and the array path ----------


def _relu(x):
    return x * (x > 0.0)


def _sigmoid(x):
    _finite(x)
    # Numerically stable split over sign.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(x, mask=None):
    """Row softmax over the last axis; rows sum to 1 within fp64 rounding.

    Entries where `mask` (broadcast against x) is False get exactly zero,
    and a row with no unmasked entry is all zeros. With every entry of a row
    unmasked, the row's floats are those of the unmasked formula."""
    _finite(x)
    if mask is None:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    top = np.where(mask, x, -np.inf).max(axis=-1, keepdims=True)
    e = np.exp(np.where(mask, x - top, -np.inf))
    total = e.sum(axis=-1, keepdims=True)
    return e / np.where(total > 0.0, total, 1.0)


def _reciprocal(x):
    return _finite(1.0 / x)


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

    # numpy hands `array @ Tensor` to `__rmatmul__` instead of treating the
    # Tensor as an object scalar.
    __array_ufunc__ = None

    def __add__(self, other):
        b = _value(other)
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
        b = _value(other)
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
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    @property
    def mT(self):
        """Transpose of the last two axes (numpy's `ndarray.mT`)."""
        def backward(out):
            self._accum(out.grad.mT)

        return Tensor(self.data.mT, parents=(self,), backward=backward)

    # -- nonlinearities ---------------------------------------------------

    def relu(self):
        def backward(out):
            self._accum(out.grad * (self.data > 0.0))

        return Tensor(_relu(self.data), parents=(self,), backward=backward)

    def sigmoid(self):
        out_data = _sigmoid(self.data)

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

    def softmax(self, mask=None):
        out_data = _softmax(self.data, mask)

        def backward(out):
            g = out.grad
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            self._accum((g - dot) * out_data)

        return Tensor(out_data, parents=(self,), backward=backward)

    def reciprocal(self):
        """1/x for a positive tensor."""
        def backward(out):
            self._accum(-out.grad / (self.data * self.data))

        return Tensor(_reciprocal(self.data), parents=(self,), backward=backward)

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
        """Select rows by integer index (first axis); a 1-D tensor gathers
        single entries."""
        indices = np.asarray(indices, dtype=np.intp)

        def backward(out):
            g = np.zeros_like(self.data)
            np.add.at(g, indices, out.grad)
            self._accum(g)

        return Tensor(self.data[indices], parents=(self,), backward=backward)


def _value(x):
    """The array an operand holds: a Tensor's data, or the constant itself."""
    return x.data if isinstance(x, Tensor) else _as_array(x)


def _graph_parents(x, y):
    """A binary op's graph parents: its Tensor operands (one or two)."""
    if not isinstance(y, Tensor):
        return (x,)
    return (x, y) if isinstance(x, Tensor) else (y,)


def _matmul(x, y):
    """Matrix product over the last two axes, leading (batch) axes broadcast
    as numpy does: (n, d) @ (d, m), (B, n, d) @ (d, m) and (B, n, d) @
    (B, d, m). Either operand may be a constant."""
    a, b = _value(x), _value(y)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    try:
        out_data = a @ b
    except ValueError:
        raise ShapeError(f"matmul: incompatible batch shapes {a.shape} and {b.shape}")

    def backward(out):
        g = out.grad
        if isinstance(x, Tensor):
            x._accum(_unbroadcast(g @ b.mT, a.shape))
        if not isinstance(y, Tensor):
            return
        if b.ndim == 2:
            # A weight shared by the batch: one product sums its gradient
            # over every row of every sample.
            y._accum(a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        else:
            y._accum(_unbroadcast(a.mT @ g, b.shape))

    return Tensor(out_data, parents=_graph_parents(x, y), backward=backward)


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


def relu(x):
    return x.relu() if isinstance(x, Tensor) else _relu(x)


def sigmoid(x):
    return x.sigmoid() if isinstance(x, Tensor) else _sigmoid(x)


def softmax(x, mask=None):
    return x.softmax(mask) if isinstance(x, Tensor) else _softmax(x, mask)


def narrow(x, start, length):
    """Contiguous slice along the last axis."""
    if isinstance(x, Tensor):
        return x.narrow(start, length)
    return x[..., start:start + length]


def normalize(x):
    """x / sum(x) along the last axis of a positive array, as x times the
    reciprocal of the row sums."""
    if isinstance(x, Tensor):
        return x * x.sum(axis=-1).reciprocal()
    return x * _reciprocal(x.sum(axis=-1, keepdims=True))


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


def linear(x, w, b):
    return x @ w + b


def scaled_dot_attention(q, k, v, mask=None):
    """Single-head attention: softmax(q kᵀ / sqrt(d)) v, over the last two
    axes of (n_q, d) queries and (n_k, d) keys and values, or of batches of
    them.

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
    d = q.shape[-1]
    scores = (q @ k.mT) * (1.0 / math.sqrt(d))
    if mask is not None:
        mask = mask[..., None, :]     # the same keys for every query row
    return softmax(scores, mask) @ v


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
