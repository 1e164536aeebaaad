import math
import os
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivelab import autodiff as ad
from drivelab import policy as pol
from drivelab import vocab
from drivelab.autodiff import Tensor

from gradcheck_util import policy_grad_check


def numeric_grad(fn, x, h=1e-6):
    """Central finite differences of a scalar fn wrt a numpy array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        g[idx] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def check_grad(build, x0, tol=1e-5):
    """build(Tensor) -> scalar Tensor; compares autodiff grad to numeric."""
    t = Tensor(x0)
    loss = build(t)
    ad.backward(loss)
    num = numeric_grad(lambda x: build(Tensor(x)).data.item(), x0)
    denom = max(np.abs(num).max(), 1e-8)
    assert np.abs(t.grad - num).max() / denom < tol


class TestOpGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_add_mul(self):
        x0 = self.rng.normal(size=(3, 4))
        w = self.rng.normal(size=(3, 4))
        check_grad(lambda t: ((t + w) * t).sum(), x0)

    def test_matmul(self):
        x0 = self.rng.normal(size=(3, 4))
        w = self.rng.normal(size=(4, 2))
        check_grad(lambda t: (t @ Tensor(w)).sum(), x0)

    def test_relu_sigmoid_log_exp(self):
        x0 = self.rng.normal(size=(5,)) + 0.01
        check_grad(lambda t: t.relu().sum(), x0)
        check_grad(lambda t: t.sigmoid().sum(), x0)
        check_grad(lambda t: (t * t).log().sum(), np.abs(x0) + 0.5)

    def test_softmax(self):
        x0 = self.rng.normal(size=(2, 5))
        w = self.rng.normal(size=(2, 5))
        check_grad(lambda t: (t.softmax() * w).sum(), x0)

    def test_mean_reshape_narrow_take_rows(self):
        x0 = self.rng.normal(size=(4, 6))
        check_grad(lambda t: t.reshape(24).narrow(3, 7).sum(), x0)
        check_grad(lambda t: (t.take_rows([2, 0, 2]) * 1.5).sum(), x0)

    def test_transpose_concat(self):
        x0 = self.rng.normal(size=(3, 4))
        check_grad(lambda t: ad.concat([t, t.mT.mT]).sum(), x0)

    def test_attention(self):
        q0 = self.rng.normal(size=(3, 4))
        k = Tensor(self.rng.normal(size=(5, 4)))
        v = Tensor(self.rng.normal(size=(5, 4)))
        check_grad(lambda t: ad.scaled_dot_attention(t, k, v).sum(), q0)

    def test_batched_matmul(self):
        """(B, n, d) @ (d, m), the weight's gradient summed over the batch,
        and (B, n, d) @ (B, d, m)."""
        a0 = self.rng.normal(size=(3, 4, 5))
        w0 = self.rng.normal(size=(5, 2))
        b0 = self.rng.normal(size=(3, 5, 2))
        r = self.rng.normal(size=(3, 4, 2))
        check_grad(lambda t: ((t @ Tensor(w0)) * r).sum(), a0)
        check_grad(lambda t: ((Tensor(a0) @ t) * r).sum(), w0)
        check_grad(lambda t: ((t @ Tensor(b0)) * r).sum(), a0)
        check_grad(lambda t: ((Tensor(a0) @ t) * r).sum(), b0)
        with pytest.raises(ad.ShapeError):
            Tensor(a0) @ Tensor(self.rng.normal(size=(2, 5, 2)))

    def test_masked_attention(self):
        """Every input's gradient, with one sample's keys all masked: its
        rows attend to nothing, and no masked slot gets a gradient."""
        q0 = self.rng.normal(size=(3, 2, 4))
        k0 = self.rng.normal(size=(3, 5, 4))
        v0 = self.rng.normal(size=(3, 5, 4))
        r = self.rng.normal(size=(3, 2, 4))
        mask = np.array([[True, True, False, True, False],
                         [False] * 5,
                         [True] * 5])

        def loss(q, k, v):
            return (ad.scaled_dot_attention(q, k, v, mask) * r).sum()

        check_grad(lambda t: loss(t, Tensor(k0), Tensor(v0)), q0)
        check_grad(lambda t: loss(Tensor(q0), t, Tensor(v0)), k0)
        check_grad(lambda t: loss(Tensor(q0), Tensor(k0), t), v0)
        q, k, v = Tensor(q0), Tensor(k0), Tensor(v0)
        out = ad.scaled_dot_attention(q, k, v, mask)
        assert np.array_equal(out.data[1], np.zeros((2, 4)))
        ad.backward((out * r).sum())
        for t in (q, k, v):
            assert np.array_equal(t.grad[1], np.zeros_like(t.grad[1]))
        for t in (k, v):
            assert np.array_equal(t.grad[~mask], np.zeros_like(t.grad[~mask]))

    def test_normalize(self):
        x0 = np.abs(self.rng.normal(size=(6,))) + 0.1
        w = self.rng.normal(size=(6,))
        check_grad(lambda t: (ad.normalize(t) * w).sum(), x0)

    def test_broadcast_unbroadcast(self):
        x0 = self.rng.normal(size=(1, 4))
        w = self.rng.normal(size=(3, 4))
        check_grad(lambda t: (t + w).sum(), x0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(vals):
    out = Tensor(np.array(vals)).softmax()
    assert abs(out.data.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("op", [
    ad.relu, ad.sigmoid, ad.softmax, lambda t: ad.narrow(t, 5, 2),
    lambda t: ad.concat([t, t]), lambda t: ad.normalize(t.reshape(48) * t.reshape(48)),
    lambda t: ad.scaled_dot_attention(t, t, t),
    lambda t: ad.scaled_dot_attention(
        *[t.reshape(3, 2, 8)] * 3, np.array([[True, False], [False, False], [True, True]])),
    lambda t: ad.normalize(t * t)])
def test_array_path_matches_tensor_op(op):
    """An op given a plain array returns a plain array with the Tensor op's
    value, bit for bit."""
    x = np.random.default_rng(5).normal(size=(3, 16)) * 4.0
    got = op(x)
    assert isinstance(got, np.ndarray)
    assert np.array_equal(got, op(Tensor(x)).data)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("op", [ad.sigmoid, ad.softmax])
def test_array_path_rejects_nonfinite_input(op, bad):
    # sigmoid(+-inf) and softmax over a -inf entry are finite, so both paths
    # check these inputs in the value formula they share.
    for leaf in (Tensor, np.asarray):
        with pytest.raises(ad.NonFiniteError):
            op(leaf(np.array([[0.5, bad, -1.0]])))


def test_array_path_rejects_zero_sum_normalize():
    with np.errstate(divide="ignore"), pytest.raises(ad.NonFiniteError):
        ad.normalize(np.zeros(4))


def test_shape_errors():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ad.ShapeError):
        a + b
    with pytest.raises(ad.ShapeError):
        a @ b
    with pytest.raises(ad.ShapeError):
        a.narrow(2, 5)
    with pytest.raises(ad.ShapeError):
        ad.backward(a)  # non-scalar loss


_CONSTANT_CASES = [   # (name, op, Tensor operand shape, constant shape)
    ("add", lambda t, c: t + c, (3, 4), (3, 4)),
    ("add broadcast", lambda t, c: t + c, (3, 4), (2, 1, 1)),
    ("mul", lambda t, c: t * c, (3, 4), (3, 4)),
    ("sub", lambda t, c: t - c, (3, 4), (4,)),
    ("tensor @ array", lambda t, c: t @ c, (3, 4), (4, 2)),
    ("array @ tensor", lambda t, c: c @ t, (4, 2), (3, 4)),
    ("batch tensor @ array", lambda t, c: t @ c, (2, 3, 4), (4, 5)),
    ("batch array @ tensor", lambda t, c: c @ t, (4, 5), (2, 3, 4)),
]


class TestConstantOperands:
    """A plain array or Python scalar operand is a constant: the op's value
    is numpy's, bit for bit, and only the Tensor operand joins the graph and
    gets a gradient."""

    @pytest.mark.parametrize("name, op, t_shape, c_shape", _CONSTANT_CASES)
    def test_value_and_gradient(self, name, op, t_shape, c_shape):
        rng = np.random.default_rng(11)
        x0, c = rng.normal(size=t_shape), rng.normal(size=c_shape)
        want = op(x0, c)
        holder = SimpleNamespace(params=ad.ParameterStore([("x", x0)]))
        x = holder.params["x"]
        out = op(x, c)
        assert np.array_equal(out.data, want)
        assert out._parents == (x,)
        r = rng.normal(size=want.shape)
        c_before = c.copy()
        assert policy_grad_check(holder, lambda: (op(x, c) * r).sum(), rng) < 1e-6
        assert np.array_equal(c, c_before)

    def test_python_scalars(self):
        x0 = np.random.default_rng(15).normal(size=(2, 3))
        t = Tensor(x0)
        for out, want in ((t + 0.5, x0 + 0.5), (t * -2.0, x0 * -2.0), (t - 1.5, x0 - 1.5)):
            assert out._parents == (t,)
            assert np.array_equal(out.data, want)
        check_grad(lambda t: ((t - 1.5) * 3.0 + 2.0).sum(), x0)

    @pytest.mark.parametrize("op, t_shape, c_shape", [
        (lambda t, c: t + c, (2, 3), (4, 5)),
        (lambda t, c: t * c, (2, 3), (4, 5)),
        (lambda t, c: t - c, (2, 3), (4, 5)),
        (lambda t, c: t @ c, (2, 3), (4, 5)),
        (lambda t, c: c @ t, (2, 3), (4, 5)),
        (lambda t, c: t @ c, (2, 3), (3,)),
        (lambda t, c: c @ t, (3, 5, 2), (2, 4, 5)),
    ])
    def test_shape_mismatch_raises(self, op, t_shape, c_shape):
        with pytest.raises(ad.ShapeError):
            op(Tensor(np.zeros(t_shape)), np.zeros(c_shape))


def test_nonfinite_rejection():
    with pytest.raises(ad.NonFiniteError):
        ad.backward(Tensor(np.array([1.0, np.nan])).sum())
    with pytest.raises(ad.NonFiniteError):
        Tensor(np.array([-1.0])).log()


def test_backward_is_deterministic():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(6, 6))
    grads = []
    for _ in range(2):
        t = Tensor(x0.copy())
        loss = ((t @ t.mT).softmax() * 0.5).sum()
        ad.backward(loss)
        grads.append(t.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_backward_zeroes_unreachable_params():
    store = ad.ParameterStore([("a", np.ones(3)), ("b", np.ones(3))])
    loss = (store["a"] * 2.0).sum()
    ad.backward(loss, store)
    assert np.array_equal(store["b"].grad, np.zeros(3))
    assert np.array_equal(store["a"].grad, np.full(3, 2.0))


class TestParameterStore:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            ad.ParameterStore([("w", np.zeros(2)), ("w", np.zeros(2))])

    def test_load_unknown_and_shape(self):
        s = ad.ParameterStore([("w", np.zeros((2, 2)))])
        with pytest.raises(KeyError):
            s.load_values({"nope": np.zeros(2)})
        with pytest.raises(ad.ShapeError):
            s.load_values({"w": np.zeros(3)})

    def test_rejected_load_leaves_values_untouched(self):
        s = ad.ParameterStore([("a", np.zeros(2)), ("b", np.zeros(2))])
        with pytest.raises(KeyError, match="zzz"):
            s.load_values({"a": np.ones(2), "b": np.ones(2), "zzz": np.ones(2)})
        with pytest.raises(ad.ShapeError, match="'b'"):
            s.load_values({"a": np.ones(2), "b": np.ones(3)})
        assert np.array_equal(s["a"].data, np.zeros(2))
        assert np.array_equal(s["b"].data, np.zeros(2))

    def test_copy_load_round_trip(self):
        s = ad.ParameterStore([("w", np.arange(4.0))])
        vals = s.copy_values()
        vals["w"] += 1
        s.load_values(vals)
        assert np.array_equal(s["w"].data, np.arange(4.0) + 1)


class TestAdam:
    def test_first_step_matches_manual(self):
        s = ad.ParameterStore([("w", np.array([1.0, 2.0]))])
        opt = ad.Adam(s, lr=0.1)
        s["w"].grad[...] = np.array([0.5, -0.5])
        opt.step()
        # first Adam step moves each coordinate by ~lr in the gradient direction
        expect = np.array([1.0, 2.0]) - 0.1 * np.array([0.5, -0.5]) / (
            np.abs(np.array([0.5, -0.5])) + 1e-8)
        assert np.allclose(s["w"].data, expect, atol=1e-7)

    def test_cosine_schedule_endpoints(self):
        s = ad.ParameterStore([("w", np.zeros(1))])
        opt = ad.Adam(s, lr=2e-4, schedule="cosine", total_steps=10)
        assert opt.current_lr() == pytest.approx(2e-4)
        opt.step_count = 5
        assert opt.current_lr() == pytest.approx(1e-4)
        opt.step_count = 10
        assert opt.current_lr() == pytest.approx(0.0, abs=1e-20)

    def test_nonfinite_grad_aborts_whole_step(self):
        s = ad.ParameterStore([("a", np.array([1.0])), ("b", np.array([1.0]))])
        opt = ad.Adam(s, lr=0.1)
        s["a"].grad[...] = np.array([0.5])
        s["b"].grad[...] = np.array([np.inf])
        with pytest.raises(ad.NonFiniteError):
            opt.step()
        assert s["a"].data.item() == 1.0  # no partial update

    def test_trainable_subset_freezes_others(self):
        s = ad.ParameterStore([("a", np.array([1.0])), ("b", np.array([1.0]))])
        opt = ad.Adam(s, lr=0.1)
        s["a"].grad[...] = np.array([1.0])
        s["b"].grad[...] = np.array([1.0])
        opt.step(trainable=["a"])
        assert s["a"].data.item() != 1.0
        assert s["b"].data.item() == 1.0

    def test_bad_config(self):
        s = ad.ParameterStore([("w", np.zeros(1))])
        with pytest.raises(ValueError):
            ad.Adam(s, lr=0.0)
        with pytest.raises(ValueError):
            ad.Adam(s, lr=0.1, schedule="linear")
        with pytest.raises(ValueError):
            ad.Adam(s, lr=0.1, schedule="cosine", total_steps=0)


def reference_adam_step(values, grads, m, v, names, lr, t):
    """The per-parameter Adam loop the fused step replaced, on name -> array
    dicts: every named gradient is checked first, then each parameter gets
    about ten numpy ops of its own."""
    for name in names:
        if not np.all(np.isfinite(grads[name])):
            raise ad.NonFiniteError(f"non-finite gradient for {name!r}; step aborted")
    b1, b2 = ad.Adam.BETA1, ad.Adam.BETA2
    for name in names:
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        mhat = m[name] / (1.0 - b1 ** t)
        vhat = v[name] / (1.0 - b2 ** t)
        values[name] = values[name] - lr * mhat / (np.sqrt(vhat) + ad.Adam.EPS)


def reference_lr(lr0, schedule, total_steps, step_count):
    if schedule == "constant":
        return lr0
    frac = min(step_count, total_steps) / total_steps
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * frac))


def _tiny_policy():
    rng = np.random.default_rng(5)
    return pol.Policy(pol.PolicyConfig(feature_dim=8, k=4),
                      vocab.TrajectoryVocabulary(rng.normal(0, 3.0, size=(4, 6, 2))),
                      vocab.ControlVocabulary())


def _trainable_sets(policy):
    """Every pretrain stage's trainable set, in `training.pretrain`'s
    order, and a set that is not contiguous in the store."""
    names = policy.params.names()
    return {
        "trajectory": policy.param_names(policy.ENCODER_PREFIXES + policy.TRAJ_PREFIXES),
        "control": policy.param_names(policy.CTRL_PREFIXES),
        "joint": None,
        "every_third": names[::3],
    }


class TestAdamMatchesReference:
    """The fused step over the store's buffer ranges equals the old
    per-parameter loop bit for bit: values, moments, frozen parameters and
    the non-finite error."""

    def moments(self, opt, name):
        (a, b), = opt.params.spans([name])
        shape = opt.params[name].data.shape
        return opt._m[a:b].reshape(shape), opt._v[a:b].reshape(shape)

    def run(self, schedule, stages):
        policy = _tiny_policy()
        store = policy.params
        sets = _trainable_sets(policy)
        rng = np.random.default_rng(11)
        opt = ad.Adam(store, lr=3e-2, schedule=schedule, total_steps=7)
        values = store.copy_values()
        m = {n: np.zeros_like(a) for n, a in values.items()}
        v = {n: np.zeros_like(a) for n, a in values.items()}
        t = 0
        for stage in stages:
            trainable = sets[stage]
            names = store.names() if trainable is None else trainable
            for _ in range(4):
                for n in store.names():
                    store[n].grad[...] = rng.normal(0, 10.0 ** rng.integers(-6, 3),
                                                    store[n].grad.shape)
                grads = {n: store[n].grad.copy() for n in names}
                lr = reference_lr(3e-2, schedule, 7, t)
                t += 1
                opt.step(trainable=trainable)
                reference_adam_step(values, grads, m, v, names, lr, t)
                for n in store.names():
                    assert store[n].data.tobytes() == values[n].tobytes(), (stage, n)
                    got_m, got_v = self.moments(opt, n)
                    assert got_m.tobytes() == m[n].tobytes(), (stage, n)
                    assert got_v.tobytes() == v[n].tobytes(), (stage, n)

    @pytest.mark.parametrize("schedule", ["constant", "cosine"])
    def test_pretrain_stages(self, schedule):
        # One optimizer across the stages, so the frozen parameters of each
        # stage hold moments the step must leave untouched.
        self.run(schedule, ["joint", "trajectory", "control", "joint"])

    @pytest.mark.parametrize("schedule", ["constant", "cosine"])
    def test_set_that_is_not_contiguous(self, schedule):
        policy = _tiny_policy()
        assert len(policy.params.spans(_trainable_sets(policy)["every_third"])) > 1
        self.run(schedule, ["joint", "every_third", "control"])

    def test_spans_merge_adjacent_parameters(self):
        policy = _tiny_policy()
        store = policy.params
        sets = {k: v or store.names() for k, v in _trainable_sets(policy).items()}
        assert len(store.spans(sets["trajectory"])) == 1
        assert len(store.spans(sets["control"])) == 1
        assert store.spans(sets["joint"]) == [(0, store.values.size)]

    def test_non_finite_gradient_names_first_bad_parameter(self):
        store = _tiny_policy().params
        trainable = store.names()[::3]
        opt = ad.Adam(store, lr=0.1)
        for n in store.names():
            store[n].grad[...] = 1.0
        opt.step(trainable=trainable)
        before = store.values.copy(), opt._m.copy(), opt._v.copy()
        store[store.names()[1]].grad.flat[0] = np.nan     # frozen: not checked
        store[trainable[2]].grad.flat[-1] = np.inf
        store[trainable[4]].grad.flat[0] = np.nan
        with pytest.raises(ad.NonFiniteError) as err:
            opt.step(trainable=trainable)
        assert str(err.value) == f"non-finite gradient for {trainable[2]!r}; step aborted"
        for got, want in zip((store.values, opt._m, opt._v), before):
            assert got.tobytes() == want.tobytes()
        assert opt.step_count == 1
        store[trainable[2]].grad[...] = 1.0
        store[trainable[4]].grad[...] = 1.0
        opt.step(trainable=trainable)     # a frozen nan gradient aborts nothing


class TestFlatViews:
    """Each parameter's `data` and `grad` stay views of the store's two
    buffers, whatever writes the values."""

    def assert_views(self, store):
        for name, t in store.items():
            (a, b), = store.spans([name])
            assert t.data.base is store.values and t.grad.base is store.grads, name
            assert np.shares_memory(t.data, store.values[a:b])
            assert np.shares_memory(t.grad, store.grads[a:b])
            assert store.arrays[name] is t.data

    def store(self):
        rng = np.random.default_rng(2)
        return ad.ParameterStore([("w", rng.normal(size=(3, 4))), ("b", rng.normal(size=4)),
                                  ("s", rng.normal(size=()))])

    def test_after_load_adam_and_zero_grad(self):
        s = self.store()
        self.assert_views(s)
        s.load_values({n: a + 1.0 for n, a in s.copy_values().items()})
        self.assert_views(s)
        opt = ad.Adam(s, lr=0.1)
        for _ in range(3):
            loss = ((s["w"] @ s["b"].reshape(4, 1)) * s["s"]).sum()
            ad.backward(loss, s)
            opt.step()
        self.assert_views(s)
        s.zero_grad()
        assert not s.grads.any()
        self.assert_views(s)

    def test_pickle_round_trip(self):
        s = self.store()
        s["w"].grad[...] = 3.0
        back = pickle.loads(pickle.dumps(s))
        self.assert_views(back)
        assert back.names() == s.names()
        assert back.values.tobytes() == s.values.tobytes()
        assert back.grads.tobytes() == s.grads.tobytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        s = ad.ParameterStore([("layer.w", rng.normal(size=(3, 4))),
                               ("layer.b", rng.normal(size=4))])
        path = tmp_path / "p.ckpt"
        ad.save_checkpoint(path, s, meta={"k": "8"})
        values, meta = ad.load_checkpoint(path)
        assert meta["k"] == "8"
        for name, t in s.items():
            assert np.array_equal(values[name], t.data)

    def test_save_is_byte_deterministic(self, tmp_path):
        s = ad.ParameterStore([("w", np.arange(6.0).reshape(2, 3))])
        ad.save_checkpoint(tmp_path / "a", s, meta={"x": 1})
        ad.save_checkpoint(tmp_path / "b", s, meta={"x": 1})
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_bad_magic_and_truncation(self, tmp_path):
        s = ad.ParameterStore([("w", np.arange(4.0))])
        path = tmp_path / "p.ckpt"
        ad.save_checkpoint(path, s)
        raw = path.read_bytes()
        (tmp_path / "bad").write_bytes(b"NOPE" + raw[10:])
        with pytest.raises(ValueError, match="magic"):
            ad.load_checkpoint(tmp_path / "bad")
        (tmp_path / "trunc").write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            ad.load_checkpoint(tmp_path / "trunc")

    def test_nonfinite_value_rejected_with_path_and_parameter(self, tmp_path):
        path = tmp_path / "nan.ckpt"
        ad.save_checkpoint(path, {"layer.w": np.ones((2, 3)),
                                  "layer.b": np.array([0.0, np.nan, 1.0])})
        with pytest.raises(ValueError) as err:
            ad.load_checkpoint(path)
        assert str(err.value) == f"{path}: non-finite values in parameter 'layer.b'"
