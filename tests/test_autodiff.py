import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivelab import autodiff as ad
from drivelab.autodiff import Tensor


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
        check_grad(lambda t: ad.concat([t, t.transpose().transpose()]).sum(), x0)

    def test_attention(self):
        q0 = self.rng.normal(size=(3, 4))
        k = Tensor(self.rng.normal(size=(5, 4)))
        v = Tensor(self.rng.normal(size=(5, 4)))
        check_grad(lambda t: ad.scaled_dot_attention(t, k, v).sum(), q0)

    def test_broadcast_unbroadcast(self):
        x0 = self.rng.normal(size=(1, 4))
        w = self.rng.normal(size=(3, 4))
        check_grad(lambda t: (t + w).sum(), x0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(vals):
    out = Tensor(np.array(vals)).softmax()
    assert abs(out.data.sum() - 1.0) < 1e-12


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


def test_nonfinite_rejection():
    with pytest.raises(ad.NonFiniteError):
        Tensor(np.array([1.0, np.nan]))
    with pytest.raises(ad.NonFiniteError):
        Tensor(np.array([-1.0])).log()


def test_backward_is_deterministic():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(6, 6))
    grads = []
    for _ in range(2):
        t = Tensor(x0.copy())
        loss = ((t @ t.transpose()).softmax() * 0.5).sum()
        ad.backward(loss)
        grads.append(t.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_backward_zeroes_unreachable_params():
    store = ad.ParameterStore()
    a = store.add("a", np.ones(3))
    store.add("b", np.ones(3))
    loss = (a * 2.0).sum()
    ad.backward(loss, store)
    assert np.array_equal(store["b"].grad, np.zeros(3))
    assert np.array_equal(store["a"].grad, np.full(3, 2.0))


class TestParameterStore:
    def test_duplicate_rejected(self):
        s = ad.ParameterStore()
        s.add("w", np.zeros(2))
        with pytest.raises(ValueError):
            s.add("w", np.zeros(2))

    def test_load_unknown_and_shape(self):
        s = ad.ParameterStore()
        s.add("w", np.zeros((2, 2)))
        with pytest.raises(KeyError):
            s.load_values({"nope": np.zeros(2)})
        with pytest.raises(ad.ShapeError):
            s.load_values({"w": np.zeros(3)})

    def test_rejected_load_leaves_values_untouched(self):
        s = ad.ParameterStore()
        s.add("a", np.zeros(2))
        s.add("b", np.zeros(2))
        with pytest.raises(KeyError, match="zzz"):
            s.load_values({"a": np.ones(2), "b": np.ones(2), "zzz": np.ones(2)})
        with pytest.raises(ad.ShapeError, match="'b'"):
            s.load_values({"a": np.ones(2), "b": np.ones(3)})
        assert np.array_equal(s["a"].data, np.zeros(2))
        assert np.array_equal(s["b"].data, np.zeros(2))

    def test_copy_load_round_trip(self):
        s = ad.ParameterStore()
        s.add("w", np.arange(4.0))
        vals = s.copy_values()
        vals["w"] += 1
        s.load_values(vals)
        assert np.array_equal(s["w"].data, np.arange(4.0) + 1)


class TestAdam:
    def test_first_step_matches_manual(self):
        s = ad.ParameterStore()
        s.add("w", np.array([1.0, 2.0]))
        opt = ad.Adam(s, lr=0.1)
        s["w"].grad = np.array([0.5, -0.5])
        opt.step()
        # first Adam step moves each coordinate by ~lr in the gradient direction
        expect = np.array([1.0, 2.0]) - 0.1 * np.array([0.5, -0.5]) / (
            np.abs(np.array([0.5, -0.5])) + 1e-8)
        assert np.allclose(s["w"].data, expect, atol=1e-7)

    def test_cosine_schedule_endpoints(self):
        s = ad.ParameterStore()
        s.add("w", np.zeros(1))
        opt = ad.Adam(s, lr=2e-4, schedule="cosine", total_steps=10)
        assert opt.current_lr() == pytest.approx(2e-4)
        opt.step_count = 5
        assert opt.current_lr() == pytest.approx(1e-4)
        opt.step_count = 10
        assert opt.current_lr() == pytest.approx(0.0, abs=1e-20)

    def test_nonfinite_grad_aborts_whole_step(self):
        s = ad.ParameterStore()
        s.add("a", np.array([1.0]))
        s.add("b", np.array([1.0]))
        opt = ad.Adam(s, lr=0.1)
        s["a"].grad = np.array([0.5])
        s["b"].grad = np.array([np.inf])
        with pytest.raises(ad.NonFiniteError):
            opt.step()
        assert s["a"].data.item() == 1.0  # no partial update

    def test_trainable_subset_freezes_others(self):
        s = ad.ParameterStore()
        s.add("a", np.array([1.0]))
        s.add("b", np.array([1.0]))
        opt = ad.Adam(s, lr=0.1)
        s["a"].grad = np.array([1.0])
        s["b"].grad = np.array([1.0])
        opt.step(trainable=["a"])
        assert s["a"].data.item() != 1.0
        assert s["b"].data.item() == 1.0

    def test_bad_config(self):
        s = ad.ParameterStore()
        s.add("w", np.zeros(1))
        with pytest.raises(ValueError):
            ad.Adam(s, lr=0.0)
        with pytest.raises(ValueError):
            ad.Adam(s, lr=0.1, schedule="linear")
        with pytest.raises(ValueError):
            ad.Adam(s, lr=0.1, schedule="cosine", total_steps=0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        s = ad.ParameterStore()
        rng = np.random.default_rng(0)
        s.add("layer.w", rng.normal(size=(3, 4)))
        s.add("layer.b", rng.normal(size=4))
        path = tmp_path / "p.ckpt"
        ad.save_checkpoint(path, s, meta={"k": "8"})
        values, meta = ad.load_checkpoint(path)
        assert meta["k"] == "8"
        for name, t in s.items():
            assert np.array_equal(values[name], t.data)

    def test_save_is_byte_deterministic(self, tmp_path):
        s = ad.ParameterStore()
        s.add("w", np.arange(6.0).reshape(2, 3))
        ad.save_checkpoint(tmp_path / "a", s, meta={"x": 1})
        ad.save_checkpoint(tmp_path / "b", s, meta={"x": 1})
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_bad_magic_and_truncation(self, tmp_path):
        s = ad.ParameterStore()
        s.add("w", np.arange(4.0))
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
