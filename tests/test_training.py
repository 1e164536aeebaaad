import copy
import math
import pickle
import platform
import resource

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivelab import autodiff as ad
from drivelab import dataset as ds
from drivelab import expert as xp
from drivelab import metrics as bench
from drivelab import policy as pol
from drivelab import training as tr
from drivelab import vocab
from drivelab import world as sim
from drivelab.autodiff import Tensor

import chain_ops
from gradcheck_util import policy_grad_check

CVOCAB = vocab.ControlVocabulary()


def tiny_policy(seed=0, k=4, dim=8):
    rng = np.random.default_rng(42)
    centers = rng.normal(0, 3.0, size=(k, 6, 2))
    cfg = pol.PolicyConfig(feature_dim=dim, k=k, init_seed=seed)
    return pol.Policy(cfg, vocab.TrajectoryVocabulary(centers), CVOCAB)


def forward_row(policy, sample):
    """Row 0 of `forward([sample])`: each output distribution of the batch
    of one as a 1-D Tensor."""
    out = policy.forward([sample])
    return {"d_traj": out["d_traj"].reshape(-1),
            "d_ctrl": tuple(d.reshape(-1) for d in out["d_ctrl"])}


def nearest(tv, waypoints):
    """The vocabulary index nearest one (6, 2) trajectory."""
    return int(tv.nearest_index(waypoints[None])[0])


def make_sample(rng, scenario_id="StopSign:0", time=0.0):
    return ds.DemoSample(
        agent_feats=rng.normal(size=(2, 7)), map_feats=rng.normal(size=(4, 12)),
        cmd_onehot=np.eye(7)[3], traj_waypoints=rng.normal(0, 3.0, size=(6, 2)),
        ctrl_indices=(int(rng.integers(5)), int(rng.integers(2)), int(rng.integers(9))),
        scenario_id=scenario_id, time=time)


def make_takeover(rng, seg="s1"):
    base = make_sample(rng)
    return ds.TakeoverSample(
        agent_feats=base.agent_feats, map_feats=base.map_feats,
        cmd_onehot=base.cmd_onehot, traj_waypoints=base.traj_waypoints,
        ctrl_indices=base.ctrl_indices, scenario_id=base.scenario_id,
        time=base.time, segment_id=seg, round_index=1, ego_speed=3.0)


class TestKlLoss:
    def test_identity_is_zero(self):
        p = Tensor(np.array([0.5, 0.5]))
        assert tr.kl_loss(np.array([0.5, 0.5]), p).data.item() == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_value(self):
        p = Tensor(np.array([0.5, 0.5]))
        got = tr.kl_loss(np.array([0.7, 0.3]), p).data.item()
        expect = 0.7 * math.log(0.7 / 0.5) + 0.3 * math.log(0.3 / 0.5)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.082283, abs=1e-6)

    def test_one_hot_vs_uniform_is_log_n(self):
        for n in (2, 5, 9):
            p = Tensor(np.full(n, 1.0 / n))
            t = np.zeros(n); t[1] = 1.0
            assert tr.kl_loss(t, p).data.item() == pytest.approx(math.log(n), abs=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = rng.dirichlet(np.ones(6))
            p = rng.dirichlet(np.ones(6))
            assert tr.kl_loss(t, Tensor(p)).data.item() >= -1e-12

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError, match="support"):
            tr.kl_loss(np.array([0.5, 0.5]), Tensor(np.array([0.2, 0.3, 0.5])))
        with pytest.raises(ValueError, match="support"):
            tr.kl_loss(np.array([0.5, 0.5]), Tensor(np.array([1.0, 0.0])))

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            tr.kl_loss(np.array([0.9, 0.3]), Tensor(np.array([0.5, 0.5])))

    def test_nan_target_rejected(self):
        # nan fails every comparison, so it must fail the check too.
        with pytest.raises(ValueError, match="not a distribution"):
            tr.kl_loss(np.full(4, np.nan), Tensor(np.full(4, 0.25)))
        with pytest.raises(ValueError, match="not a distribution"):
            tr.kl_loss(np.array([[0.5, 0.5, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0]]),
                       Tensor(np.full((2, 4), 0.25)))


class TestPreferenceLosses:
    def test_simpo_oracle_values(self):
        d = Tensor(np.array([0.2, 0.5, 0.3]))
        # independent closed form: softplus(-(beta ln(pw/pl) - gamma))
        expect = math.log1p(math.exp(-(0.1 * math.log(0.2 / 0.5) - 0.1)))
        got = tr.simpo_from_dist(d, 0, 1, 0.1, 0.1).data.item()
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.7935449, abs=1e-6)

    def test_simpo_equal_probs(self):
        d = Tensor(np.array([0.25, 0.25, 0.5]))
        got = tr.simpo_from_dist(d, 0, 1, 0.1, 0.1).data.item()
        assert got == pytest.approx(math.log1p(math.exp(0.1)), abs=1e-12)
        assert got == pytest.approx(0.744397, abs=1e-6)

    def test_simpo_decreasing_in_winner_prob(self):
        losses = []
        for pw in (0.1, 0.2, 0.3, 0.4):
            d = Tensor(np.array([pw, 0.5, 0.5 - pw]))
            losses.append(tr.simpo_from_dist(d, 0, 1, 0.1, 0.1).data.item())
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_po_is_simpo_plus_constant_with_equal_grads(self):
        d1 = Tensor(np.array([0.2, 0.5, 0.3]))
        d2 = Tensor(np.array([0.2, 0.5, 0.3]))
        l_simpo = tr.simpo_from_dist(d1, 0, 1, 0.1, 0.1)
        l_po = tr.po_from_dist(d2, 0, 1, 0.1, 0.1)
        const = l_po.data.item() - l_simpo.data.item()
        assert const == pytest.approx(math.log(1.0 / (1.0 + math.exp(0.1))), abs=1e-12)
        ad.backward(l_simpo)
        ad.backward(l_po)
        assert np.array_equal(d1.grad, d2.grad)

    def test_po_zero_when_expert_is_argmax(self):
        d = Tensor(np.array([0.2, 0.5, 0.3]))
        loss = tr.po_from_dist(d, 1, 1, 0.1, 0.1)
        assert loss.data.item() == 0.0
        ad.backward(loss)
        assert np.array_equal(d.grad, np.zeros(3))

    def test_po_nonnegative_with_recomputed_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            p = rng.dirichlet(np.ones(5))
            y_l = int(np.argmax(p))
            y_w = int(rng.integers(5))
            val = tr.po_from_dist(Tensor(p), y_w, y_l, 0.1, 0.1).data.item()
            assert val >= 0.0

    def test_underflow_clamped_and_flagged(self):
        p = np.array([1e-30, 1.0 - 1e-30])
        flags = []
        loss = tr.simpo_from_dist(Tensor(p), 0, 1, 0.1, 0.1, flags=flags)
        assert flags == [0]
        assert np.isfinite(loss.data.item())

    def test_pair_api_recomputes_argmax(self):
        policy = tiny_policy()
        cfg = tr.TrainConfig()
        rng = np.random.default_rng(1)
        sample = make_takeover(rng)
        loss = tr._pair_losses(policy, [sample], cfg)
        out = forward_row(policy, sample)
        winners = (nearest(policy.traj_vocab, sample.traj_waypoints),
                   *sample.ctrl_indices)
        dists = (out["d_traj"], *out["d_ctrl"])
        ref = np.mean([tr.po_from_dist(d, y_w, int(np.argmax(d.data)),
                                       cfg.beta, cfg.gamma).data.item()
                       for d, y_w in zip(dists, winners)])
        assert loss.data.item() == pytest.approx(ref, abs=1e-12)


class TestSoftTarget:
    def test_sums_to_one_and_argmax_is_nearest(self):
        rng = np.random.default_rng(0)
        tv = vocab.TrajectoryVocabulary(rng.normal(0, 3.0, size=(8, 6, 2)))
        for _ in range(20):
            traj = rng.normal(0, 3.0, size=(6, 2))
            t = tr.soft_trajectory_target(tv, traj[None])[0]
            assert t.sum() == pytest.approx(1.0, abs=1e-12)
            assert int(np.argmax(t)) == nearest(tv, traj)


class TestGradientChecks:
    def test_all_losses_finite_difference(self):
        policy = tiny_policy()
        cfg = tr.TrainConfig()
        rng = np.random.default_rng(0)
        sample = make_sample(rng)
        takeover = make_takeover(rng)
        target = tr.soft_trajectory_target(policy.traj_vocab, sample.traj_waypoints[None])[0]

        def traj_kl():
            return tr.kl_loss(target, forward_row(policy, sample)["d_traj"])

        def ctrl_kl():
            out = forward_row(policy, sample)
            return tr.kl_loss(tr.one_hot(5, 2), out["d_ctrl"][0]) \
                + tr.kl_loss(tr.one_hot(9, 3), out["d_ctrl"][2])

        def dagger():
            return tr._batch_loss(policy, [sample, takeover], cfg)

        def simpo():
            out = forward_row(policy, sample)
            return tr.simpo_from_dist(out["d_traj"], 1, 0, cfg.beta, cfg.gamma)

        def po():
            return tr._pair_losses(policy, [takeover], cfg)

        for name, fn in (("traj_kl", traj_kl), ("ctrl_kl", ctrl_kl),
                         ("dagger", dagger), ("simpo", simpo), ("po", po)):
            err = policy_grad_check(policy, fn, rng, n_coords=25)
            assert err < 1e-4, f"{name}: max relative error {err}"


def reference_imitation_loss(policy, samples, cfg):
    """Per-sample imitation loss, one forward pass per sample, written with
    the Tensor ops: the mean over samples of the trajectory KL plus the
    three control KLs (each -ln pi(label) against a one-hot target)."""
    total = None
    for s in samples:
        out = forward_row(policy, s)
        t = tr.soft_trajectory_target(policy.traj_vocab, s.traj_waypoints[None], cfg.tau_label)[0]
        idx = np.flatnonzero(t > 0.0)
        loss = (chain_ops.log(chain_ops.take_rows(out["d_traj"], idx))
                * Tensor(t[idx])).sum() * -1.0 + float((t[idx] * np.log(t[idx])).sum())
        for dist, y in zip(out["d_ctrl"], s.ctrl_indices):
            loss = loss - chain_ops.log(ad.narrow(dist, y, 1))
        total = loss if total is None else total + loss
    return total * (1.0 / len(samples))


def reference_preference_loss(policy, samples, cfg, flags):
    """Per-sample compensated preference loss, written with the Tensor ops:
    per group -ln sigma(beta (ln pi(y_w) - ln pi(y_l)) - gamma) + ln sigma(-gamma),
    y_l the live argmax and an ln pi below the floor clamped to a constant;
    the mean over the four groups, then over samples."""
    shift = math.log(1.0 / (1.0 + math.exp(cfg.gamma)))
    total = None
    for s in samples:
        out = forward_row(policy, s)
        winners = (nearest(policy.traj_vocab, s.traj_waypoints), *s.ctrl_indices)
        loss = None
        for dist, y_w in zip((out["d_traj"], *out["d_ctrl"]), winners):
            lps = []
            for y in (y_w, int(np.argmax(dist.data))):
                p = ad.narrow(dist, y, 1)
                if p.data.item() < math.exp(tr.LOGPROB_FLOOR):
                    flags.append(y)
                    lps.append(Tensor(np.array([tr.LOGPROB_FLOOR])))
                else:
                    lps.append(chain_ops.log(p))
            z = (lps[0] - lps[1]) * cfg.beta - cfg.gamma
            term = chain_ops.log(ad.sigmoid(z)) * -1.0 + shift
            loss = term if loss is None else loss + term
        loss = loss * 0.25
        total = loss if total is None else total + loss
    return total * (1.0 / len(samples))


def random_samples(rng, n):
    """n takeover samples with 0-N_a agents, 1-N_m map rows and any command."""
    return [ds.TakeoverSample(
        agent_feats=rng.normal(0, 3.0, (int(rng.integers(0, pol.PolicyConfig.n_agents + 1)),
                                        pol.AGENT_FEATURES)),
        map_feats=rng.normal(0, 3.0, (int(rng.integers(1, pol.PolicyConfig.n_map + 1)),
                                      pol.MAP_FEATURES)),
        cmd_onehot=pol.command_onehot(sim.COMMANDS[int(rng.integers(len(sim.COMMANDS)))]),
        traj_waypoints=rng.normal(0, 3.0, size=(6, 2)),
        ctrl_indices=(int(rng.integers(5)), int(rng.integers(2)), int(rng.integers(9))),
        scenario_id="StopSign:0", time=0.0, segment_id=f"s{i}", round_index=1)
        for i in range(n)]


def _loss_and_grads(policy, loss):
    ad.backward(loss, policy.params)
    return loss.data.item(), {k: t.grad.copy() for k, t in policy.params.items()}


def _assert_close(got, want, what):
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= 1e-12 * scale, what


class TestBatchedLossesMatchPerSample:
    """One graph per batch gives the per-sample losses, gradients and
    underflow clamp counts, over batches padded to their own largest agent
    and map counts (an epoch's short last batch included)."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 16), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_losses_and_gradients(self, n, batch_size, data_seed, sharpen):
        rng = np.random.default_rng(data_seed)
        policy = tiny_policy(seed=int(rng.integers(100)), k=8)
        samples = random_samples(rng, n)
        cfg = tr.TrainConfig(batch_size=batch_size)
        batches = [samples[i:i + batch_size] for i in range(0, n, batch_size)]
        for batch in batches:
            got, got_grads = _loss_and_grads(policy, tr._batch_loss(policy, batch, cfg))
            want, want_grads = _loss_and_grads(
                policy, reference_imitation_loss(policy, batch, cfg))
            _assert_close(np.array(got), np.array(want), "imitation loss")
            for k in want_grads:
                _assert_close(got_grads[k], want_grads[k], f"imitation d/d{k}")

        if sharpen:     # push some probabilities under the ln floor
            policy.params["traj_head.w2"].data *= 20.0
            policy.params["ctrl_head.w2"].data *= 1000.0
        for batch in batches:
            flags, ref_flags = [], []
            got, got_grads = _loss_and_grads(
                policy, tr._pair_losses(policy, batch, cfg, flags))
            want, want_grads = _loss_and_grads(
                policy, reference_preference_loss(policy, batch, cfg, ref_flags))
            _assert_close(np.array(got), np.array(want), "preference loss")
            for k in want_grads:
                _assert_close(got_grads[k], want_grads[k], f"preference d/d{k}")
            assert sorted(flags) == sorted(ref_flags)


def _copying_accum(self, g):
    """The accumulation rule the copy-free one replaced: a node's first
    gradient is copied, later ones are added in place into the copy."""
    if self.grad is None:
        self.grad = np.array(g, dtype=np.float64)
    else:
        self.grad += g


def _fan_out_graph(store):
    """A graph whose nodes hand views of their gradients on: `s = a + b`
    gives a and b its gradient array itself, the concat hands five views of
    its gradient to four nodes (a twice), reshape, the transpose and sum
    hand views on, and a, b and s receive more gradient later in backward's
    order."""
    x = Tensor(np.linspace(-2.0, 2.0, 12).reshape(4, 3))
    h = x @ store["w"]
    a = chain_ops.relu(h)
    b = ad.sigmoid(h)
    s = a + b
    c = chain_ops.transpose(s).reshape(4, 3)
    n = ad.concat([a, b, s, c, a])
    loss = (n * n).sum() + (s.sum(axis=-1) * a.sum(axis=-1)).sum() + (b * s).sum()
    return loss, {"x": x, "h": h, "a": a, "b": b, "s": s, "c": c, "n": n}


class TestCopyFreeAccumulation:
    """Storing a node's first gradient without a copy and adding later ones
    out of place gives the copying rule's gradients bit for bit."""

    def both_rules(self, monkeypatch, build):
        """build() -> (loss, {name: node}); the loss and every node's and
        parameter's gradient under each rule."""
        runs = []
        for rule in (None, _copying_accum):
            with monkeypatch.context() as mp:
                if rule is not None:
                    mp.setattr(Tensor, "_accum", rule)
                loss, nodes, store = build()
                ad.backward(loss, store)
                grads = {k: t.grad.tobytes() for k, t in nodes.items()}
                grads.update({k: t.grad.tobytes() for k, t in store.items()})
                runs.append((loss.data.tobytes(), grads))
        return runs

    @pytest.mark.parametrize("loss", ["imitation", "preference"])
    def test_batched_losses(self, monkeypatch, loss):
        rng = np.random.default_rng(3)
        policy = tiny_policy(seed=1, k=8)
        policy.params["traj_head.w2"].data[...] *= 20.0   # some clamped probabilities
        cfg = tr.TrainConfig()
        samples = random_samples(rng, 12)
        losses = {"imitation": lambda: tr._batch_loss(policy, samples, cfg),
                  "preference": lambda: tr._pair_losses(policy, samples, cfg)}
        new, old = self.both_rules(
            monkeypatch, lambda: (losses[loss](), {}, policy.params))
        assert new == old

    def test_gradient_views_handed_to_many_consumers(self, monkeypatch):
        store = ad.ParameterStore([("w", np.random.default_rng(4).normal(size=(3, 3)))])
        new, old = self.both_rules(monkeypatch, lambda: (*_fan_out_graph(store), store))
        assert new == old
        assert len(new[1]) == 8


def _graph_nodes(loss):
    """The number of nodes with parents that `loss` reaches, itself included."""
    nodes, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if node._parents and node not in nodes:
            nodes.add(node)
            stack.extend(node._parents)
    return len(nodes)


def _fused_graph_losses(policy, cfg):
    """One imitation and one preference loss over a batch of 16 samples
    with 0 to N_a agents and 1 to N_m map rows, so padded and masked."""
    samples = random_samples(np.random.default_rng(12), 16)
    return {"imitation": lambda: tr._batch_loss(policy, samples, cfg),
            "preference": lambda: tr._pair_losses(policy, samples, cfg, [])}


class TestFusedGraph:
    """The network's layers and attention, and the losses' picks, are one
    node each (`autodiff.mlp2`, `scaled_dot_attention`, `kl_div`, `log_pick`
    and `log_sigmoid`), and give the primitive chains' floats."""

    @pytest.mark.parametrize("loss", ["imitation", "preference"])
    def test_matches_primitive_chain(self, monkeypatch, loss):
        """The loss and every parameter's gradient are those of the graph
        built from the primitive chains, bit for bit: the fused backward
        passes add each node's gradients in the chain's order."""
        policy = tiny_policy(seed=2, k=8)
        policy.params["ctrl_head.w2"].data[...] *= 1000.0   # some clamped picks
        build = _fused_graph_losses(policy, tr.TrainConfig())[loss]
        runs = []
        for patched in (False, True):
            with monkeypatch.context() as mp:
                if patched:
                    for name in chain_ops.FUSED:
                        mp.setattr(ad, name, getattr(chain_ops, name))
                value, grads = _loss_and_grads(policy, build())
                runs.append((np.float64(value).tobytes(),
                             {k: g.tobytes() for k, g in grads.items()}))
        assert runs[0] == runs[1]

    def test_node_counts(self):
        """Pinned so that a change that splits an op again shows: the
        primitive chains built 118 and 151 nodes."""
        builds = _fused_graph_losses(tiny_policy(seed=2, k=8), tr.TrainConfig())
        assert {name: _graph_nodes(build()) for name, build in builds.items()} \
            == {"imitation": 50, "preference": 91}


def _graph_leaves(loss):
    """Every node without parents that `loss` reaches through its graph."""
    leaves, seen, stack = set(), set(), [loss]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node._parents)
        if not node._parents:
            leaves.add(node)
    return leaves


@pytest.mark.parametrize("loss", ["imitation", "preference"])
def test_every_graph_leaf_is_a_parameter(loss):
    """Inputs, padding, targets, clamp masks and the positional encoding are
    constants: a training loss's graph has the store's parameters as its only
    leaves, so backward computes no gradient that nothing reads."""
    policy = tiny_policy(seed=1, k=8)
    if loss == "preference":     # some clamped probabilities
        policy.params["ctrl_head.w2"].data[...] *= 1000.0
    samples = random_samples(np.random.default_rng(10), 12)
    cfg, flags = tr.TrainConfig(), []
    losses = {"imitation": lambda: tr._batch_loss(policy, samples, cfg),
              "preference": lambda: tr._pair_losses(policy, samples, cfg, flags)}
    leaves = _graph_leaves(losses[loss]())
    assert leaves <= {t for _, t in policy.params.items()}
    assert all(isinstance(t, ad._Parameter) for t in leaves)
    assert len(leaves) == len(policy.params.names())
    assert loss == "imitation" or flags


class TestPickledPolicy:
    """A policy sent to `--jobs` workers comes back with its parameters as
    views of its store and trains to the same bits as the original."""

    def test_views_intact_and_same_training(self):
        rng = np.random.default_rng(6)
        demo = ds.Dataset([make_sample(rng) for _ in range(8)], kind="demo")
        cfg = tr.TrainConfig(pretrain_epochs=2, batch_size=3, seed=0)
        policy = tiny_policy(k=4)
        clone = pickle.loads(pickle.dumps(policy))
        for p in (policy, clone):
            tr.pretrain(p, demo, cfg)
            for name, t in p.params.items():
                assert t.data.base is p.params.values, name
                assert t.grad.base is p.params.grads, name
                assert p.params.arrays[name] is t.data, name
        assert clone.params.values.tobytes() == policy.params.values.tobytes()
        assert clone.params.values is not policy.params.values


@pytest.fixture(scope="module")
def small_world_data():
    suite = [sim.ScenarioSpec("EmergencyBrake", 0), sim.ScenarioSpec("StopSign", 0)]
    demo = ds.collect_demos(suite, xp.ExpertConfig(),
                            pol.PolicyConfig(feature_dim=8, k=4), CVOCAB)
    demo.samples = demo.samples[::6]
    demo.manifest["count"] = len(demo.samples)
    tv = vocab.build_vocabulary(
        np.stack([s.traj_waypoints for s in demo.samples]), k=4, seed=0)
    return demo, tv


class TestPretrain:
    def test_single_sample_memorization(self):
        policy = tiny_policy()
        rng = np.random.default_rng(0)
        demo = ds.Dataset([make_sample(rng)], kind="demo")
        cfg = tr.TrainConfig(pretrain_epochs=200, batch_size=1, seed=0,
                             pretrain_lr=3e-3)
        tr.pretrain(policy, demo, cfg)
        target = tr.soft_trajectory_target(policy.traj_vocab,
                                           demo.samples[0].traj_waypoints[None])[0]
        out = forward_row(policy, demo.samples[0])
        assert tr.kl_loss(target, out["d_traj"]).data.item() < 0.01

    def test_stage2_freezes_stage1_parameters(self, small_world_data, monkeypatch):
        demo, tv = small_world_data
        policy = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4), tv, CVOCAB)
        cfg = tr.TrainConfig(pretrain_epochs=1, batch_size=16, seed=0)
        frozen_names = policy.param_names(policy.ENCODER_PREFIXES + policy.TRAJ_PREFIXES)
        snapshots = {}
        orig = tr._run_epoch

        def spy(p, samples, order, c, opt, batch_loss, trainable=None):
            if trainable == policy.param_names(policy.CTRL_PREFIXES) and not snapshots:
                snapshots.update({n: p.params[n].data.copy() for n in frozen_names})
            return orig(p, samples, order, c, opt, batch_loss, trainable)

        monkeypatch.setattr(tr, "_run_epoch", spy)
        tr.pretrain(policy, demo, cfg)
        assert snapshots, "no epoch trained the control branch alone"
        # after the control stage ran, stage-1 parameters must be bit-unchanged
        # relative to their values when that stage started... but stage 3 then
        # updates them, so compare against a rerun stopped after stage 2
        policy2 = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4), tv, CVOCAB)
        rng = np.random.default_rng(cfg.seed)
        names1 = policy2.param_names(policy2.ENCODER_PREFIXES + policy2.TRAJ_PREFIXES)
        steps = math.ceil(len(demo.samples) / cfg.batch_size)
        opt = ad.Adam(policy2.params, lr=cfg.pretrain_lr, schedule="cosine",
                      total_steps=steps)
        tr._run_epoch(policy2, demo.samples, rng.permutation(len(demo.samples)),
                      cfg, opt, lambda b: tr._batch_loss(policy2, b, cfg, True, False),
                      names1)
        after_stage1 = {n: policy2.params[n].data.copy() for n in names1}
        opt2 = ad.Adam(policy2.params, lr=cfg.pretrain_lr, schedule="cosine",
                       total_steps=steps)
        tr._run_epoch(policy2, demo.samples, rng.permutation(len(demo.samples)),
                      cfg, opt2, lambda b: tr._batch_loss(policy2, b, cfg, False, True),
                      policy2.param_names(policy2.CTRL_PREFIXES))
        for n in names1:
            assert np.array_equal(policy2.params[n].data, after_stage1[n]), n

    def test_losses_fall_below_first_epoch(self, small_world_data):
        demo, tv = small_world_data
        policy = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4), tv, CVOCAB)
        cfg = tr.TrainConfig(pretrain_epochs=3, batch_size=16, seed=0)
        hist = tr.pretrain(policy, demo, cfg)
        for stage, losses in hist.items():
            assert losses[-1] < losses[0], stage

    def test_deterministic_checkpoints(self, small_world_data):
        demo, tv = small_world_data
        params = []
        for _ in range(2):
            policy = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4), tv, CVOCAB)
            cfg = tr.TrainConfig(pretrain_epochs=1, batch_size=16, seed=0)
            tr.pretrain(policy, demo, cfg)
            params.append(policy.params.copy_values())
        for k in params[0]:
            assert np.array_equal(params[0][k], params[1][k])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            tr.pretrain(tiny_policy(), ds.Dataset([], kind="demo"), tr.TrainConfig())


class TestDagger:
    def test_empty_takeover_reduces_to_demo_epoch(self, small_world_data):
        demo, tv = small_world_data
        cfg = tr.TrainConfig(seed=0)
        a = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4), tv, CVOCAB)
        b = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4), tv, CVOCAB)
        merged = ds.MergedDataset(demo, [], cfg.takeover_weight)
        tr.dagger_epoch(a, merged, cfg, np.random.default_rng(5))
        opt = ad.Adam(b.params, lr=cfg.dagger_lr)
        order = np.random.default_rng(5).permutation(len(demo.samples))
        tr._run_epoch(b, demo.samples, order, cfg, opt,
                      lambda batch: tr._batch_loss(b, batch, cfg))
        for k, t in a.params.items():
            assert np.array_equal(t.data, b.params[k].data)

    def test_takeover_loss_decreases(self, small_world_data):
        demo, tv = small_world_data
        policy = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4), tv, CVOCAB)
        cfg = tr.TrainConfig(seed=0, dagger_lr=5e-4)
        rng = np.random.default_rng(0)
        takeover = ds.Dataset([make_takeover(rng, seg=f"s{i}") for i in range(8)],
                              kind="takeover")
        merged = ds.MergedDataset(demo, [takeover], cfg.takeover_weight)
        before = tr._batch_loss(policy, takeover.samples, cfg).data.item()
        tr.dagger_epoch(policy, merged, cfg, np.random.default_rng(1))
        after = tr._batch_loss(policy, takeover.samples, cfg).data.item()
        assert after < before


class TestPoEpoch:
    def test_expert_probability_increases_single_state(self):
        # one state, fixed expert label: its probability must rise
        policy = tiny_policy()
        cfg = tr.TrainConfig(po_lr=1e-3, batch_size=1, seed=0)
        rng = np.random.default_rng(2)
        s0 = make_takeover(rng)
        y_w = nearest(policy.traj_vocab, s0.traj_waypoints)
        before = forward_row(policy, s0)["d_traj"].data[y_w]
        opt = ad.Adam(policy.params, lr=cfg.po_lr)
        for _ in range(20):
            tr.po_epoch(policy, [s0], cfg, opt)
        after = forward_row(policy, s0)["d_traj"].data[y_w]
        assert after > before

    def test_margin_increases(self):
        policy = tiny_policy(seed=3)
        cfg = tr.TrainConfig(po_lr=1e-4, batch_size=4, seed=0)
        rng = np.random.default_rng(4)
        samples = [make_takeover(rng, seg=f"s{i}") for i in range(6)]
        before = tr.mean_margin(policy, samples, cfg)
        opt = ad.Adam(policy.params, lr=cfg.po_lr)
        for _ in range(3):
            tr.po_epoch(policy, samples, cfg, opt)
        after = tr.mean_margin(policy, samples, cfg)
        assert after > before

    def test_all_argmax_means_zero_loss_and_no_change(self):
        policy = tiny_policy()
        cfg = tr.TrainConfig(batch_size=4, seed=0)
        rng = np.random.default_rng(5)
        s = make_takeover(rng)
        out = policy.infer(s, {})
        # rewrite the labels to the current argmaxes
        traj_index, s.ctrl_indices = pol.sample_top1(out.d_traj, out.d_ctrl)
        s.traj_waypoints = policy.traj_vocab.centers[traj_index].copy()
        before = policy.params.copy_values()
        opt = ad.Adam(policy.params, lr=1e-3)
        mean, _ = tr.po_epoch(policy, [s], cfg, opt)
        assert mean == 0.0
        for k, t in policy.params.items():
            assert np.array_equal(t.data, before[k])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting is made for glibc's malloc only")
@pytest.mark.parametrize("batch, steps", [(16, 20), (256, 3)])
def test_training_steps_fault_no_freed_memory_back_in(batch, steps):
    """Importing `autodiff` keeps the heap a step's graph frees in the
    process, and an epoch frees each batch's graph before the next batch
    builds its own, so the next step reuses that heap instead of faulting
    every page in again: a warm imitation step takes almost no minor page
    faults. Without the setting a step took hundreds of faults at B = 16
    and thousands at B = 256."""
    rng = np.random.default_rng(0)
    policy = tiny_policy(k=16, dim=16)
    samples = [make_sample(rng) for _ in range(batch)]
    cfg = tr.TrainConfig(batch_size=batch)
    opt = ad.Adam(policy.params, lr=cfg.pretrain_lr)

    def run(n):
        tr._run_epoch(policy, samples, [i % batch for i in range(n * batch)], cfg, opt,
                      lambda b: tr._batch_loss(policy, b, cfg))

    run(1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(steps)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps
    assert faults < 50, f"{faults:.0f} minor page faults per step at B = {batch}"


@pytest.mark.parametrize("stage, place", [
    pytest.param("pretrain", "pretrain/trajectory: batch 0", id="pretrain-pretrain/trajectory"),
    pytest.param("dagger", "batch 0", id="dagger-dagger"),
    pytest.param("po", "batch 0", id="po-po")])
def test_nan_parameter_raises_naming_stage_and_batch(stage, place):
    """The network's own checks catch a nan parameter in the first batch of
    every training stage, and the error names the batch; `pretrain` adds its
    stage (`post_optimize` adds its own: `TestFailureLocation`)."""
    policy = tiny_policy()
    policy.params["traj_head.b2"].data[0] = np.nan
    rng = np.random.default_rng(6)
    takeovers = ds.Dataset([make_takeover(rng, seg=f"s{i}") for i in range(3)],
                           kind="takeover")
    cfg = tr.TrainConfig(batch_size=2, seed=0)
    run = {
        "pretrain": lambda: tr.pretrain(policy, takeovers, cfg),
        "dagger": lambda: tr.dagger_epoch(
            policy, ds.MergedDataset(takeovers, [], cfg.takeover_weight), cfg, rng),
        "po": lambda: tr.po_epoch(policy, takeovers.samples, cfg,
                                  ad.Adam(policy.params, lr=cfg.po_lr)),
    }[stage]
    with pytest.raises(ad.NonFiniteError, match=f"^{place}: "):
        run()


def test_nan_waypoints_rejected_by_both_losses():
    """A nan trajectory label is rejected by the imitation loss's target and
    by the preference loss's winner, never trained on."""
    policy = tiny_policy()
    s = make_takeover(np.random.default_rng(7))
    s.traj_waypoints = np.full((6, 2), np.nan)
    cfg = tr.TrainConfig(seed=0)
    with pytest.raises(ValueError, match="not a distribution"):
        tr._batch_loss(policy, [s], cfg)
    with pytest.raises(ValueError, match="non-finite"):
        tr._pair_losses(policy, [s], cfg)


class TestMeanMargin:
    def test_floor_and_forward_agreement(self, monkeypatch):
        # The graph-free pass mean_margin runs (predict), patched, gives
        # every brake winner probability 1e-30: those pairs must use the
        # floor, the other pairs the graph's _log_prob on the rows of the
        # same batched pass (5 samples in batches of 2: three passes)
        policy = tiny_policy(seed=3)
        cfg = tr.TrainConfig(batch_size=2)
        rng = np.random.default_rng(6)
        samples = [make_takeover(rng, seg=f"s{i}") for i in range(5)]
        for s in samples:
            s.ctrl_indices = (s.ctrl_indices[0], 0, s.ctrl_indices[2])
        real_predict = policy.predict

        def predict(batch):
            out = real_predict(batch)
            throttle, _, steer = out["d_ctrl"]
            out["d_ctrl"] = (throttle, np.tile([1e-30, 1.0], (len(batch), 1)), steer)
            return out

        monkeypatch.setattr(policy, "predict", predict)
        expected = []
        for start in range(0, len(samples), cfg.batch_size):
            batch = samples[start:start + cfg.batch_size]
            out = predict(batch)
            for r, s in enumerate(batch):
                winners = (nearest(policy.traj_vocab, s.traj_waypoints), *s.ctrl_indices)
                for group, (dist, y_w) in enumerate(zip((out["d_traj"], *out["d_ctrl"]),
                                                        winners)):
                    if group == 2:  # brake: ln pi(y_w) floored, ln pi(y_l) = ln 1 = 0
                        expected.append(cfg.beta * (tr.LOGPROB_FLOOR - 0.0))
                        continue
                    row = Tensor(dist[r])
                    y_l = int(np.argmax(row.data))
                    expected.append(cfg.beta * (tr._log_prob(row, y_w).data.item()
                                                - tr._log_prob(row, y_l).data.item()))
        assert tr.mean_margin(policy, samples, cfg) == float(np.mean(expected))

    def test_is_the_mean_of_the_preference_loss_margins(self, monkeypatch):
        """mean_margin averages the very margins _pair_losses builds on the
        same batches, sample by sample, bit for bit."""
        policy = tiny_policy(seed=5)
        cfg = tr.TrainConfig(batch_size=3)
        rng = np.random.default_rng(8)
        samples = [make_takeover(rng, seg=f"s{i}") for i in range(7)]
        for i, s in enumerate(samples):
            s.agent_feats = s.agent_feats[:i % 3]     # batches pad agent slots
        got = tr.mean_margin(policy, samples, cfg)

        built = []
        real_margin = tr._margin

        def margin(*args, **kwargs):
            built.append(real_margin(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(tr, "_margin", margin)
        rows = []
        for start in range(0, len(samples), cfg.batch_size):
            built.clear()
            tr._pair_losses(policy, samples[start:start + cfg.batch_size], cfg)
            assert len(built) == 4
            rows.append(np.column_stack([m.data for m in built]))
        assert got == float(np.mean(np.concatenate(rows).ravel()))


class TestPostOptimize:
    def test_zero_rounds_is_identity(self, small_world_data, tmp_path):
        demo, tv = small_world_data
        policy = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4), tv, CVOCAB)
        before = policy.params.copy_values()
        cfg = tr.TrainConfig(rounds=0, seed=0)
        out, reports = tr.post_optimize(policy, demo,
                                        [sim.ScenarioSpec("StopSign", 0)],
                                        xp.ExpertConfig(), cfg, tmp_path)
        assert reports == []
        for k, t in out.params.items():
            assert np.array_equal(t.data, before[k])

    def test_round_artifacts_written(self, small_world_data, tmp_path):
        demo, tv = small_world_data
        policy = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4), tv, CVOCAB)
        cfg = tr.TrainConfig(rounds=1, po_epochs=1, seed=0)
        _, reports = tr.post_optimize(policy, demo,
                                      [sim.ScenarioSpec("EmergencyBrake", 0)],
                                      xp.ExpertConfig(), cfg, tmp_path,
                                      evaluate=lambda p: {"mean_ds": 1.0, "sr": 0.0})
        assert (tmp_path / "round_1" / "policy.ckpt").exists()
        assert (tmp_path / "round_1" / "takeover.jsonl").exists()
        assert (tmp_path / "round_1" / "report.json").exists()
        assert reports[0]["validation"] == {"mean_ds": 1.0, "sr": 0.0}
        assert set(reports[0]["triggers"]) == {"collision", "threshold"}

    @pytest.mark.parametrize("ablated", ["dagger_epochs", "po_epochs"])
    def test_zero_epoch_ablation_round(self, small_world_data, tmp_path, ablated):
        demo, tv = small_world_data
        policy = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4), tv, CVOCAB)
        cfg = tr.TrainConfig(**{"rounds": 1, "po_epochs": 1, "seed": 0, ablated: 0})
        lines = []
        _, (report,) = tr.post_optimize(policy, demo,
                                        [sim.ScenarioSpec("EmergencyBrake", 0)],
                                        xp.ExpertConfig(), cfg, tmp_path,
                                        progress=lines.append)
        assert report["takeover_kept"] > 0
        assert lines[-1].startswith("round 1: kept ")
        if ablated == "dagger_epochs":
            assert report["dagger_losses"] == []
            assert len(report["po_losses"]) == 1
        else:
            assert len(report["dagger_losses"]) == 1
            assert report["po_losses"] == [] and report["po_underflow_clamps"] == 0
            assert report["margin_after"] == report["margin_before"]


def _overflowing_predict(policy, snapshots):
    """`Policy.predict` on a copy of the parameters whose last trajectory
    layer overflows: a margin pass that the network's checks stop."""
    arrays = dict(policy.params.arrays)
    arrays["traj_head.w2"] = arrays["traj_head.w2"] * 1e300
    return policy._network(arrays, snapshots)


class TestFailureLocation:
    """A failure anywhere in a post-optimization round names the round and
    the stage, then every place below it (an episode's scenario and tick, a
    training batch), and keeps its type; run in process, each place's
    exception is the `__cause__` of the one above it."""

    SUITE = [sim.ScenarioSpec(kind, 0, route_length=40.0)
             for kind in ("EmergencyBrake", "StopSign")]

    def _inject(self, fault, monkeypatch, policy, demo, out_dir):
        """Set up `fault`; returns the demo set to train on, the evaluation
        callback and the TrainConfig overrides."""
        evaluate, overrides = None, {"dagger_epochs": 0}
        if fault == "world":
            real = sim.advance_world

            def advance(w, cmd):
                if w.tick == 5:
                    raise ArithmeticError("world fault")
                real(w, cmd)
            monkeypatch.setattr(sim, "advance_world", advance)
        elif fault == "expert":
            def expert_act(w, cfg):
                raise LookupError("expert fault")
            monkeypatch.setattr(ds.xp, "expert_act", expert_act)
        elif fault == "infer":
            policy.params["traj_head.w2"].data *= 1e300
        elif fault == "dagger":
            # every demo label nan, and no takeover repeated into the epoch
            demo = ds.Dataset([copy.copy(s) for s in demo.samples], kind="demo")
            for s in demo.samples:
                s.traj_waypoints = np.full((6, 2), np.nan)
            overrides = {"takeover_weight": 0.0}
        elif fault == "margin":
            monkeypatch.setattr(pol.Policy, "predict", _overflowing_predict)
        elif fault == "eval":
            evaluate = lambda p: bench.evaluate_suite(p, [])    # noqa: E731
        elif fault == "save":
            (out_dir / "round_2" / "policy.ckpt").mkdir(parents=True)
        return demo, evaluate, overrides

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fault, places, kind, message", [
        ("world", ["round 1 shadow", "EmergencyBrake:0 tick 5"], ArithmeticError,
         "world fault"),
        ("expert", ["round 1 shadow", "EmergencyBrake:0 tick 0"], LookupError,
         "expert fault"),
        ("infer", ["round 1 shadow", "EmergencyBrake:0 tick 0"], ad.NonFiniteError,
         "non-finite values"),
        ("dagger", ["round 1 dagger", "batch 0"], ValueError, "target is not a distribution"),
        ("margin", ["round 1 preference"], ad.NonFiniteError, "non-finite values"),
        ("eval", ["round 1 eval"], ValueError, "summarize requires at least one episode"),
        ("save", ["round 2 save"], IsADirectoryError, "[Errno 21] Is a directory: '{ckpt}'"),
    ])
    def test_names_round_stage_and_place(self, small_world_data, tmp_path, monkeypatch,
                                         jobs, fault, places, kind, message):
        demo, tv = small_world_data
        policy = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4), tv, CVOCAB)
        demo, evaluate, overrides = self._inject(fault, monkeypatch, policy, demo, tmp_path)
        cfg = tr.TrainConfig(**{"rounds": 2, "po_epochs": 1, "seed": 0, **overrides})
        message = message.format(ckpt=tmp_path / "round_2" / "policy.ckpt")
        with pytest.raises(kind) as err:
            tr.post_optimize(policy, demo, self.SUITE, xp.ExpertConfig(), cfg, tmp_path,
                             evaluate=evaluate, jobs=jobs)
        assert type(err.value) is kind
        assert str(err.value) == ": ".join([*places, message])
        if jobs == 1:
            chain, e = [], err.value
            while e is not None:
                assert type(e) is kind
                chain.append(str(e))
                e = e.__cause__
            assert chain == [": ".join([*places[i:], message])
                             for i in range(len(places) + 1)]


def test_config_validation():
    for field in ("pretrain_epochs", "batch_size"):
        with pytest.raises(ValueError, match=field):
            tr.TrainConfig(**{field: 0})
    for field in ("dagger_epochs", "po_epochs"):     # 0 ablates the stage
        assert getattr(tr.TrainConfig(**{field: 0}), field) == 0
        with pytest.raises(ValueError, match=field):
            tr.TrainConfig(**{field: -1})
    with pytest.raises(ValueError, match="rounds must be >= 0"):
        tr.TrainConfig(rounds=-1)
    for field in ("beta", "gamma", "tau_label", "pretrain_lr", "dagger_lr", "po_lr"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
                tr.TrainConfig(**{field: bad})
    assert tr.TrainConfig(takeover_weight=0.0).takeover_weight == 0.0
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="takeover_weight must be >= 0 and finite"):
            tr.TrainConfig(takeover_weight=bad)
    assert tr.TrainConfig(takeover_weight=3.0).takeover_weight == 3.0
    for bad in (0.4, 2.5):
        with pytest.raises(ValueError, match=f"a repeat count .* whole number, got {bad}"):
            tr.TrainConfig(takeover_weight=bad)

