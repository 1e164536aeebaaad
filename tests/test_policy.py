import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivelab import autodiff as ad
from drivelab import policy as pol
from drivelab import world as sim
from drivelab.vocab import WAYPOINT_DT, ControlVocabulary, TrajectoryVocabulary


def tiny_policy(seed=0, k=8, dim=16):
    rng = np.random.default_rng(99)
    centers = rng.normal(0, 3.0, size=(k, 6, 2))
    cfg = pol.PolicyConfig(feature_dim=dim, k=k, init_seed=seed)
    return pol.Policy(cfg, TrajectoryVocabulary(centers), ControlVocabulary())


def snapshot_from(kind="EmergencyBrake", seed=0, cfg=None):
    w = sim.reset(sim.ScenarioSpec(kind, seed))
    return pol.encode_scene(w, cfg or pol.PolicyConfig(feature_dim=16, k=8))


class TestEncodeScene:
    def test_shapes(self):
        cfg = pol.PolicyConfig(feature_dim=16, k=8)
        snap = snapshot_from("EmergencyBrake", 0, cfg)
        assert snap.agent_feats.shape == (1, pol.AGENT_FEATURES)
        assert snap.map_feats.shape[1] == pol.MAP_FEATURES
        assert snap.map_feats.shape[0] <= cfg.n_map
        assert snap.cmd_onehot.shape == (7,)
        assert snap.cmd_onehot.sum() == 1.0

    def test_empty_scene_has_zero_agents(self):
        """No agents is a (0, AGENT_FEATURES) array of its own, not a view
        that keeps a 1-D base alive in every such sample."""
        snap = snapshot_from("StopSign", 0)
        assert snap.agent_feats.shape == (0, pol.AGENT_FEATURES)
        assert snap.agent_feats.base is None
        loaded = pol.SceneSnapshot(agent_feats=np.array([]), map_feats=np.array([]),
                                   cmd_onehot=snap.cmd_onehot)
        assert loaded.agent_feats.shape == (0, pol.AGENT_FEATURES)
        assert loaded.map_feats.shape == (0, pol.MAP_FEATURES)
        assert loaded.agent_feats.base is None and loaded.map_feats.base is None

    def test_agents_sorted_by_distance(self):
        w = sim.reset(sim.ScenarioSpec("EmergencyBrake", 0))
        far = sim.ActorState(90.0, 0.0, 0.0, 0.0, 4.5, 1.9, "vehicle", None, 2)
        w.actors.append(far)
        snap = pol.encode_scene(w, pol.PolicyConfig(feature_dim=16, k=8))
        dists = np.hypot(snap.agent_feats[:, 0], snap.agent_feats[:, 1])
        assert np.all(np.diff(dists) >= 0)

    def test_relative_frame(self):
        w = sim.reset(sim.ScenarioSpec("EmergencyBrake", 0))
        snap = pol.encode_scene(w, pol.PolicyConfig(feature_dim=16, k=8))
        a = w.actors[0]
        expect = math.hypot(a.x - w.ego.x, a.y - w.ego.y)
        assert math.hypot(*snap.agent_feats[0, :2]) == pytest.approx(expect)
        assert snap.agent_feats[0, 0] > 0.0      # the lead car is ahead
        # An ego turned to 2.5 rad sees an actor 5 m ahead and 2 m to its
        # left at (5, 2), and one 3 m behind and 1 m to its right at (-3, -1).
        w.ego = sim.EgoState(x=10.0, y=-4.0, heading=2.5)
        c, s = math.cos(2.5), math.sin(2.5)
        w.actors = [sim.ActorState(10.0 + ahead * c - left * s, -4.0 + ahead * s + left * c,
                                   0.0, 0.0, 4.5, 1.9, "vehicle", None, i)
                    for i, (ahead, left) in enumerate([(5.0, 2.0), (-3.0, -1.0)])]
        snap = pol.encode_scene(w, pol.PolicyConfig(feature_dim=16, k=8))
        # nearest first
        assert snap.agent_feats[:, :2].ravel().tolist() == pytest.approx([-3.0, -1.0, 5.0, 2.0])


class TestForward:
    def test_distributions_are_valid(self):
        p = tiny_policy()
        out = p.forward([snapshot_from()])
        scores = out["traj_scores"].data[0]
        assert np.all((scores > 0) & (scores < 1))
        assert out["d_traj"].data[0].sum() == pytest.approx(1.0, abs=1e-12)
        for d in out["d_ctrl"]:
            assert d.data[0].sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(d.data[0] > 0)
        assert tuple(len(d.data[0]) for d in out["d_ctrl"]) == (5, 2, 9)

    def test_forward_deterministic(self):
        p = tiny_policy()
        snap = snapshot_from()
        a = p.forward([snap])["d_traj"].data
        b = p.forward([snap])["d_traj"].data
        assert np.array_equal(a, b)

    def test_rejects_bad_command_vector(self):
        """A command row that is not one-hot is refused where its snapshot
        is built, so no pass gets it."""
        snap = snapshot_from()
        with pytest.raises(ValueError, match=r"cmd_onehot: \[.*\] is not one-hot over 7 "):
            pol.SceneSnapshot(agent_feats=snap.agent_feats, map_feats=snap.map_feats,
                              cmd_onehot=np.full(7, 1.0 / 7.0))

    def test_rejects_a_lone_snapshot(self):
        """The network takes a list of snapshots only; `infer` is the one
        entry point for a single one."""
        p = tiny_policy()
        with pytest.raises(TypeError):
            p.forward(snapshot_from())

    def test_infer_picks_argmax_and_vocab_entry(self):
        p = tiny_policy()
        out = p.infer(snapshot_from(), {})
        traj_index, (t, b, s) = pol.sample_top1(out.d_traj, out.d_ctrl)
        assert np.array_equal(out.tau_plan, p.traj_vocab.centers[traj_index])
        assert out.c_ctrl.throttle == p.ctrl_vocab.throttle[t]
        assert out.c_ctrl.brake == p.ctrl_vocab.brake[b]
        assert out.c_ctrl.steer == p.ctrl_vocab.steer[s]

    def test_top1_tie_resolves_to_lowest_index(self):
        d = np.array([0.25, 0.25, 0.25, 0.25])
        traj_idx, ctrl_idx = pol.sample_top1(d, (d, d, d))
        assert traj_idx == 0
        assert ctrl_idx == (0, 0, 0)

    def test_init_seed_changes_params(self):
        a = tiny_policy(seed=0)
        b = tiny_policy(seed=1)
        assert not np.array_equal(a.params["traj_base"].data,
                                  b.params["traj_base"].data)

    @pytest.mark.parametrize("field", ["feature_dim", "k", "n_agents", "n_map"])
    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, "8"])
    def test_config_sizes_are_integers_at_least_1(self, field, bad):
        with pytest.raises(ValueError, match=f"PolicyConfig.{field} must be an integer >= 1"):
            pol.PolicyConfig(**{field: bad})
        assert getattr(pol.PolicyConfig(**{field: np.int64(1)}), field) == 1

    def test_vocab_size_mismatch_rejected(self):
        cfg = pol.PolicyConfig(feature_dim=16, k=8)
        with pytest.raises(ValueError):
            pol.Policy(cfg, TrajectoryVocabulary(np.random.default_rng(0).normal(size=(4, 6, 2))))


def _graph_free_scores(p, snap):
    """The trajectory scores of infer's pass on plain arrays (PolicyOutput
    does not keep them): row 0 of the pass over [snap]."""
    return p._network(p.params.arrays, [snap])["traj_scores"][0]


class TestInferMatchesForward:
    """`infer` runs the network on plain arrays over a batch of one: its
    outputs equal row 0 of `forward([snapshot])` bit for bit, it raises
    NonFiniteError where `forward` does, and it builds no autodiff graph."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(0, pol.PolicyConfig.n_agents),
           st.integers(1, pol.PolicyConfig.n_map), st.sampled_from(sim.COMMANDS),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([0.1, 1.0, 10.0]))
    def test_bit_identical(self, init_seed, n_agents, n_map, command, data_seed, scale):
        rng = np.random.default_rng(data_seed)
        snap = pol.SceneSnapshot(
            agent_feats=rng.normal(0, scale, (n_agents, pol.AGENT_FEATURES)),
            map_feats=rng.normal(0, scale, (n_map, pol.MAP_FEATURES)),
            cmd_onehot=pol.command_onehot(command))
        p = tiny_policy(seed=init_seed)
        out, fwd = p.infer(snap, {}), p.forward([snap])
        assert np.array_equal(_graph_free_scores(p, snap), fwd["traj_scores"].data[0])
        assert np.array_equal(out.d_traj, fwd["d_traj"].data[0])
        assert len(out.d_ctrl) == len(fwd["d_ctrl"])
        for got, want in zip(out.d_ctrl, fwd["d_ctrl"]):
            assert np.array_equal(got, want.data[0])

    def _assert_both_raise(self, p, snap):
        # Each raises before numpy warns of the value it rejects.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NonFiniteError):
                p.forward([snap])
            with pytest.raises(ad.NonFiniteError):
                p.infer(snap, {})

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", ["agent", "map", "parameter"])
    def test_nonfinite_raises_in_both(self, where, bad):
        p = tiny_policy()
        snap = snapshot_from("EmergencyBrake", 0, p.cfg)
        if where == "agent":
            snap.agent_feats = snap.agent_feats.copy()
            snap.agent_feats[0, 4] = bad
        elif where == "map":
            snap.map_feats = snap.map_feats.copy()
            snap.map_feats[2, 1] = bad
        else:
            p.params["pos_mlp.w1"].data[5, 3] = bad
        self._assert_both_raise(p, snap)

    def test_underflowing_scores_raise_in_both(self):
        # Finite inputs, but every trajectory score underflows to 0, so the
        # normalisation's reciprocal is inf.
        p = tiny_policy()
        p.params["traj_head.b2"].data[:] = -1e6
        self._assert_both_raise(p, snapshot_from("EmergencyBrake", 0, p.cfg))

    def test_infer_builds_no_tensors(self, monkeypatch):
        p = tiny_policy()
        snap = snapshot_from()
        built = []
        init = ad.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        p.infer(snap, {})
        assert len(built) == 0
        p.forward([snap])
        assert len(built) > 0


class TestInferKeepsNothing:
    """`infer` keeps nothing between calls (the closed-loop caches belong to
    `metrics.NeuralDriver`): after any write to the parameters' values, its
    outputs equal `predict`'s bit for bit, across all 7 commands."""

    def _snaps(self):
        rng = np.random.default_rng(21)
        return [pol.SceneSnapshot(agent_feats=rng.normal(0, 3.0, (2, pol.AGENT_FEATURES)),
                                  map_feats=rng.normal(0, 3.0, (5, pol.MAP_FEATURES)),
                                  cmd_onehot=pol.command_onehot(c))
                for c in sim.COMMANDS]

    def _checked_outputs(self, p, snaps):
        """infer's distributions per snapshot, each checked against
        `predict`; one terms dict serves the calls of one parameter state."""
        outs, terms = [], {}
        for snap in snaps:
            out, ref = p.infer(snap, terms), p.predict([snap])
            assert np.array_equal(out.d_traj, ref["d_traj"][0])
            for got, want in zip(out.d_ctrl, ref["d_ctrl"]):
                assert np.array_equal(got, want[0])
            outs.append(np.concatenate([out.d_traj, *out.d_ctrl]))
        return outs

    @pytest.mark.parametrize("change", ["view write", "load_values", "adam step",
                                        "unpickled copy"])
    def test_infer_after_a_parameter_write_equals_predict(self, change):
        p = tiny_policy()
        snaps = self._snaps()
        before = self._checked_outputs(p, snaps)
        if change == "view write":
            p.params["cmd_mlp.w1"].data[0, 0] += 0.5
            p.params["traj_attn_agent.wq"].data[1, 2] -= 0.5
            p.params["ctrl_base"].data[0, 0] += 0.5
        elif change == "load_values":
            p.params.load_values(tiny_policy(seed=1).params.copy_values())
        elif change == "adam step":
            out = p.forward(snaps)
            loss = (out["traj_scores"] * np.random.default_rng(0).normal(
                size=out["traj_scores"].shape)).sum()
            ad.backward(loss, p.params)
            ad.Adam(p.params, lr=0.05).step()
        else:
            p = pickle.loads(pickle.dumps(p))
            p.params["pos_mlp.b1"].data[:] += 0.5
        after = self._checked_outputs(p, snaps[::-1])[::-1]
        assert all(not np.array_equal(a, b) for a, b in zip(before, after))

    def test_outputs_are_read_only(self):
        """`tau_plan` is a view of the vocabulary entry, so it is read-only;
        the vocabulary itself stays writeable."""
        p = tiny_policy()
        for policy in (p, pickle.loads(pickle.dumps(p))):
            out = policy.infer(self._snaps()[0], {})
            assert np.shares_memory(out.tau_plan, policy.traj_vocab.centers)
            with pytest.raises(ValueError, match="read-only"):
                out.tau_plan[0] = 0.5
            assert policy.traj_vocab.centers.flags.writeable


def random_batch(rng, size):
    """`size` snapshots with 0-N_a agents, 1-N_m map rows and any command."""
    cfg = pol.PolicyConfig
    return [pol.SceneSnapshot(
        agent_feats=rng.normal(0, 3.0, (int(rng.integers(0, cfg.n_agents + 1)),
                                        pol.AGENT_FEATURES)),
        map_feats=rng.normal(0, 3.0, (int(rng.integers(1, cfg.n_map + 1)), pol.MAP_FEATURES)),
        cmd_onehot=pol.command_onehot(sim.COMMANDS[int(rng.integers(len(sim.COMMANDS)))]))
        for _ in range(size)]


def _outputs(out):
    return [out["traj_scores"].data, out["d_traj"].data] + [d.data for d in out["d_ctrl"]]


class TestBatchedForward:
    """`forward` on a list of snapshots runs one pass over token slots padded
    to the batch's largest agent and map counts, with the padded slots
    masked out of attention."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 2 ** 32 - 1))
    def test_padded_slots_are_inert(self, size, data_seed):
        rng = np.random.default_rng(data_seed)
        p = tiny_policy(seed=int(rng.integers(100)))
        snaps = random_batch(rng, size)
        weights = [rng.normal(size=o.shape) for o in _outputs(p.forward(snaps))]

        def run():
            out = p.forward(snaps)
            loss = None
            for o, w in zip([out["traj_scores"], out["d_traj"], *out["d_ctrl"]], weights):
                term = (o * w).sum()
                loss = term if loss is None else loss + term
            ad.backward(loss, p.params)
            return _outputs(out) + [t.grad.copy() for _, t in p.params.items()]

        clean = run()
        real_pad = pol._pad

        def junk_pad(rows):
            out, mask = real_pad(rows)
            if mask is not None:
                out[~mask] = rng.normal(0, 50.0, size=(int((~mask).sum()), out.shape[-1]))
            return out, mask

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pol, "_pad", junk_pad)
            junk = run()
        for a, b in zip(clean, junk):
            assert np.array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 2 ** 32 - 1))
    def test_batch_rows_match_infer(self, size, data_seed):
        """Row i of a batched forward is infer on snapshot i, to rounding:
        a padded row sums its attention weights over more slots, which can
        round differently."""
        rng = np.random.default_rng(data_seed)
        p = tiny_policy(seed=int(rng.integers(100)))
        snaps = random_batch(rng, size)
        batched = _outputs(p.forward(snaps))
        for i, snap in enumerate(snaps):
            out = p.infer(snap, {})
            want_all = [_graph_free_scores(p, snap), out.d_traj, *out.d_ctrl]
            for got, want in zip(batched, want_all):
                np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-15)


class TestEnsemble:
    def test_identities(self):
        a = sim.ControlCommand(throttle=0.4, brake=0.0, steer=-0.2)
        b = sim.ControlCommand(throttle=0.8, brake=1.0, steer=0.6)
        e = pol.ensemble(a, b)
        assert e.throttle == (0.4 + 0.8) / 2.0
        assert e.brake == 1.0
        assert e.steer == (-0.2 + 0.6) / 2.0


class TestPidTracker:
    def test_degenerate_plan_brakes(self):
        pid = pol.PidTracker()
        cmd = pid.track(np.zeros((6, 2)), sim.EgoState(speed=5.0))
        assert cmd.brake == 1.0 and cmd.throttle == 0.0

    def test_straight_plan_accelerates_from_rest(self):
        pid = pol.PidTracker()
        plan = np.stack([np.arange(1, 7) * 3.0, np.zeros(6)], axis=1)  # 6 m/s
        cmd = pid.track(plan, sim.EgoState(speed=0.0))
        assert cmd.throttle > 0.5
        assert cmd.steer == pytest.approx(0.0, abs=1e-9)

    def test_matches_numpy_formulation(self):
        """Bit for bit the vectorized formulation: libm hypot, six step
        lengths summed left to right, clipped steer and integrator."""
        rng = np.random.default_rng(11)
        for _ in range(2000):
            plan = rng.normal(0, rng.choice([0.01, 1.0, 3.0, 20.0]), size=(6, 2))
            ego = sim.EgoState(speed=float(rng.uniform(0.0, 12.0)))
            pid = pol.PidTracker()
            pid.integral = integral = float(rng.uniform(-12.0, 12.0))
            cmd = pid.track(plan, ego)

            dists = np.hypot(plan[:, 0], plan[:, 1])
            i = int(np.argmin(np.abs(dists - pid.LOOKAHEAD)))
            curvature = 2.0 * math.sin(math.atan2(plan[i, 1], plan[i, 0])) / max(dists[i], 1e-6)
            steer = float(np.clip(math.atan(ego.wheelbase * curvature) / sim.DELTA_MAX,
                                  -1.0, 1.0))
            seg = np.diff(np.vstack([[0.0, 0.0], plan]), axis=0)
            err = float(np.hypot(seg[:, 0], seg[:, 1]).mean() / WAYPOINT_DT) - ego.speed
            integral = float(np.clip(integral + err * sim.DT, -pid.INTEGRAL_CLAMP,
                                     pid.INTEGRAL_CLAMP))
            u = pid.KP * err + pid.KI * integral
            assert pid.integral == integral
            assert (cmd.throttle, cmd.brake, cmd.steer) == (
                min(max(u, 0.0), 1.0), min(max(-u, 0.0), 1.0), steer)

    def test_memoized_tracker_matches_fresh_ones(self):
        """A tracker keeps its last plan's geometry, keyed on the plan's bits
        and the wheelbase, never on a vocabulary index: along a stub plan
        sequence (plans repeated and alternating, a new plan every tick as
        an expert clone sends, a degenerate plan, a second wheelbase) one
        tracker gives the commands and integrator of a fresh tracker per
        tick."""
        rng = np.random.default_rng(5)
        vocab_plans = [rng.normal(0, 3.0, size=(6, 2)) for _ in range(4)]
        plans = [vocab_plans[int(i)] for i in rng.integers(0, 4, 200) for _ in range(i % 3 + 1)]
        plans += [rng.normal(0, 3.0, size=(6, 2)) for _ in range(50)]
        plans += [np.zeros((6, 2)), vocab_plans[0] * -1.0, vocab_plans[0]]
        memoized = pol.PidTracker()
        for t, plan in enumerate(plans):
            ego = sim.EgoState(speed=float(rng.uniform(0.0, 10.0)),
                               wheelbase=2.8 if t % 3 else 3.1)
            fresh = pol.PidTracker()
            fresh.integral = memoized.integral
            assert memoized.track(plan.copy(), ego) == fresh.track(plan, ego)
            assert memoized.integral == fresh.integral

    def test_overspeed_brakes(self):
        pid = pol.PidTracker()
        plan = np.stack([np.arange(1, 7) * 0.5, np.zeros(6)], axis=1)  # 1 m/s
        cmd = pid.track(plan, sim.EgoState(speed=8.0))
        assert cmd.brake > 0.0 and cmd.throttle == 0.0


class TestSafetyCreep:
    def _world(self, actor_gap=None):
        route = sim.Route(np.stack([np.arange(0, 41) * 3.0, np.zeros(41)], axis=1),
                          ["LaneFollow"] * 40)
        ego = sim.EgoState(x=0.0, speed=0.0)
        actors = []
        if actor_gap is not None:
            actors = [sim.ActorState(actor_gap, 0.0, 0.0, 0.0, 4.5, 1.9,
                                     "vehicle", None, 1)]
        return sim.World(sim.ScenarioSpec("StopSign", 0), route, ego, actors)

    def test_pulse_after_still_period_on_clear_road(self):
        w = self._world()
        creep = pol.SafetyCreep()
        ticks_still = int(2.5 / sim.DT)
        for i in range(ticks_still - 1):
            assert creep.update(w, 0.1) is None
        cmd = creep.update(w, 0.1)
        assert cmd is not None
        assert cmd.throttle == 0.7 and cmd.brake == 0.0 and cmd.steer == 0.1
        # pulse lasts exactly 1.0 s = 20 ticks including the first
        pulses = 1
        while creep.update(w, 0.1) is not None:
            pulses += 1
        assert pulses == int(1.0 / sim.DT)

    def test_no_pulse_with_leading_actor(self):
        w = self._world(actor_gap=15.0)
        creep = pol.SafetyCreep()
        for _ in range(int(2.5 / sim.DT) + 10):
            assert creep.update(w, 0.0) is None

    def test_actor_beyond_corridor_ignored(self):
        w = self._world(actor_gap=30.0)   # beyond the 20 m clear window
        creep = pol.SafetyCreep()
        got = [creep.update(w, 0.0) for _ in range(int(2.5 / sim.DT))]
        assert got[-1] is not None

    def test_moving_resets_timer(self):
        w = self._world()
        creep = pol.SafetyCreep()
        for i in range(int(2.5 / sim.DT) - 1):
            creep.update(w, 0.0)
        w.ego.speed = 1.0
        assert creep.update(w, 0.0) is None
        assert creep.still_ticks == 0

    def test_disabled_never_fires(self):
        w = self._world()
        creep = pol.SafetyCreep(enabled=False)
        for _ in range(200):
            assert creep.update(w, 0.0) is None


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        p = tiny_policy()
        snap = snapshot_from()
        before = p.infer(snap, {}).d_traj
        p.save(tmp_path / "p.ckpt")
        q = tiny_policy(seed=1)
        q.traj_vocab = p.traj_vocab
        q.load(tmp_path / "p.ckpt")
        after = q.infer(snap, {}).d_traj
        assert np.array_equal(before, after)

    def test_vocab_hash_mismatch_rejected(self, tmp_path):
        p = tiny_policy()
        p.save(tmp_path / "p.ckpt")
        other = tiny_policy()
        other.traj_vocab = TrajectoryVocabulary(p.traj_vocab.centers + 0.5)
        with pytest.raises(ValueError, match="hash"):
            other.load(tmp_path / "p.ckpt")

    def test_size_mismatch_rejected(self, tmp_path):
        """A checkpoint stamped with other token slot counts is refused by
        name and both values, and the policy keeps its parameters."""
        p = tiny_policy()
        p.save(tmp_path / "p.ckpt")
        other = pol.Policy(pol.PolicyConfig(**{**vars(p.cfg), "n_map": 4}),
                           p.traj_vocab, p.ctrl_vocab)
        before = other.params.copy_values()
        with pytest.raises(ValueError, match=f"n_map {p.cfg.n_map} does not match "
                                             "the policy's 4"):
            other.load(tmp_path / "p.ckpt")
        after = other.params.copy_values()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_checkpoint_lacking_a_parameter_rejected(self, tmp_path):
        p = tiny_policy()
        path = tmp_path / "p.ckpt"
        p.save(path)
        raw = path.read_bytes()
        sep = raw.index(b"\n\n")
        lines = raw[:sep].split(b"\n")
        dropped = [ln for ln in lines if ln.startswith(b"ctrl_head.w2\t")]
        assert len(dropped) == 1
        lines.remove(dropped[0])
        path.write_bytes(b"\n".join(lines) + raw[sep:])
        with pytest.raises(KeyError, match="ctrl_head.w2"):
            tiny_policy(seed=1).load(path)
