import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivelab import dataset as ds
from drivelab import expert as xp
from drivelab import metrics as bench
from drivelab import policy as pol
from drivelab import world as sim
from drivelab.vocab import ControlVocabulary, TrajectoryVocabulary


class ExpertDriver:
    def __init__(self):
        self.cfg = xp.ExpertConfig()

    def act(self, w):
        return xp.expert_command(w, self.cfg)


class ScriptedDriver:
    def __init__(self, cmd):
        self.cmd = cmd

    def act(self, w):
        return self.cmd


def frame(t, ego, actors=(), infractions=()):
    return sim.Frame(time=t, ego=ego, actors=list(actors), infractions=list(infractions))


class TestScoring:
    def test_expert_on_empty_road_scores_100(self):
        spec = sim.ScenarioSpec("StopSign", 0)
        w = sim.reset(spec)
        w.route.stop_line_s = None
        drv = ExpertDriver()
        while not w.done and w.tick < 4000:
            sim.advance_world(w, drv.act(w))
        r = bench.score_episode(w)
        assert r.rc == 1.0 and r.infraction_score == 1.0
        assert r.ds == 100.0 and r.success

    def test_full_brake_times_out_with_low_rc(self):
        # short route so the time budget (45 s) expires before the 90 s
        # blocked rule
        r = bench.run_episode(ScriptedDriver(sim.ControlCommand(brake=1.0)),
                              sim.ScenarioSpec("StopSign", 1, route_length=30.0))
        assert r.termination == "timeout" and not r.success
        assert r.rc < 0.05

    def test_penalty_arithmetic(self):
        spec = sim.ScenarioSpec("StopSign", 0)
        w = sim.reset(spec)
        w.progress = w.route.length
        w.termination = "completed"
        w.trace.append(frame(1.0, (0, 0, 0, 0), infractions=["collision_vehicle"]))
        r = bench.score_episode(w)
        assert r.ds == pytest.approx(100.0 * 1.0 * 0.60)
        assert not r.success

    def test_ds_monotone_in_infractions(self):
        spec = sim.ScenarioSpec("StopSign", 0)
        w = sim.reset(spec)
        w.progress = w.route.length
        base = bench.score_episode(w).ds
        for kind in sim.PENALTY:
            w2 = sim.reset(spec)
            w2.progress = w2.route.length
            w2.trace.append(frame(1.0, (0, 0, 0, 0), infractions=[kind]))
            assert bench.score_episode(w2).ds < base

    def test_success_implies_high_ds(self):
        spec = sim.ScenarioSpec("EmergencyBrake", 0)
        r = bench.run_episode(ExpertDriver(), spec)
        if r.success:
            assert r.ds >= 99.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(
        [*sim.PENALTY, *sim.TERMINAL_INFRACTIONS, "unpenalized"]), max_size=4), max_size=8))
    def test_score_folds_the_traces_kinds_in_order(self, ticks):
        """The trace is the one infraction log: the score is the product of
        its kinds' penalties, taken left to right, to the bit."""
        w = sim.reset(sim.ScenarioSpec("StopSign", 0))
        w.trace = [frame(0.05 * (i + 1), (0, 0, 0, 0), infractions=kinds)
                   for i, kinds in enumerate(ticks)]
        r = bench.score_episode(w)
        kinds = [k for tick in ticks for k in tick]
        product = 1.0
        for k in kinds:
            product *= sim.PENALTY.get(k, 1.0)
        assert r.infraction_score.hex() == product.hex()
        assert r.infractions == kinds

    def test_rc_depends_only_on_final_progress(self):
        spec = sim.ScenarioSpec("StopSign", 0)
        w = sim.reset(spec)
        w.progress = 0.5 * w.route.length
        assert bench.score_episode(w).rc == pytest.approx(0.5, abs=0.01)


class TestEfficiency:
    def test_at_speed_limit_on_empty_road(self):
        trace = [frame(i * 0.05, (i, 0.0, 0.0, 8.0)) for i in range(10)]
        assert bench.efficiency(trace, speed_limit=8.0) == pytest.approx(100.0)

    def test_stationary_is_zero(self):
        trace = [frame(i * 0.05, (0.0, 0.0, 0.0, 0.0)) for i in range(10)]
        assert bench.efficiency(trace) == pytest.approx(0.0)

    def test_matches_manual_recomputation(self):
        rng = np.random.default_rng(0)
        trace = []
        for i in range(50):
            ego_v = rng.uniform(0, 10)
            actors = [(rng.uniform(-30, 30), rng.uniform(-30, 30), 0.0,
                       rng.uniform(0, 9)) for _ in range(2)]
            trace.append(frame(i * 0.05, (0.0, 0.0, 0.0, ego_v), actors))
        got = bench.efficiency(trace, speed_limit=8.0)
        # spreadsheet-style recomputation
        vals = []
        for f in trace:
            near = [a[3] for a in f.actors
                    if a[3] > 0.1 and math.hypot(a[0], a[1]) <= 50.0]
            ref = sum(near) / len(near) if near else 8.0
            vals.append(min(1.0, f.ego[3] / ref))
        assert got == pytest.approx(100.0 * sum(vals) / len(vals), abs=1e-9)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            bench.efficiency([])


class TestComfortness:
    def test_constant_velocity_is_100(self):
        trace = [frame(i * 0.05, (i * 0.3, 0.0, 0.0, 6.0)) for i in range(20)]
        assert bench.comfortness(trace) == pytest.approx(100.0)

    def test_bang_bang_near_zero(self):
        trace = []
        v = 0.0
        for i in range(40):
            v = 5.0 if i % 2 == 0 else 0.0    # wild speed swings every tick
            trace.append(frame(i * 0.05, (0.0, 0.0, 0.0, v)))
        assert bench.comfortness(trace) < 10.0

    def test_matches_manual_recomputation(self):
        rng = np.random.default_rng(1)
        speeds = np.cumsum(rng.uniform(-0.3, 0.4, size=30)).clip(0)
        headings = np.cumsum(rng.uniform(-0.05, 0.05, size=30))
        trace = [frame(i * 0.05, (0.0, 0.0, headings[i], speeds[i]))
                 for i in range(30)]
        got = bench.comfortness(trace)
        acc = np.diff(speeds) / 0.05
        jerk = np.diff(acc) / 0.05
        yaw = np.diff(headings) / 0.05
        ok = (np.abs(acc[1:]) <= 3) & (np.abs(jerk) <= 5) & (np.abs(yaw[1:]) <= 0.6)
        assert got == pytest.approx(100.0 * ok.mean(), abs=1e-9)

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            bench.comfortness([frame(0.0, (0, 0, 0, 0))])


class TestSummarize:
    def _result(self, kind="StopSign", seed=0, ds_val=100.0, success=True,
                timeout=False):
        rc = ds_val / 100.0
        return bench.EpisodeResult(kind=kind, seed=seed, rc=rc,
                                   infraction_score=1.0, success=success, elapsed=30.0,
                                   termination="timeout" if timeout else "completed",
                                   infractions=[], trace=[])

    def test_single_perfect_episode(self):
        rep = bench.summarize([self._result()])
        assert rep.mean_ds == 100.0 and rep.sr == 100.0 and rep.timeout_pct == 0.0

    def test_mean_of_two(self):
        rep = bench.summarize([self._result(ds_val=100.0),
                               self._result(seed=1, ds_val=0.0, success=False)])
        assert rep.mean_ds == pytest.approx(50.0)
        assert rep.sr == pytest.approx(50.0)

    def test_matches_manual_aggregation(self):
        rng = np.random.default_rng(0)
        results = [self._result(kind=k, seed=i, ds_val=float(rng.uniform(0, 100)),
                                success=bool(rng.integers(2)),
                                timeout=bool(rng.integers(2)))
                   for i, k in enumerate(sim.SCENARIO_KINDS * 2)]
        rep = bench.summarize(results)
        assert rep.mean_ds == pytest.approx(np.mean([r.ds for r in results]))
        assert rep.timeout_pct == pytest.approx(
            100.0 * np.mean([r.termination == "timeout" for r in results]))
        assert set(rep.ability) == set(sim.SCENARIO_KINDS)
        for kind in sim.SCENARIO_KINDS:
            mine = [r.success for r in results if r.kind == kind]
            assert rep.ability[kind] == pytest.approx(100.0 * np.mean(mine))

    def test_report_serialization(self):
        rep = bench.summarize([self._result()])
        rep.config_hash, rep.checkpoint_hash = "abc", "def"
        d = json.loads(rep.to_json())
        assert d["config_hash"] == "abc" and d["checkpoint_hash"] == "def"
        text = rep.to_text()
        assert "mean DS" in text and "StopSign" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bench.summarize([])

    def test_efficiency_uses_the_episode_speed_limit(self):
        """An episode on a 4 m/s route is scored against 4 m/s, not the
        default 8 m/s: the limit travels with the result."""
        r = bench.run_episode(ExpertDriver(),
                              sim.ScenarioSpec("StopSign", 0, route_length=40.0, speed_limit=4.0))
        assert r.speed_limit == 4.0
        got = bench.summarize([r]).efficiency
        assert got == bench.efficiency(r.trace, speed_limit=4.0)
        assert got > bench.efficiency(r.trace, speed_limit=8.0)


def test_evaluation_is_deterministic():
    spec = sim.ScenarioSpec("EmergencyBrake", 2)
    a = bench.run_episode(ExpertDriver(), spec)
    b = bench.run_episode(ExpertDriver(), spec)
    assert a.ds == b.ds and a.elapsed == b.elapsed
    assert [f.ego for f in a.trace] == [f.ego for f in b.trace]


def _tiny_policy():
    t = np.arange(1, 7) * 0.5
    centers = np.array([np.stack([t * v, t * t * c], axis=1)
                        for v in (0.0, 2.0, 5.0, 8.0) for c in (-0.3, 0.3)])
    return pol.Policy(pol.PolicyConfig(feature_dim=16, k=8, init_seed=5),
                      TrajectoryVocabulary(centers), ControlVocabulary())


def test_closed_loop_tick_golden(tmp_path):
    """A tiny fixed policy shadowed by the expert on one 40 m EmergencyBrake
    episode, then evaluated on one 40 m Merging episode: the persisted
    takeover set and the report have fixed sha256 values, so scene encoding,
    inference and PID tracking must not move a bit."""
    import hashlib
    policy = _tiny_policy()
    takeover = ds.run_shadow_collection(
        policy, [sim.ScenarioSpec("EmergencyBrake", 0, route_length=40.0)],
        xp.ExpertConfig(), round_index=1)
    assert len(takeover) == 320
    ds.persist(takeover, tmp_path / "takeover.jsonl")
    report, _ = bench.evaluate_suite(
        policy, [sim.ScenarioSpec("Merging", 0, route_length=40.0)])
    digests = [hashlib.sha256((tmp_path / "takeover.jsonl").read_bytes()).hexdigest(),
               hashlib.sha256(report.to_json().encode()).hexdigest()]
    assert digests == ["e1427ec31604743045beaa06d115ed3c395b32b96dbffe7b0ea9bdf89e1ef065",
                       "2a1ebdf6edb623f9bc6d1bcdbbacb2bc94bb7d940f4010764f2468022d689418"]


def _command_snaps():
    """One snapshot per command, each with 2 agents and 5 map rows."""
    rng = np.random.default_rng(21)
    return [pol.SceneSnapshot(agent_feats=rng.normal(0, 3.0, (2, pol.AGENT_FEATURES)),
                              map_feats=rng.normal(0, 3.0, (5, pol.MAP_FEATURES)),
                              cmd_onehot=pol.command_onehot(c))
            for c in sim.COMMANDS]


def _copy(snap):
    return pol.SceneSnapshot(**{name: v.copy() for name, v in vars(snap).items()})


def _assert_predicted(policy, snap, out):
    ref = policy.predict([snap])
    assert np.array_equal(out.d_traj, ref["d_traj"][0])
    for got, want in zip(out.d_ctrl, ref["d_ctrl"]):
        assert np.array_equal(got, want[0])


def _recorded(monkeypatch, policy, method):
    """The argument tuples of the calls to one of `policy`'s network parts."""
    calls = []
    real = getattr(policy, method)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(policy, method, recording)
    return calls


class TestDriverCaches:
    """`NeuralDriver` keeps the episode's caches of the policy's pass: each
    command row's terms, computed once per driver, and the last output,
    which a snapshot bit-equal to the last one gets again with no pass. The
    output a tick uses equals `predict` bit for bit."""

    def _tick(self, monkeypatch, driver, snap):
        """One `act` whose encoded scene is `snap`; returns the policy
        output the tick used."""
        monkeypatch.setattr(bench, "encode_scene", lambda world, cfg: snap)
        driver.act(sim.reset(sim.ScenarioSpec("StopSign", 0)))
        return driver.last[1]

    def test_bit_equal_snapshot_returns_the_last_output(self, monkeypatch):
        driver = bench.NeuralDriver(_tiny_policy())
        snap = _command_snaps()[4]
        first = self._tick(monkeypatch, driver, snap)
        calls = _recorded(monkeypatch, driver.policy, "_scene_terms")
        same = _copy(snap)
        assert self._tick(monkeypatch, driver, same) is first
        assert calls == []
        _assert_predicted(driver.policy, same, first)

    @pytest.mark.parametrize("change", ["one ulp", "negative zero", "command row"])
    def test_any_other_bits_recompute(self, change, monkeypatch):
        driver = bench.NeuralDriver(_tiny_policy())
        snap = _command_snaps()[4]
        snap.map_feats[2, 1] = 0.0
        first = self._tick(monkeypatch, driver, snap)
        other = _copy(snap)
        if change == "one ulp":
            other.agent_feats[1, 3] = np.nextafter(other.agent_feats[1, 3], np.inf)
        elif change == "negative zero":
            other.map_feats[2, 1] = -0.0
        else:
            other.cmd_onehot = pol.command_onehot(sim.COMMANDS[5])
        calls = _recorded(monkeypatch, driver.policy, "_scene_terms")
        out = self._tick(monkeypatch, driver, other)
        assert len(calls) == 1 and out is not first
        _assert_predicted(driver.policy, other, out)

    def test_once_per_command_row_and_driver(self, monkeypatch):
        policy = _tiny_policy()
        snaps = _command_snaps()
        calls = _recorded(monkeypatch, policy, "_command_terms")
        driver = bench.NeuralDriver(policy)
        outs = [self._tick(monkeypatch, driver, snap) for snap in snaps + snaps[::-1]]
        # A new driver is a new episode, whose caches start empty.
        self._tick(monkeypatch, bench.NeuralDriver(policy), snaps[2])
        rows = list(range(len(sim.COMMANDS)))
        assert [int(cmd.argmax()) for _, cmd in calls] == rows + [2]
        monkeypatch.undo()
        for snap, out in zip(snaps + snaps[::-1], outs):
            _assert_predicted(policy, snap, out)
        # A row that is not one-hot, even a multiple of a cached row, is
        # refused where its snapshot is built, so no tick gets it.
        with pytest.raises(ValueError, match="one-hot"):
            pol.SceneSnapshot(**{**vars(snaps[0]), "cmd_onehot": snaps[0].cmd_onehot * 2.0})

    @pytest.mark.parametrize("fault", ["bad one-hot", "non-finite"])
    def test_a_call_that_raises_stores_nothing(self, fault, monkeypatch):
        from drivelab.autodiff import NonFiniteError
        driver = bench.NeuralDriver(_tiny_policy())
        good, other = _command_snaps()[1:3]
        first = self._tick(monkeypatch, driver, good)
        terms = dict(driver.terms)
        if fault == "bad one-hot":
            with pytest.raises(ValueError, match="one-hot"):
                pol.SceneSnapshot(**{**vars(good), "cmd_onehot": good.cmd_onehot * 2.0})
        else:
            bad = _copy(good)
            bad.agent_feats[0, 0] = np.nan
            with pytest.raises(NonFiniteError):
                self._tick(monkeypatch, driver, bad)
        assert driver.terms.keys() == terms.keys()
        assert all(driver.terms[row] is terms[row] for row in terms)
        assert self._tick(monkeypatch, driver, good) is first
        _assert_predicted(driver.policy, good, first)
        _assert_predicted(driver.policy, other, self._tick(monkeypatch, driver, other))


class _InferCheckDriver(bench.NeuralDriver):
    """The expert drives, except for a full-brake hold of `hold` ticks once
    the ego is back on LaneFollow after an overtake; every tick runs the
    driver's own tick and checks the output it used, cached or fresh,
    against `predict`."""

    def __init__(self, policy, hold):
        super().__init__(policy)
        self.hold, self.expert_cfg = hold, xp.ExpertConfig()
        self.rows, self.hits, self.seen = [], 0, None

    def act(self, w):
        super().act(w)
        out = self.last[1]
        _assert_predicted(self.policy, self.snap, out)
        self.hits += out is self.seen
        self.seen = out
        self.rows.append(int(self.snap.cmd_onehot.argmax()))
        if len(set(self.rows)) >= 3 and self.rows[-1] == 3 and self.hold > 0:
            self.hold -= 1
            return sim.ControlCommand(brake=1.0)
        return xp.expert_command(w, self.expert_cfg)


def test_infer_equals_predict_through_command_switches_and_a_standstill():
    """A 120 m Overtaking episode: the expert's lane changes switch the
    command row, then a full-brake hold stops the ego behind nothing, where
    a bit-equal snapshot reuses the last output. The output each tick of
    the driver uses equals `predict` bit for bit."""
    driver = _InferCheckDriver(_tiny_policy(), hold=60)
    result = bench.run_episode(driver, sim.ScenarioSpec("Overtaking", 0, route_length=120.0))
    assert result.termination == "completed"
    assert len(set(driver.rows)) >= 3 and driver.terms.keys() == set(driver.rows)
    assert driver.hold == 0 and driver.hits >= 1


MAP_SUITE = [sim.ScenarioSpec("EmergencyBrake", 0, route_length=40.0),
             sim.ScenarioSpec("Merging", 0, route_length=40.0)]


def test_shadow_collection_across_processes_equals_serial(tmp_path):
    policy = _tiny_policy()
    paths = []
    for jobs in (1, 2):
        raw = ds.run_shadow_collection(policy, MAP_SUITE, xp.ExpertConfig(), round_index=1,
                                       jobs=jobs)
        paths.append(tmp_path / f"takeover_{jobs}.jsonl")
        ds.persist(raw, paths[-1])
    assert {s.scenario_id for s in raw.samples} == {"EmergencyBrake:0", "Merging:0"}
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_evaluate_suite_across_processes_equals_serial():
    policy = _tiny_policy()
    (rep1, res1), (rep2, res2) = (bench.evaluate_suite(policy, MAP_SUITE, jobs=jobs)
                                  for jobs in (1, 2))
    assert rep1.to_json() == rep2.to_json()
    assert [(r.kind, r.seed, r.ds, r.elapsed, r.termination) for r in res1] == \
        [(r.kind, r.seed, r.ds, r.elapsed, r.termination) for r in res2]
    assert [[f.ego for f in r.trace] for r in res1] == [[f.ego for f in r.trace] for r in res2]


class _FaultyDriver:
    def act(self, w):
        raise LookupError("injected fault")


def _marked_episode(spec, marks):
    """Leave a marker file named after the episode, then drive it: the
    expert drives every seed but 0, which fails at tick 0."""
    (marks / bench.scenario_id(spec)).touch()
    return bench.run_episode(_FaultyDriver() if spec.seed == 0 else ExpertDriver(), spec).ds


def test_map_episodes_submits_no_episode_after_a_failure(tmp_path):
    """At jobs=2, a 7-episode suite whose first episode fails at tick 0
    starts no episode past the first 2 and raises exactly what jobs=1
    raises: the failure of the lowest suite index."""
    suite = [sim.ScenarioSpec("EmergencyBrake", seed, route_length=40.0) for seed in range(7)]
    raised, started = [], []
    for jobs in (1, 2):
        marks = tmp_path / f"jobs{jobs}"
        marks.mkdir()
        with pytest.raises(LookupError) as err:
            bench.map_episodes(partial(_marked_episode, marks=marks), suite, jobs)
        raised.append((type(err.value), str(err.value)))
        started.append(sorted(m.name for m in marks.iterdir()))
    assert raised == [(LookupError, "EmergencyBrake:0 tick 0: injected fault")] * 2
    assert started == [["EmergencyBrake:0"], ["EmergencyBrake:0", "EmergencyBrake:1"]]


@pytest.mark.parametrize("path, jobs", [
    pytest.param("shadow", 1, id="shadow"), pytest.param("eval", 1, id="eval"),
    pytest.param("shadow", 2, id="shadow-jobs2"), pytest.param("eval", 2, id="eval-jobs2")])
def test_nonfinite_policy_names_scenario_and_tick(path, jobs):
    """A NonFiniteError raised by `infer` mid-episode names the scenario and
    the tick, also when the episode ran in a worker process. Neither phase
    adds a place of its own: `post_optimize` names the round and the stage
    (tests/test_training.py, `TestFailureLocation`)."""
    from drivelab.autodiff import NonFiniteError
    rng = np.random.default_rng(0)
    policy = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4),
                        TrajectoryVocabulary(rng.normal(0, 3.0, size=(4, 6, 2))),
                        ControlVocabulary())
    policy.params["traj_head.w2"].data *= 1e300
    suite = [sim.ScenarioSpec(kind, 3, route_length=40.0) for kind in ("StopSign", "Merging")]
    with pytest.raises(NonFiniteError) as err:
        if path == "shadow":
            ds.run_shadow_collection(policy, suite, xp.ExpertConfig(), round_index=2, jobs=jobs)
        else:
            bench.evaluate_suite(policy, suite, jobs=jobs)
    assert str(err.value) == "StopSign:3 tick 0: non-finite values"


def test_episode_failure_names_scenario_and_tick(monkeypatch):
    """Any exception a tick raises leaves the episode loop naming the
    scenario and the tick, with its type kept and the original as its cause:
    here a nan steer that shadow collection hands the world."""
    real_act = ds._ShadowDriver.act

    def act(self, w):
        cmd = real_act(self, w)
        return sim.ControlCommand(cmd.throttle, cmd.brake, math.nan) if w.tick == 5 else cmd

    monkeypatch.setattr(ds._ShadowDriver, "act", act)
    rng = np.random.default_rng(0)
    policy = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4),
                        TrajectoryVocabulary(rng.normal(0, 3.0, size=(4, 6, 2))),
                        ControlVocabulary())
    suite = [sim.ScenarioSpec("Merging", 3, route_length=40.0)]
    with pytest.raises(ValueError) as err:
        ds.run_shadow_collection(policy, suite, xp.ExpertConfig(), round_index=1)
    assert type(err.value) is ValueError
    assert str(err.value) == "Merging:3 tick 5: steer nan outside [-1, 1]"
    assert str(err.value.__cause__) == "steer nan outside [-1, 1]"


def test_episode_failure_keeps_the_nearest_rebuildable_type():
    """A type whose constructor takes more than a message gives way to the
    nearest base class that takes one."""
    class Fault(KeyError):
        def __init__(self, code, detail):
            super().__init__(f"{code}: {detail}")

    class FaultyDriver:
        def act(self, w):
            if w.tick == 2:
                raise Fault(7, "broken")
            return sim.ControlCommand()

    with pytest.raises(KeyError) as err:
        bench.run_episode(FaultyDriver(), sim.ScenarioSpec("StopSign", 0))
    assert type(err.value) is KeyError
    assert err.value.args == ("StopSign:0 tick 2: '7: broken'",)
    assert isinstance(err.value.__cause__, Fault)
