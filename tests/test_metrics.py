import json
import math

import numpy as np
import pytest

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
        assert r.timeout and not r.success
        assert r.rc < 0.05

    def test_penalty_arithmetic(self):
        spec = sim.ScenarioSpec("StopSign", 0)
        w = sim.reset(spec)
        w.progress = w.route.length
        w.termination = "completed"
        w.done = True
        w.infractions.append(sim.InfractionEvent("collision_vehicle", 1.0, 0.60))
        r = bench.score_episode(w)
        assert r.ds == pytest.approx(100.0 * 1.0 * 0.60)
        assert not r.success

    def test_ds_monotone_in_infractions(self):
        spec = sim.ScenarioSpec("StopSign", 0)
        w = sim.reset(spec)
        w.progress = w.route.length
        base = bench.score_episode(w).ds
        for kind, pen in sim.PENALTY.items():
            w2 = sim.reset(spec)
            w2.progress = w2.route.length
            w2.infractions.append(sim.InfractionEvent(kind, 1.0, pen))
            assert bench.score_episode(w2).ds < base

    def test_success_implies_high_ds(self):
        spec = sim.ScenarioSpec("EmergencyBrake", 0)
        r = bench.run_episode(ExpertDriver(), spec)
        if r.success:
            assert r.ds >= 99.0

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
                                   infraction_score=1.0, success=success,
                                   timeout=timeout, elapsed=30.0,
                                   termination="completed", infractions=[],
                                   trace=[])

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
            100.0 * np.mean([r.timeout for r in results]))
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
    assert digests == ["0172a0388b076806fffd4a95ef6cd987065dd5d58a19f9245348a634569e6f50",
                       "2a1ebdf6edb623f9bc6d1bcdbbacb2bc94bb7d940f4010764f2468022d689418"]


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


@pytest.mark.parametrize("path, jobs", [
    pytest.param("shadow", 1, id="shadow"), pytest.param("eval", 1, id="eval"),
    pytest.param("shadow", 2, id="shadow-jobs2"), pytest.param("eval", 2, id="eval-jobs2")])
def test_nonfinite_policy_names_scenario_and_tick(path, jobs):
    """A NonFiniteError raised by `infer` mid-episode names the stage, the
    scenario and the tick, like `_run_epoch` names its batch, also when the
    episode ran in a worker process."""
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
    prefix = "shadow round 2 " if path == "shadow" else "eval "
    assert str(err.value) == f"{prefix}StopSign:3 tick 0: non-finite values"
