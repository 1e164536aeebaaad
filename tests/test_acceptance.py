"""Release acceptance gate.

One test per criterion; each records a single PASS/FAIL line (printed in the
terminal summary via conftest) and enforces its runtime budget. The numeric
oracles are derived independently inside each test.
"""

import json
import math
import time

import numpy as np
import pytest

from drivelab import autodiff as ad
from drivelab import cli
from drivelab import dataset as ds
from drivelab import expert as xp
from drivelab import metrics as bench
from drivelab import policy as pol
from drivelab import training as tr
from drivelab import vocab
from drivelab import world as sim
from drivelab.autodiff import Tensor
from drivelab.expert import pure_pursuit_steer
from drivelab.policy import PidTracker, PolicyOutput, SafetyCreep, ensemble

from conftest import record_acceptance
from gradcheck_util import policy_grad_check

CVOCAB = vocab.ControlVocabulary()
ECFG = xp.ExpertConfig()


def finish(name, failures, t0, limit_s):
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < limit_s
    extra = f"; {'; '.join(failures)}" if failures else ""
    record_acceptance(f"{name}: {'PASS' if ok else 'FAIL'} "
                      f"({elapsed:.1f}s of {limit_s:.0f}s budget{extra})")
    assert not failures, "; ".join(failures)
    assert elapsed < limit_s, f"{name} exceeded the {limit_s:.0f}s budget"


def tiny_policy(seed):
    rng = np.random.default_rng(42)
    centers = rng.normal(0, 3.0, size=(4, 6, 2))
    cfg = pol.PolicyConfig(feature_dim=8, k=4, init_seed=seed)
    return pol.Policy(cfg, vocab.TrajectoryVocabulary(centers), CVOCAB)


def random_sample(rng):
    return ds.DemoSample(
        agent_feats=rng.normal(size=(2, pol.AGENT_FEATURES)),
        map_feats=rng.normal(size=(4, pol.MAP_FEATURES)),
        cmd_onehot=np.eye(7)[int(rng.integers(7))],
        traj_waypoints=rng.normal(0, 3.0, size=(6, 2)),
        ctrl_indices=(int(rng.integers(5)), int(rng.integers(2)),
                      int(rng.integers(9))),
        scenario_id="StopSign:0", time=0.0)


def test_criterion_1_preference_loss_correctness():
    t0 = time.monotonic()
    failures = []
    beta = gamma = 0.1

    # closed form: softplus(-(beta ln(pw/pl) - gamma)) + ln sigmoid(-gamma)
    oracle = (math.log1p(math.exp(-(beta * math.log(0.2 / 0.5) - gamma)))
              - math.log1p(math.exp(gamma)))
    got = tr.po_from_dist(Tensor(np.array([0.2, 0.5, 0.3])), 0, 1,
                          beta, gamma).data.item()
    if abs(got - oracle) > 1e-6:
        failures.append(f"closed form: got {got!r}, oracle {oracle!r}")

    # exactly zero loss and zero gradient when the expert pick is the argmax
    d = Tensor(np.array([0.2, 0.5, 0.3]))
    loss = tr.po_from_dist(d, 1, 1, beta, gamma)
    ad.backward(loss)
    if loss.data.item() != 0.0:
        failures.append(f"argmax case loss {loss.data.item()!r} != 0.0")
    if not np.array_equal(d.grad, np.zeros(3)):
        failures.append(f"argmax case gradient {d.grad} != 0")

    # non-negative over 10,000 random draws with the argmax recomputed live
    rng = np.random.default_rng(0)
    worst = math.inf
    for _ in range(10_000):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 10))))
        y_l = int(np.argmax(p))
        y_w = int(rng.integers(len(p)))
        worst = min(worst, tr.po_from_dist(Tensor(p), y_w, y_l,
                                           beta, gamma).data.item())
    if worst < 0.0:
        failures.append(f"negative loss {worst!r} in random sweep")

    finish("criterion 1 (preference loss correctness)", failures, t0, 60.0)


def test_criterion_2_gradient_suite():
    t0 = time.monotonic()
    failures = []
    cfg = tr.TrainConfig()
    h, tol, n_coords = 1e-5, 1e-4, 20
    worst = {}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        policy = tiny_policy(seed)
        demo = random_sample(rng)
        take = random_sample(rng)
        mixed = [demo, take]
        y_w_steer = int(rng.integers(9))

        def simpo():
            # steer group of the live forward pass, y_l its live argmax
            steer = policy.forward(demo.snapshot())["d_ctrl"][2]
            return tr.simpo_from_dist(steer, y_w_steer, int(np.argmax(steer.data)),
                                      cfg.beta, cfg.gamma)

        losses = {
            "kl_trajectory": lambda: tr._batch_loss(
                policy, [demo], cfg, want_traj=True, want_ctrl=False),
            "kl_control": lambda: tr._batch_loss(
                policy, [demo], cfg, want_traj=False, want_ctrl=True),
            "dagger": lambda: tr._batch_loss(policy, mixed, cfg),
            "simpo": simpo,
            # the pair loss po_epoch trains on: all four groups, live argmax
            "po": lambda: tr._pair_losses(policy, demo, cfg),
        }
        for name, fn in losses.items():
            err = policy_grad_check(policy, fn, rng, n_coords=n_coords, h=h)
            worst[name] = max(worst.get(name, 0.0), err)
    for name, err in worst.items():
        if err >= tol:
            failures.append(f"{name}: max relative error {err:.2e} >= {tol}")
    finish("criterion 2 (finite-difference gradient suite)", failures, t0, 300.0)


def test_criterion_3_ensemble_exactness():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(0)
    for i in range(1000):
        a = sim.ControlCommand(throttle=rng.uniform(), brake=rng.uniform(),
                               steer=rng.uniform(-1, 1))
        b = sim.ControlCommand(throttle=rng.uniform(), brake=rng.uniform(),
                               steer=rng.uniform(-1, 1))
        c = ensemble(a, b)
        if c.throttle != (a.throttle + b.throttle) / 2.0 or \
                c.brake != max(a.brake, b.brake) or \
                c.steer != (a.steer + b.steer) / 2.0:
            failures.append(f"case {i}: {a} + {b} -> {c}")
            break
    finish("criterion 3 (branch ensemble bit-exact on 1000 cases)",
           failures, t0, 60.0)


STRAIGHT = np.stack([np.arange(1, 7) * 4.0, np.zeros(6)], axis=1)
PCFG_SHADOW = pol.PolicyConfig(feature_dim=16, k=4, init_seed=0)
TV_SHADOW = vocab.TrajectoryVocabulary(
    np.stack([STRAIGHT + i for i in range(4)]))


def _stub_output(tau_plan, c_ctrl):
    return PolicyOutput(traj_scores=np.full(4, 0.5), d_traj=np.full(4, 0.25),
                        d_ctrl=(np.full(5, 0.2), np.full(2, 0.5),
                                np.full(9, 1.0 / 9.0)),
                        traj_index=0, ctrl_indices=(4, 0, 4),
                        tau_plan=tau_plan, c_ctrl=c_ctrl)


class CollideStraight:
    """Flooring the throttle along a straight plan, blind to traffic."""
    cfg = PCFG_SHADOW
    traj_vocab = TV_SHADOW
    ctrl_vocab = CVOCAB

    def infer(self, snap):
        return _stub_output(STRAIGHT, sim.ControlCommand(throttle=1.0))


class ExpertClone:
    """Emits the privileged controller's own command each tick.

    Keeps a private replay of the (deterministic) episode so it can run the
    controller; valid as long as no takeover alters the real episode, which
    is exactly what the test asserts.
    """
    cfg = PCFG_SHADOW
    traj_vocab = TV_SHADOW
    ctrl_vocab = CVOCAB

    def __init__(self, spec):
        self.w = sim.reset(spec)
        self.pid = PidTracker()

    def infer(self, snap):
        label = xp.expert_act(self.w, ECFG, CVOCAB)
        c_traj = self.pid.track(label.waypoints, self.w.ego)
        e = label.command
        # choose the direct-control branch so the blend reproduces e
        c_ctrl = sim.ControlCommand(
            throttle=float(np.clip(2 * e.throttle - c_traj.throttle, 0, 1)),
            brake=e.brake if e.brake >= c_traj.brake else 0.0,
            steer=float(np.clip(2 * e.steer - c_traj.steer, -1, 1)))
        final = ensemble(c_ctrl, c_traj)
        if not self.w.done:
            sim.advance_world(self.w, final)
        return _stub_output(label.waypoints, c_ctrl)


def test_criterion_4_takeover_pipeline():
    t0 = time.monotonic()
    failures = []
    spec = sim.ScenarioSpec("EmergencyBrake", 1)

    # unmitigated run: establish that an impact is coming, and when
    w = sim.reset(spec)
    drv = CollideStraight()
    pid = PidTracker()
    while not w.done and w.tick < 2000:
        out = drv.infer(None)
        sim.advance_world(w, ensemble(out.c_ctrl, pid.track(out.tau_plan, w.ego)))
    impacts = [e.time for e in w.infractions if e.kind.startswith("collision")]
    if not impacts:
        failures.append("collide-straight run produced no collision")

    raw = ds.run_shadow_collection(CollideStraight(), [spec], ECFG, round_index=1)
    if raw.manifest["triggers"]["collision"] < 1:
        failures.append("no collision trigger in shadow mode")
    segments = {}
    for s in raw.samples:
        segments.setdefault(s.segment_id, []).append(s)
    first = min((seg for seg in segments.values() if seg[0].trigger == "collision"),
                key=lambda seg: seg[0].time, default=None)
    if first is None:
        failures.append("no collision-trigger segment recorded")
    else:
        if impacts and first[0].time >= impacts[0]:
            failures.append(f"trigger at t={first[0].time:.2f} not before "
                            f"impact at t={impacts[0]:.2f}")
        if len(first) != 40:
            failures.append(f"segment has {len(first)} frames, expected 40")
        steps = np.diff([s.time for s in first])
        if not np.allclose(steps, 0.05, atol=1e-12):
            failures.append("segment frames not spaced at dt=0.05")

    clone_raw = ds.run_shadow_collection(ExpertClone(spec), [spec], ECFG,
                                         round_index=1, eps_steer=0.2)
    if clone_raw.manifest["triggers"]["threshold"] != 0:
        failures.append(f"expert clone raised "
                        f"{clone_raw.manifest['triggers']['threshold']} "
                        f"threshold triggers at eps=0.2")

    finish("criterion 4 (takeover trigger/segment pipeline)", failures, t0, 60.0)


def test_criterion_5_expert_quality_gate():
    t0 = time.monotonic()
    failures = []
    suite = [sim.ScenarioSpec(kind, seed)
             for kind in sim.SCENARIO_KINDS for seed in range(5)]

    class ExpertDriver:
        def act(self, w):
            return xp.expert_command(w, ECFG)

    results = [bench.run_episode(ExpertDriver(), spec) for spec in suite]
    mean_ds = float(np.mean([r.ds for r in results]))
    collisions = [(r.kind, r.seed) for r in results
                  if any(k.startswith("collision") for k in r.infractions)]
    if mean_ds < 90.0:
        failures.append(f"expert mean DS {mean_ds:.2f} < 90")
    if collisions:
        failures.append(f"expert collided in {collisions}")
    finish(f"criterion 5 (expert gate: DS {mean_ds:.2f} over 25 episodes)",
           failures, t0, 300.0)


def test_criterion_6_end_to_end_directional_check(tmp_path):
    t0 = time.monotonic()
    failures = []
    train = [sim.ScenarioSpec(k, s) for k in sim.SCENARIO_KINDS for s in (0, 1)]
    val = [sim.ScenarioSpec(k, s) for k in sim.SCENARIO_KINDS for s in (100, 101)]
    pcfg = pol.PolicyConfig(feature_dim=16, k=16, init_seed=0)

    demo = ds.collect_demos(train, ECFG, pcfg, CVOCAB)
    demo.samples = demo.samples[::4]          # desk-scale subsample
    demo.manifest["count"] = len(demo.samples)
    tv = vocab.build_vocabulary(
        np.stack([s.traj_waypoints for s in demo.samples]), k=16, seed=0)
    policy = pol.Policy(pcfg, tv, CVOCAB)
    cfg = tr.TrainConfig(pretrain_epochs=2, batch_size=16, rounds=2, seed=0)
    tr.pretrain(policy, demo, cfg)

    rep_pre, _ = bench.evaluate_suite(policy, val)

    def evaluate(p):
        rep, _ = bench.evaluate_suite(p, val)
        return {"mean_ds": rep.mean_ds, "sr": rep.sr}

    _, reports = tr.post_optimize(policy, demo, train, ECFG, cfg,
                                  str(tmp_path / "rounds"), evaluate=evaluate)

    final = reports[-1]["validation"]
    if final["mean_ds"] < rep_pre.mean_ds + 5.0:
        failures.append(f"DS {final['mean_ds']:.2f} not >= "
                        f"pretrained {rep_pre.mean_ds:.2f} + 5")
    if final["sr"] < rep_pre.sr:
        failures.append(f"SR fell {rep_pre.sr:.1f} -> {final['sr']:.1f}")
    for rep in reports:
        if "margin_before" not in rep:
            failures.append(f"round {rep['round']} skipped preference epochs")
        elif rep["margin_after"] <= rep["margin_before"]:
            failures.append(
                f"round {rep['round']} margin {rep['margin_before']:.4f} -> "
                f"{rep['margin_after']:.4f} did not increase")
    finish(f"criterion 6 (post-optimization DS "
           f"{rep_pre.mean_ds:.1f} -> {final['mean_ds']:.1f} on validation)",
           failures, t0, 7200.0)


class InertiaDriver:
    """Route follower that freezes after its first full stop — the failure
    mode the creeping pulse exists to break."""

    def __init__(self, creep_enabled):
        self.creep = SafetyCreep(enabled=creep_enabled)
        self.stuck = False
        self.moved = False

    def act(self, w):
        s, _ = w.route.project(w.ego.x, w.ego.y)
        steer = pure_pursuit_steer(w.route, w.ego, 6.0, s)
        stop = w.route.stop_line_s
        if w.ego.speed > 1.0:
            self.moved = True
            self.stuck = False
        if self.moved and w.ego.speed < 0.1:
            self.stuck = True
        if self.stuck:
            cmd = sim.ControlCommand(brake=1.0, steer=steer)
        elif stop is not None and not w.stop_line_served and \
                w.ego.speed ** 2 / (2 * sim.B_MAX) >= (stop - s) - 1.0:
            cmd = sim.ControlCommand(brake=1.0, steer=steer)
        else:
            cmd = sim.ControlCommand(throttle=0.5, steer=steer)
        override = self.creep.update(w, cmd.steer)
        return override if override is not None else cmd


def test_criterion_7_safety_creeping_reduces_timeouts():
    t0 = time.monotonic()
    failures = []
    suite = [sim.ScenarioSpec("StopSign", s) for s in range(5)]
    rates = {}
    for enabled in (False, True):
        results = [bench.run_episode(InertiaDriver(enabled), spec)
                   for spec in suite]
        rates[enabled] = bench.summarize(results).timeout_pct
    if rates[False] == 0.0:
        failures.append("disabled arm produced no timeouts; test setup broken")
    if rates[True] >= rates[False]:
        failures.append(f"timeout rate {rates[False]:.0f}% -> {rates[True]:.0f}% "
                        f"not reduced by creeping")
    finish(f"criterion 7 (creeping timeouts {rates[False]:.0f}% -> "
           f"{rates[True]:.0f}%)", failures, t0, 600.0)


PIPE_CFG = {
    "suites": {
        "train": {"kinds": ["EmergencyBrake", "StopSign"], "seeds": [0]},
        "validation": {"kinds": ["EmergencyBrake"], "seeds": [100]},
        "test": {"kinds": ["EmergencyBrake", "StopSign"], "seeds": [200]},
    },
    "policy": {"feature_dim": 8, "k": 4, "n_agents": 8, "n_map": 16},
    "train": {"pretrain_epochs": 1, "rounds": 1, "po_epochs": 1},
    "demo_subsample": 8,
}
PIPELINE = ("collect-demos", "build-vocab", "pretrain", "postopt", "eval")


def _run_pipeline(tmp_path, name, jobs=1, commands=PIPELINE):
    out = tmp_path / name
    cfg = dict(PIPE_CFG, out_dir=str(out))
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    for command in commands:
        code = cli.main(["--config", str(cfg_path), "--jobs", str(jobs), command])
        assert code == 0, f"{command} failed in {name}"
    return out


def test_criterion_8_determinism(tmp_path):
    t0 = time.monotonic()
    failures = []
    run_a = _run_pipeline(tmp_path, "run_a")
    run_b = _run_pipeline(tmp_path, "run_b")
    artifacts = ("demos.jsonl", "vocab.jsonl", "pretrained.ckpt",
                 "postopt/policy.ckpt", "eval_report.json")
    for rel in artifacts:
        if (run_a / rel).read_bytes() != (run_b / rel).read_bytes():
            failures.append(f"{rel} differs between identical runs")

    run_c = _run_pipeline(tmp_path, "run_c", jobs=4, commands=("collect-demos",))
    if (run_a / "demos.jsonl").read_bytes() != (run_c / "demos.jsonl").read_bytes():
        failures.append("--jobs 4 demos differ from --jobs 1")
    finish("criterion 8 (byte-identical reruns; jobs 1 == jobs 4)",
           failures, t0, 1200.0)


def test_criterion_9_kmeans_properties():
    t0 = time.monotonic()
    failures = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 2.0, size=(200, 6, 2))
        costs = []
        vocab.build_vocabulary(pts, k=8, seed=seed, cost_trace=costs)
        diffs = np.diff(costs)
        if len(costs) < 2 or np.any(diffs > 1e-9):
            failures.append(f"seed {seed}: cost increased "
                            f"(max step {diffs.max():.3e})")
    rng = np.random.default_rng(123)
    pts = rng.normal(0, 2.0, size=(50, 6, 2))
    single = vocab.build_vocabulary(pts, k=1, seed=0)
    gap = np.abs(single.centers[0] - pts.mean(axis=0)).max()
    if gap > 1e-9:
        failures.append(f"k=1 center off the mean by {gap:.2e}")
    finish("criterion 9 (clustering cost monotone; k=1 equals mean)",
           failures, t0, 300.0)
