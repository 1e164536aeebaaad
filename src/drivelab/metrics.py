"""Closed-loop evaluation: per-episode scoring (route completion, infraction
score, driving score), trace-level efficiency and comfort metrics, and
suite-level report generation."""

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import world as sim
from .autodiff import NonFiniteError
from .policy import PidTracker, SafetyCreep, encode_scene, ensemble

MAX_EPISODE_TICKS = 4000


def scenario_id(spec):
    return f"{spec.kind}:{spec.seed}"


@dataclass
class EpisodeResult:
    kind: str
    seed: int
    rc: float                  # route completion in [0, 1]
    infraction_score: float    # product of penalty factors, in [0, 1]
    success: bool
    timeout: bool
    elapsed: float
    termination: str
    infractions: list
    trace: list = field(repr=False, default_factory=list)
    speed_limit: float = sim.SPEED_LIMIT   # the route's; efficiency's fallback v_ref

    @property
    def ds(self):
        return 100.0 * self.rc * self.infraction_score


def score_episode(world):
    """Fold a finished world into an EpisodeResult."""
    # Reaching the route end scores full completion (the terminal check
    # allows a sub-meter arrival tolerance).
    if world.termination == "completed":
        rc = 1.0
    else:
        rc = min(1.0, world.progress / world.route.length)
    is_score = 1.0
    kinds = []
    for ev in world.infractions:
        is_score *= ev.penalty
        kinds.append(ev.kind)
    timeout = "timeout" in kinds
    success = rc >= 0.99 and is_score == 1.0 and not timeout
    return EpisodeResult(
        kind=world.spec.kind, seed=world.spec.seed, rc=rc,
        infraction_score=is_score, success=success, timeout=timeout,
        elapsed=world.time, termination=world.termination or "running",
        infractions=kinds, trace=world.trace, speed_limit=world.route.speed_limit)


class NeuralDriver:
    """Closes the loop around a policy: scene encoding, both branches, PID
    trajectory tracking, the branch ensemble, and the safety-creeping check.

    Shadow-mode takeover collection and closed-loop evaluation both drive
    through this class, so the policy that triggers takeovers is exactly the
    one that is scored. The last tick's scene snapshot and policy output stay
    on the driver as `snap` and `out`. A NonFiniteError from the policy
    names the scenario and tick it happened at."""

    def __init__(self, policy, creep_enabled=True):
        self.policy = policy
        self.pid = PidTracker()
        self.creep = SafetyCreep(enabled=creep_enabled)
        self.snap = self.out = None

    def act(self, world):
        self.snap = encode_scene(world, self.policy.cfg)
        try:
            self.out = self.policy.infer(self.snap)
        except NonFiniteError as e:
            raise NonFiniteError(f"{scenario_id(world.spec)} tick {world.tick}: {e}")
        c_traj = self.pid.track(self.out.tau_plan, world.ego)
        cmd = ensemble(self.out.c_ctrl, c_traj)
        override = self.creep.update(world, cmd.steer)
        return override if override is not None else cmd


def run_episode(driver, spec):
    """Run any driver (object with act(world) -> ControlCommand) closed-loop
    from the spec's first tick until the world is done or MAX_EPISODE_TICKS
    have passed. This is the one episode loop: demo collection, shadow
    collection and evaluation are each a driver run here."""
    w = sim.reset(spec)
    while not w.done and w.tick < MAX_EPISODE_TICKS:
        sim.advance_world(w, driver.act(w))
    return score_episode(w)


def run_closed_loop(policy, spec, creep_enabled=True):
    """One policy evaluation episode on a scenario."""
    return run_episode(NeuralDriver(policy, creep_enabled=creep_enabled), spec)


def efficiency(trace, speed_limit=sim.SPEED_LIMIT):
    """Mean over frames of min(1, v_ego / v_ref) x 100. v_ref is the mean
    speed of moving actors within 50 m, falling back to the speed limit."""
    if not trace:
        raise ValueError("efficiency requires a non-empty trace")
    vals = []
    for f in trace:
        ex, ey, _, ev = f.ego
        near = [a[3] for a in f.actors
                if a[3] > 0.1 and math.hypot(a[0] - ex, a[1] - ey) <= 50.0]
        v_ref = float(np.mean(near)) if near else speed_limit
        vals.append(min(1.0, ev / max(v_ref, 1e-6)))
    return 100.0 * float(np.mean(vals))


def comfortness(trace):
    """Percentage of frames with |accel| <= 3, |jerk| <= 5, |yaw rate| <= 0.6
    (finite differences over the trace)."""
    if len(trace) < 3:
        raise ValueError("comfortness requires at least 3 frames")
    speeds = np.array([f.ego[3] for f in trace])
    headings = np.array([f.ego[2] for f in trace])
    accel = np.diff(speeds) / sim.DT
    jerk = np.diff(accel) / sim.DT
    dheading = np.array([sim.wrap_angle(d) for d in np.diff(headings)])
    yaw_rate = dheading / sim.DT
    n = len(jerk)     # frames with all three estimates defined
    ok = (np.abs(accel[1:]) <= 3.0) & (np.abs(jerk) <= 5.0) & \
        (np.abs(yaw_rate[1:]) <= 0.6)
    return 100.0 * float(ok.sum()) / n


@dataclass
class SuiteReport:
    mean_ds: float
    sr: float                 # percent
    efficiency: float
    comfortness: float
    timeout_pct: float
    ability: dict             # scenario kind -> success rate (percent)
    episodes: int
    config_hash: str = ""
    checkpoint_hash: str = ""

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def to_text(self):
        rows = [("episodes", f"{self.episodes}"),
                ("mean DS", f"{self.mean_ds:8.2f}"),
                ("SR %", f"{self.sr:8.2f}"),
                ("efficiency", f"{self.efficiency:8.2f}"),
                ("comfortness", f"{self.comfortness:8.2f}"),
                ("timeout %", f"{self.timeout_pct:8.2f}")]
        lines = [f"{name:<14}{val}" for name, val in rows]
        lines.append("per-scenario success rate:")
        for kind in sorted(self.ability):
            lines.append(f"  {kind:<16}{self.ability[kind]:6.1f}")
        if self.config_hash:
            lines.append(f"config hash     {self.config_hash}")
        if self.checkpoint_hash:
            lines.append(f"checkpoint hash {self.checkpoint_hash}")
        return "\n".join(lines)


def summarize(results):
    if not results:
        raise ValueError("summarize requires at least one episode")
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r)
    ability = {k: 100.0 * np.mean([r.success for r in v]) for k, v in by_kind.items()}
    effs = [efficiency(r.trace, r.speed_limit) for r in results if r.trace]
    comfs = [comfortness(r.trace) for r in results if len(r.trace) >= 3]
    return SuiteReport(
        mean_ds=float(np.mean([r.ds for r in results])),
        sr=100.0 * float(np.mean([r.success for r in results])),
        efficiency=float(np.mean(effs)) if effs else 0.0,
        comfortness=float(np.mean(comfs)) if comfs else 0.0,
        timeout_pct=100.0 * float(np.mean([r.timeout for r in results])),
        ability=ability, episodes=len(results))


def map_episodes(fn, suite, jobs=1):
    """[fn(spec) for spec in suite], across `jobs` processes when jobs > 1:
    results keep suite order, so they never depend on worker scheduling."""
    if jobs <= 1 or len(suite) <= 1:
        return [fn(spec) for spec in suite]
    # Imported here: the import alone raises a process's peak RSS by about
    # 1.5 MB, and serial runs never need it.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, suite))


def evaluate_suite(policy, suite, creep_enabled=True, jobs=1):
    try:
        results = map_episodes(partial(run_closed_loop, policy, creep_enabled=creep_enabled),
                               suite, jobs)
    except NonFiniteError as e:
        raise NonFiniteError(f"eval {e}")
    return summarize(results), results


def write_trend_csv(reports, path):
    """Round-by-round DS/SR trend (one line per post-optimization round)."""
    with open(path, "w") as f:
        f.write("round,mean_ds,sr\n")
        for rep in reports:
            val = rep.get("validation", {})
            f.write(f"{rep['round']},{val.get('mean_ds', '')},{val.get('sr', '')}\n")
