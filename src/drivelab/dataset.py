"""Demonstration collection, the shadow-mode takeover pipeline, dataset
merging, and line-delimited JSON persistence."""

import json
import os
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import expert as xp
from .autodiff import NonFiniteError
# MAX_EPISODE_TICKS is not used here; perfbench/workloads.py reads it as
# dataset.MAX_EPISODE_TICKS, so it stays importable from this module.
from .metrics import MAX_EPISODE_TICKS, NeuralDriver, map_episodes, run_episode, scenario_id
from .policy import AGENT_FEATURES, MAP_FEATURES, SceneSnapshot, encode_scene

EPS_STEER = 0.2                  # threshold-trigger steering gap
TAKEOVER_TICKS = 40              # 2 s at dt = 0.05
SUPPRESS_TICKS = 20              # 1 s re-trigger suppression after handback
MAX_INFRACTION_RATE = 0.2        # discarded-episode share that aborts demo collection
TRIGGERS = ("collision", "threshold")   # takeover trigger kinds, in manifest order


@dataclass
class DemoSample:
    agent_feats: np.ndarray
    map_feats: np.ndarray
    cmd_onehot: np.ndarray
    traj_waypoints: np.ndarray      # expert planned trajectory, (6, 2)
    ctrl_indices: tuple             # (throttle_idx, brake_idx, steer_idx)
    scenario_id: str
    time: float

    def snapshot(self):
        return SceneSnapshot(agent_feats=self.agent_feats, map_feats=self.map_feats,
                             cmd_onehot=self.cmd_onehot)


@dataclass
class TakeoverSample(DemoSample):
    trigger: str = "collision"       # collision | threshold (segment-level, first frame)
    steer_gap: float = 0.0
    policy_traj_index: int = -1      # diagnostic only; preference pairs are rebuilt live
    policy_ctrl_indices: tuple = (-1, -1, -1)
    segment_id: str = ""
    round_index: int = 0
    ego_speed: float = 0.0
    infraction_kinds: tuple = ()     # infractions logged on this tick
    truncated: bool = False


class Dataset:
    """Samples plus a manifest describing provenance and filtering."""

    def __init__(self, samples, kind="demo", vocab_hash=None, manifest=None):
        self.samples = list(samples)
        self.manifest = dict(manifest or {})
        self.manifest.setdefault("kind", kind)
        self.manifest["count"] = len(self.samples)
        if vocab_hash is not None:
            self.manifest["vocab_hash"] = vocab_hash

    def __len__(self):
        return len(self.samples)

    @property
    def vocab_hash(self):
        return self.manifest.get("vocab_hash")


_ROW_WIDTHS = {"agent_feats": AGENT_FEATURES, "map_feats": MAP_FEATURES}


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON number")


# Records hold arrays as nested lists and tuples as lists. NaN and Infinity
# are not JSON: the encoder refuses a non-finite value, the decoder the token.
_ENCODER = json.JSONEncoder(allow_nan=False, default=np.ndarray.tolist)
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _record_to_sample(rec):
    """The sample a record holds, every field of its class required: a
    takeover record is the one with a `segment_id`."""
    cls = TakeoverSample if "segment_id" in rec else DemoSample
    values = {}
    for f in fields(cls):
        v = rec[f.name]
        if f.type is np.ndarray:
            v = np.array(v, dtype=np.float64)
            if f.name in _ROW_WIDTHS:
                v = v.reshape(-1, _ROW_WIDTHS[f.name])
        elif f.type is tuple:
            v = tuple(v)
        values[f.name] = v
    return cls(**values)


def persist(dataset, path):
    """Write a dataset as a manifest line followed by one JSON record per
    sample, its fields in declaration order. The lines go to `<path>.tmp`,
    which replaces `path` only once every sample is written, so a sample
    that cannot be written (one with a non-finite value) leaves `path` as
    it was."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write(_ENCODER.encode(dataset.manifest) + "\n")
        for i, s in enumerate(dataset.samples):
            try:
                line = _ENCODER.encode({fd.name: getattr(s, fd.name) for fd in fields(s)})
            except ValueError as e:
                os.remove(tmp)
                raise ValueError(f"{path}: sample {i} not persisted ({e})")
            f.write(line + "\n")
    os.replace(tmp, path)


def load(path, expect_vocab_hash=None):
    """Read a dataset; malformed lines, a NaN or Infinity token among them,
    are rejected with their line number."""
    samples = []
    with open(path) as f:
        first = f.readline()
        if not first:
            raise ValueError(f"{path}:1: empty dataset file (missing manifest)")
        try:
            manifest = _DECODER.decode(first)
        except ValueError as e:
            raise ValueError(f"{path}:1: malformed manifest ({e})")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                samples.append(_record_to_sample(_DECODER.decode(line)))
            except (KeyError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: malformed sample record ({e})")
    if manifest.get("count") != len(samples):
        raise ValueError(
            f"{path}: manifest count {manifest.get('count')} != {len(samples)} records "
            "(truncated file?)")
    if expect_vocab_hash is not None and manifest.get("vocab_hash") not in (None, expect_vocab_hash):
        raise ValueError(f"{path}: vocabulary hash {manifest.get('vocab_hash')} does not "
                         f"match expected {expect_vocab_hash}")
    return Dataset(samples, manifest=manifest)


class _DemoDriver:
    """The expert, driving: each tick's scene and expert label are kept as a
    DemoSample stamped with the tick's start time."""

    def __init__(self, expert_cfg, policy_cfg, control_vocab):
        self.expert_cfg = expert_cfg
        self.policy_cfg = policy_cfg
        self.control_vocab = control_vocab
        self.samples = []

    def act(self, w):
        snap = encode_scene(w, self.policy_cfg)
        label = xp.expert_act(w, self.expert_cfg, self.control_vocab)
        self.samples.append(DemoSample(
            agent_feats=snap.agent_feats, map_feats=snap.map_feats,
            cmd_onehot=snap.cmd_onehot, traj_waypoints=label.waypoints,
            ctrl_indices=(label.throttle_idx, label.brake_idx, label.steer_idx),
            scenario_id=scenario_id(w.spec), time=w.time))
        return label.command


def _demo_episode(spec, expert_cfg, policy_cfg, control_vocab):
    """One expert episode: its DemoSamples, one per tick, and whether it
    had an infraction."""
    driver = _DemoDriver(expert_cfg, policy_cfg, control_vocab)
    return driver.samples, bool(run_episode(driver, spec).infractions)


def collect_demos(suite, expert_cfg, policy_cfg, control_vocab,
                  max_infraction_rate=MAX_INFRACTION_RATE, subsample=1, jobs=1):
    """Drive every route with the expert and keep every `subsample`-th tick
    of each episode as a DemoSample.

    Episodes with any infraction are discarded whole. If more than
    max_infraction_rate of them are, the expert is considered misconfigured
    and collection aborts.
    """
    episodes = map_episodes(partial(_demo_episode, expert_cfg=expert_cfg, policy_cfg=policy_cfg,
                                    control_vocab=control_vocab), suite, jobs)
    kept = [s for episode, bad in episodes if not bad for s in episode[::subsample]]
    discarded = sum(bad for _, bad in episodes)
    if discarded > max_infraction_rate * len(suite):
        raise RuntimeError(
            f"expert misconfigured: {discarded}/{len(suite)} episodes had infractions "
            f"(limit {max_infraction_rate:.0%})")
    return Dataset(kept, kind="demo",
                   manifest={"episodes": len(suite), "episodes_discarded": discarded,
                             "subsample": subsample})


class _ShadowDriver:
    """The policy, driving through a NeuralDriver with the expert shadowing
    it: a trigger hands control to the expert for TAKEOVER_TICKS ticks,
    after which triggers are suppressed for SUPPRESS_TICKS ticks. Each
    takeover tick is kept as (tick, segment, snapshot, policy output, expert
    label); a segment is (id, trigger, steer gap)."""

    def __init__(self, policy, expert_cfg, round_index, eps_steer):
        self.neural = NeuralDriver(policy)
        self.expert_cfg, self.round_index, self.eps_steer = expert_cfg, round_index, eps_steer
        self.takeover_left = self.suppress_left = 0
        self.segments, self.takeovers = [], []

    def act(self, w):
        final = self.neural.act(w)
        if self.takeover_left == 0 and self.suppress_left == 0:
            gap = abs(final.steer - xp.expert_command(w, self.expert_cfg).steer)
            collides = xp.forecast_collision(w, self.expert_cfg.forecast_horizon) is not None
            trigger = "collision" if collides else "threshold" if gap > self.eps_steer else None
            if trigger is not None:
                self.takeover_left = TAKEOVER_TICKS
                self.segments.append((f"{scenario_id(w.spec)}/r{self.round_index}"
                                      f"/s{len(self.segments) + 1}", trigger, gap))
        if self.takeover_left > 0:
            label = xp.expert_act(w, self.expert_cfg, self.neural.policy.ctrl_vocab)
            self.takeovers.append(
                (w.tick, self.segments[-1], self.neural.snap, self.neural.out, label))
            self.takeover_left -= 1
            if self.takeover_left == 0:
                self.suppress_left = SUPPRESS_TICKS
            return label.command
        if self.suppress_left > 0:
            self.suppress_left -= 1
        return final


def _shadow_episode(spec, policy, expert_cfg, round_index, eps_steer):
    """One shadowed episode: its TakeoverSamples and its trigger counts. A
    sample's time, ego speed and infractions are those of the Frame its
    tick left in the trace; the last segment is truncated if the episode
    ended inside it."""
    driver = _ShadowDriver(policy, expert_cfg, round_index, eps_steer)
    trace = run_episode(driver, spec).trace
    samples = []
    for tick, (seg_id, trig, gap), snap, out, label in driver.takeovers:
        frame = trace[tick]
        samples.append(TakeoverSample(
            agent_feats=snap.agent_feats, map_feats=snap.map_feats,
            cmd_onehot=snap.cmd_onehot, traj_waypoints=label.waypoints,
            ctrl_indices=(label.throttle_idx, label.brake_idx, label.steer_idx),
            scenario_id=scenario_id(spec), time=frame.time,
            trigger=trig, steer_gap=gap,
            policy_traj_index=out.traj_index,
            policy_ctrl_indices=out.ctrl_indices,
            segment_id=seg_id, round_index=round_index,
            ego_speed=frame.ego[3], infraction_kinds=tuple(frame.infractions),
            truncated=driver.takeover_left > 0 and seg_id == driver.segments[-1][0]))
    return samples, {k: sum(t == k for _, t, _ in driver.segments) for k in TRIGGERS}


def run_shadow_collection(policy, suite, expert_cfg, round_index, eps_steer=EPS_STEER,
                          jobs=1):
    """Drive the policy closed-loop through the evaluation NeuralDriver
    (safety creeping on), with the expert shadowing it.

    A takeover starts when the 2 s collision forecast hits or when the
    post-ensemble policy steer differs from the expert steer by more than
    eps_steer; the expert then drives for exactly 2 s (40 ticks), one
    TakeoverSample per tick. Re-triggering is suppressed for 1 s after
    handback. Returns the raw (unfiltered) takeover dataset.
    """
    try:
        episodes = map_episodes(partial(_shadow_episode, policy=policy, expert_cfg=expert_cfg,
                                        round_index=round_index, eps_steer=eps_steer),
                                suite, jobs)
    except NonFiniteError as e:
        raise NonFiniteError(f"shadow round {round_index} {e}")
    trigger_counts = {k: sum(counts[k] for _, counts in episodes) for k in TRIGGERS}
    return Dataset([s for samples, _ in episodes for s in samples], kind="takeover",
                   vocab_hash=policy.traj_vocab.hash(),
                   manifest={"round": round_index, "triggers": trigger_counts})


def filter_takeovers(dataset):
    """Drop segments where the expert itself misbehaved.

    Discards segments containing an expert-attributed collision/off-road
    event, segments with route deviation, and stuck segments (mean expert
    speed < 0.1 m/s). Idempotent; discard statistics land in the manifest.
    """
    segments = {}
    for s in dataset.samples:
        segments.setdefault(s.segment_id, []).append(s)
    kept = []
    stats = {"segments": len(segments), "discard_infraction": 0,
             "discard_deviation": 0, "discard_stuck": 0, "kept": 0}
    for seg_id in sorted(segments):
        seg = segments[seg_id]
        kinds = {k for s in seg for k in s.infraction_kinds}
        if any(k.startswith("collision") or k == "off_road" for k in kinds):
            stats["discard_infraction"] += 1
        elif "route_deviation" in kinds:
            stats["discard_deviation"] += 1
        elif np.mean([s.ego_speed for s in seg]) < 0.1:
            stats["discard_stuck"] += 1
        else:
            kept.extend(seg)
            stats["kept"] += 1
    manifest = dict(dataset.manifest)
    manifest["filter_stats"] = stats
    return Dataset(kept, manifest=manifest)


class MergedDataset:
    """Demonstrations plus takeover rounds, with takeover samples oversampled
    in the sampling distribution."""

    def __init__(self, demo, takeover_rounds, takeover_weight=4.0):
        hashes = {d.vocab_hash for d in takeover_rounds if d.vocab_hash is not None}
        if demo.vocab_hash is not None:
            hashes.add(demo.vocab_hash)
        if len(hashes) > 1:
            raise ValueError(f"vocabulary hash mismatch across datasets: {sorted(hashes)}")
        self.samples = list(demo.samples)
        self.weights = [1.0] * len(demo.samples)
        for d in takeover_rounds:
            self.samples.extend(d.samples)
            self.weights.extend([takeover_weight] * len(d.samples))
        self.weights = np.asarray(self.weights)
        self.manifest = {
            "kind": "merged",
            "demo_count": len(demo.samples),
            "takeover_counts": [len(d) for d in takeover_rounds],
            "takeover_weight": takeover_weight,
            "count": len(self.samples),
        }

    def __len__(self):
        return len(self.samples)

    def epoch_indices(self, rng):
        """One deterministic epoch: each demo sample once, each takeover
        sample round(weight) times, shuffled."""
        reps = np.rint(self.weights).astype(int)
        idx = np.repeat(np.arange(len(self.samples)), reps)
        rng.shuffle(idx)
        return idx
