"""End-to-end driving policy.

Privileged scene features embedded into agent/map tokens, a trajectory
branch scoring a k-means vocabulary, a reactive control branch over
discrete throttle/brake/steer actions, PID tracking of the planned
trajectory, an output ensemble, and the safety-creeping override.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import world as sim
from .vocab import ControlVocabulary, WAYPOINT_DT

AGENT_FEATURES = 7      # rel x, rel y, sin/cos rel heading, speed, length, width
MAP_FEATURES = 12       # midpoint x/y, sin/cos direction, distance, 7 command one-hot
POS_FREQS = (0.05, 0.2, 0.8, 3.2)
SIZE_FIELDS = ("feature_dim", "k", "n_agents", "n_map")   # checked, and stamped in checkpoints


@dataclass
class PolicyConfig:
    feature_dim: int = 64      # C
    k: int = 64                # trajectory vocabulary size
    n_agents: int = 8          # agent token slots (N_a)
    n_map: int = 16            # map token slots (N_m)
    init_seed: int = 0

    def __post_init__(self):
        for f in SIZE_FIELDS:
            v = getattr(self, f)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"PolicyConfig.{f} must be an integer >= 1, got {v!r}")


def _rows(name, array, width):
    """`array` as rows of `width` columns, `[]` as a new (0, width) array, or a ValueError."""
    shape = array.shape
    if len(shape) == 2 and shape[1] == width:
        return array
    if shape == (0,):
        return np.zeros((0, width))
    raise ValueError(f"{name}: shape {shape} is not (n, {width})")


@dataclass
class SceneSnapshot:
    """Raw privileged inputs to the scene encoder (pre-embedding), each
    field's shape and domain checked where a snapshot is built."""
    agent_feats: np.ndarray    # rows of AGENT_FEATURES, nearest agent first
    map_feats: np.ndarray      # rows of MAP_FEATURES
    cmd_onehot: np.ndarray     # a (len(COMMANDS),) row of _COMMAND_ROWS

    def __post_init__(self):
        self.agent_feats = _rows("agent_feats", self.agent_feats, AGENT_FEATURES)
        self.map_feats = _rows("map_feats", self.map_feats, MAP_FEATURES)
        if self.cmd_onehot.tolist() not in _COMMAND_ROWS.values():
            shape, want = self.cmd_onehot.shape, (len(sim.COMMANDS),)
            if shape != want:
                raise ValueError(f"cmd_onehot: shape {shape} is not {want}")
            raise ValueError(f"cmd_onehot: {self.cmd_onehot.tolist()} is not one-hot "
                             f"over {want[0]} commands")


@dataclass
class PolicyOutput:
    d_traj: np.ndarray             # normalized trajectory distribution
    d_ctrl: tuple                  # (throttle dist, brake dist, steer dist)
    tau_plan: np.ndarray           # (6, 2) vocabulary trajectory
    c_ctrl: sim.ControlCommand


def command_onehot(command):
    vec = np.zeros(len(sim.COMMANDS))
    vec[sim.COMMANDS.index(command)] = 1.0
    return vec


_COMMAND_ROWS = {c: command_onehot(c).tolist() for c in sim.COMMANDS}


def encode_scene(world, cfg):
    """Extract the raw privileged features the policy consumes.

    Agent slots are ordered by distance to the ego (nearest first) and
    truncated to N_a; empty slots are simply absent (masked). Map slots
    cover the next N_m route segments from the ego's position.
    """
    ego = world.ego
    ranked = sorted(world.actors,
                    key=lambda a: (math.hypot(a.x - ego.x, a.y - ego.y), a.actor_id))
    agent_rows = []
    for a in ranked[:cfg.n_agents]:
        rx, ry = sim.to_ego(a.x, a.y, ego.x, ego.y, ego.heading)
        rh = sim.wrap_angle(a.heading - ego.heading)
        agent_rows.append([rx, ry, math.sin(rh), math.cos(rh), a.speed, a.length, a.width])

    route = world.route
    ego_s, _ = world.ego_projection()
    first_seg = route.segment_index(ego_s)
    points = route.points
    map_rows = []
    for j in range(first_seg, min(first_seg + cfg.n_map, len(route.commands))):
        (ax, ay), (bx, by) = points[j], points[j + 1]
        mx, my = sim.to_ego((ax + bx) / 2.0, (ay + by) / 2.0, ego.x, ego.y, ego.heading)
        rh = sim.wrap_angle(route.headings[j] - ego.heading)
        map_rows.append([mx, my, math.sin(rh), math.cos(rh), math.hypot(mx, my)]
                        + _COMMAND_ROWS[route.commands[j]])

    return SceneSnapshot(agent_feats=np.array(agent_rows), map_feats=np.array(map_rows),
                         cmd_onehot=command_onehot(route.command_at(ego_s)))


def positional_encoding(centers_flat):
    """Sinusoidal encoding of candidate waypoint coordinates: (k, 12*2*|freqs|)."""
    cols = []
    for f in POS_FREQS:
        cols.append(np.sin(centers_flat * f))
        cols.append(np.cos(centers_flat * f))
    return np.concatenate(cols, axis=1)


def _mlp2(params, prefix, x):
    return ad.mlp2(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"],
                   params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _cross_attention(params, prefix, queries, q, keys, mask):
    """Residual single-head cross-attention of queries, whose projection
    through `{prefix}.wq` is `q`, over key tokens.

    `mask` marks each sample's valid key slots (None: all valid), so a
    sample with no valid key gets exactly zero attention term. `keys` is None
    when no sample of the batch has a slot at all, and the queries pass
    through unchanged."""
    if keys is None:
        return queries
    k = keys @ params[f"{prefix}.wk"]
    v = keys @ params[f"{prefix}.wv"]
    return queries + ad.scaled_dot_attention(q, k, v, mask)


def _pad(rows):
    """Stack per-sample (n_i, F) row blocks into (B, n, F), n the largest n_i,
    each block in front and the padded slots zero, with the (B, n) valid-slot
    mask; the mask is None when no slot is padded."""
    lengths = [len(r) for r in rows]
    width = max(lengths)
    if min(lengths) == width:
        return np.array(rows, dtype=np.float64), None
    out = np.zeros((len(rows), width, rows[0].shape[1]))
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out, np.arange(width) < np.array(lengths)[:, None]


def _batch_inputs(snapshots):
    """The network's inputs from a list of B snapshots: the (B, 1, 7)
    command rows, and (B, ...) agent and map feats padded to the batch's
    largest agent and map counts, each with its valid-slot mask."""
    cmd = np.array([s.cmd_onehot for s in snapshots], dtype=np.float64)
    agents, agent_mask = _pad([s.agent_feats for s in snapshots])
    maps, map_mask = _pad([s.map_feats for s in snapshots])
    return cmd[:, None], agents, agent_mask, maps, map_mask


class Policy:
    """Trajectory + control policy over a frozen vocabulary pair."""

    # Parameter groups, used for staged pre-training freezes.
    ENCODER_PREFIXES = ("agent_mlp", "map_mlp")
    TRAJ_PREFIXES = ("cmd_mlp", "pos_mlp", "traj_base", "traj_attn_agent",
                     "traj_attn_map", "traj_head")
    CTRL_PREFIXES = ("ctrl_base", "ctrl_attn_agent", "ctrl_attn_map", "ctrl_head")

    def __init__(self, cfg, traj_vocab, ctrl_vocab=None):
        if traj_vocab.k != cfg.k:
            raise ValueError(f"vocabulary size {traj_vocab.k} != config k {cfg.k}")
        self.cfg = cfg
        self.traj_vocab = traj_vocab
        self.ctrl_vocab = ctrl_vocab or ControlVocabulary()
        self._posenc = positional_encoding(traj_vocab.flat())
        self.params = ad.ParameterStore(self._init_params())

    def _init_params(self):
        """(name, initial value) pairs, in the store's order."""
        C = self.cfg.feature_dim
        rng = np.random.default_rng(self.cfg.init_seed)
        params = []

        def dense(name, fan_in, fan_out):
            params.append((f"{name}.w1", rng.normal(0, 1 / math.sqrt(fan_in), (fan_in, C))))
            params.append((f"{name}.b1", np.zeros(C)))
            params.append((f"{name}.w2", rng.normal(0, 1 / math.sqrt(C), (C, fan_out))))
            params.append((f"{name}.b2", np.zeros(fan_out)))

        def attn(name):
            for w in ("wq", "wk", "wv"):
                params.append((f"{name}.{w}", rng.normal(0, 1 / math.sqrt(C), (C, C))))

        dense("agent_mlp", AGENT_FEATURES, C)
        dense("map_mlp", MAP_FEATURES, C)
        dense("cmd_mlp", len(sim.COMMANDS), C)
        dense("pos_mlp", self._posenc.shape[1], C)
        params.append(("traj_base", rng.normal(0, 0.1, (self.cfg.k, C))))
        attn("traj_attn_agent")
        attn("traj_attn_map")
        dense("traj_head", 2 * C, 1)
        params.append(("ctrl_base", rng.normal(0, 0.1, (self.ctrl_vocab.total, C))))
        attn("ctrl_attn_agent")
        attn("ctrl_attn_map")
        dense("ctrl_head", 2 * C, 1)
        return params

    def param_names(self, prefixes):
        return [n for n in self.params.names()
                if any(n == p or n.startswith(p + ".") for p in prefixes)]

    # -- forward ----------------------------------------------------------

    @np.errstate(all="ignore")
    def _command_terms(self, params, cmd):
        """The part of the network that only the parameters and the (B, 1, 7)
        command rows decide: the trajectory queries (`traj_base` plus the
        embedded command and waypoint encodings) and the control queries,
        each with its projection through the first cross-attention's `wq`.
        Floating-point warnings are off, as in `_scene_terms`."""
        e = params["traj_base"] \
            + _mlp2(params, "cmd_mlp", cmd) \
            + _mlp2(params, "pos_mlp", self._posenc)
        queries = params["ctrl_base"] + np.zeros((len(cmd), 1, 1))
        return (e, e @ params["traj_attn_agent.wq"],
                queries, queries @ params["ctrl_attn_agent.wq"])

    @np.errstate(all="ignore")
    def _scene_terms(self, params, command_terms, agents, agent_mask, maps, map_mask):
        """The rest of the network: both branches attend from the command
        terms over the embedded agent and map tokens, padded and masked per
        sample, and score their candidates.

        Floating-point warnings are off while it runs: both paths raise
        NonFiniteError on the non-finite values that would warn (see
        `autodiff`), so neither warns first."""
        e, q_traj, queries, q_ctrl = command_terms
        B = len(agents)
        agents = _mlp2(params, "agent_mlp", agents) if agents.shape[1] else None
        maps = _mlp2(params, "map_mlp", maps) if maps.shape[1] else None

        # Trajectory branch: a sigmoid score per candidate, then normalized.
        e_agt = _cross_attention(params, "traj_attn_agent", e, q_traj, agents, agent_mask)
        e_map = _cross_attention(params, "traj_attn_map", e_agt,
                                 e_agt @ params["traj_attn_map.wq"], maps, map_mask)
        logits = _mlp2(params, "traj_head", ad.concat([e_agt, e_map]))
        scores = ad.sigmoid(logits.reshape(B, self.cfg.k))
        d_traj = ad.normalize(scores)

        # Control branch: a softmax per group (throttle, brake, steer), from
        # the learned queries, one copy per sample.
        e_agt = _cross_attention(params, "ctrl_attn_agent", queries, q_ctrl, agents, agent_mask)
        e_map = _cross_attention(params, "ctrl_attn_map", e_agt,
                                 e_agt @ params["ctrl_attn_map.wq"], maps, map_mask)
        logits = _mlp2(params, "ctrl_head", ad.concat([e_agt, e_map]))
        flat = logits.reshape(B, self.ctrl_vocab.total)
        d_ctrl = tuple(ad.softmax(ad.narrow(flat, start, length))
                       for start, length in self.ctrl_vocab.group_slices)
        return {"traj_scores": scores, "d_traj": d_traj, "d_ctrl": d_ctrl}

    def _network(self, params, snapshots):
        """The policy's wiring, written once: `_command_terms`, then
        `_scene_terms`. The inputs and the positional encoding are constants
        (plain arrays), so `params` alone picks the path: `forward` passes
        the ParameterStore and gets a graph over its Tensors, `predict`
        passes the store's name -> value view dict and gets float64 arrays
        with the same values bit for bit and no graph.

        `snapshots` is a list of B SceneSnapshots; every output has a
        leading batch axis of B, from one pass over token slots padded and
        masked per sample."""
        cmd, *scene = _batch_inputs(snapshots)
        return self._scene_terms(params, self._command_terms(params, cmd), *scene)

    def forward(self, snapshots):
        """Full differentiable forward pass over a list of snapshots (see
        `_network`); returns Tensors for training."""
        return self._network(self.params, snapshots)

    def predict(self, snapshots):
        """`forward`'s outputs as plain arrays, bit for bit, with no graph:
        for a pass that never calls `backward`."""
        return self._network(self.params.arrays, snapshots)

    def infer(self, snapshot, terms):
        """One closed-loop tick: the network on plain arrays over a batch of
        one, then the top-1 picks.

        `terms` maps a command row to its `_command_terms`, and a row not in
        it is computed and added: the caller keeps the dict only while the
        parameters keep their values (see `metrics.NeuralDriver`).
        `tau_plan` is a read-only view of the vocabulary entry."""
        cmd, *scene = _batch_inputs([snapshot])
        row = int(cmd.argmax())
        if row not in terms:
            terms[row] = self._command_terms(self.params.arrays, cmd)
        out = self._scene_terms(self.params.arrays, terms[row], *scene)
        d_traj, d_ctrl = out["d_traj"][0], tuple(d[0] for d in out["d_ctrl"])
        traj_idx, ctrl_idx = sample_top1(d_traj, d_ctrl)
        tau_plan = self.traj_vocab.centers[traj_idx]
        tau_plan.flags.writeable = False
        throttle, brake, steer = self.ctrl_vocab.values(*ctrl_idx)
        return PolicyOutput(
            d_traj=d_traj, d_ctrl=d_ctrl, tau_plan=tau_plan,
            c_ctrl=sim.ControlCommand(throttle=throttle, brake=brake, steer=steer))

    # -- persistence --------------------------------------------------------

    def save(self, path, extra_meta=None):
        meta = {"vocab_hash": self.traj_vocab.hash(),
                **{f: getattr(self.cfg, f) for f in SIZE_FIELDS}}
        meta.update(extra_meta or {})
        ad.save_checkpoint(path, self.params, meta=meta)

    def load(self, path):
        values, meta = ad.load_checkpoint(path)
        if meta.get("vocab_hash") != self.traj_vocab.hash():
            raise ValueError(
                f"{path}: checkpoint vocabulary hash {meta.get('vocab_hash')} does not "
                f"match the loaded vocabulary {self.traj_vocab.hash()}")
        for f in SIZE_FIELDS:
            if meta.get(f) != str(getattr(self.cfg, f)):
                raise ValueError(f"{path}: checkpoint {f} {meta.get(f)} does not match "
                                 f"the policy's {getattr(self.cfg, f)}")
        self.params.load_values(values)
        return meta


def sample_top1(d_traj, d_ctrl):
    """Argmax per distribution; exact ties resolve to the lowest index."""
    traj_idx = int(np.argmax(d_traj))
    ctrl_idx = tuple(int(np.argmax(d)) for d in d_ctrl)
    return traj_idx, ctrl_idx


class PidTracker:
    """Converts a planned trajectory into a control command.

    Pure-pursuit steering toward the waypoint nearest a 4 m lookahead arc;
    PI speed control against the trajectory-implied target speed. Only the
    integrator runs every tick: the steer and target speed of the last plan
    are kept, keyed on the plan's bits and the wheelbase, and a closed-loop
    plan (a vocabulary entry) rarely changes from one tick to the next.
    """

    KP = 0.5
    KI = 0.05
    LOOKAHEAD = 4.0
    INTEGRAL_CLAMP = 10.0

    def __init__(self):
        self.integral = 0.0
        self._plan_key = self._plan = None     # the last plan's key and geometry

    def _plan_geometry(self, wps, wheelbase):
        """(steer, target speed) of an (n, 2) plan, or None for a plan
        whose waypoints all sit on the ego."""
        steps = wps.copy()
        steps[1:] -= wps[:-1]     # the first step runs from the ego
        # One np.hypot for the waypoint distances and the step lengths
        # (math.hypot rounds differently); the rest runs on Python floats.
        norms = np.hypot(*np.concatenate((wps, steps)).T).tolist()
        dists, lengths = norms[:len(wps)], norms[len(wps):]
        if max(dists) < 1e-6:
            return None

        i = min(range(len(dists)), key=lambda j: abs(dists[j] - self.LOOKAHEAD))
        x, y = wps[i].tolist()
        steer = sim.steer_toward(x, y, max(dists[i], 1e-6), wheelbase)

        total = 0.0
        for length in lengths:    # left to right, as numpy sums six terms
            total += length
        return steer, total / len(lengths) / WAYPOINT_DT

    def track(self, tau_plan, ego):
        wps = np.asarray(tau_plan, dtype=np.float64)
        key = (wps.tobytes(), ego.wheelbase)
        if key != self._plan_key:
            self._plan_key, self._plan = key, self._plan_geometry(wps, ego.wheelbase)
        if self._plan is None:
            return sim.ControlCommand(throttle=0.0, brake=1.0, steer=0.0)
        steer, target_speed = self._plan
        err = target_speed - ego.speed
        self.integral = _clip(self.integral + err * sim.DT, self.INTEGRAL_CLAMP)
        u = self.KP * err + self.KI * self.integral
        if u >= 0.0:
            return sim.ControlCommand(throttle=min(u, 1.0), brake=0.0, steer=steer)
        return sim.ControlCommand(throttle=0.0, brake=min(-u, 1.0), steer=steer)


def _clip(x, bound):
    return min(max(x, -bound), bound)


def ensemble(c_ctrl, c_traj):
    """Combine branch commands: mean throttle, mean steer, max brake."""
    return sim.ControlCommand(
        throttle=(c_ctrl.throttle + c_traj.throttle) / 2.0,
        brake=max(c_ctrl.brake, c_traj.brake),
        steer=(c_ctrl.steer + c_traj.steer) / 2.0)


class SafetyCreep:
    """Fixed throttle pulse when the ego is stuck on a clear road.

    After 2.5 s continuously below `world.STILL_SPEED` with no leading actor
    within 20 m in the forward half-lane corridor, applies throttle 0.7
    (brake 0, steer from the policy) for exactly 1.0 s, then restarts the
    stillness timer.
    """

    STILL_SECONDS = 2.5
    PULSE_SECONDS = 1.0
    PULSE_THROTTLE = 0.7

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.still_ticks = 0
        self.pulse_ticks_left = 0

    def update(self, world, policy_steer):
        """Returns the override ControlCommand, or None."""
        if not self.enabled:
            return None
        if self.pulse_ticks_left > 0:
            self.pulse_ticks_left -= 1
            return sim.ControlCommand(throttle=self.PULSE_THROTTLE, brake=0.0,
                                      steer=policy_steer)
        if world.ego.speed < sim.STILL_SPEED:
            self.still_ticks += 1
        else:
            self.still_ticks = 0
        if self.still_ticks * sim.DT >= self.STILL_SECONDS:
            if world.leading_gap() is None:
                self.still_ticks = 0
                self.pulse_ticks_left = int(round(self.PULSE_SECONDS / sim.DT)) - 1
                return sim.ControlCommand(throttle=self.PULSE_THROTTLE, brake=0.0,
                                          steer=policy_steer)
        return None
