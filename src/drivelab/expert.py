"""Privileged rule-based expert: IDM longitudinal control against the nearest
leading obstacle, pure-pursuit lateral tracking, and constant-velocity
collision forecasting. Stateless per call except the stop-line latch, which
lives in the world record."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import world as sim
from .vocab import WAYPOINTS_PER_TRAJ, WAYPOINT_DT


@dataclass
class ExpertConfig:
    desired_speed: float = 8.0      # overridden by the route speed limit
    time_headway: float = 1.5
    min_gap: float = 2.0
    max_accel: float = 2.0
    comfort_decel: float = 3.0
    lookahead: float = 6.0
    forecast_horizon: float = 2.0   # takeover-trigger collision forecast (T_fc)
    yield_horizon: float = 4.0      # corridor-entry prediction for IDM yielding

    def __post_init__(self):
        for f in ("desired_speed", "time_headway", "min_gap", "max_accel",
                  "comfort_decel", "lookahead", "forecast_horizon", "yield_horizon"):
            if getattr(self, f) <= 0:
                raise ValueError(f"ExpertConfig.{f} must be positive")


@dataclass
class ExpertLabel:
    waypoints: np.ndarray          # (6, 2) ego-frame planned trajectory
    command: sim.ControlCommand
    throttle_idx: int = 0
    brake_idx: int = 0
    steer_idx: int = 0


def idm_accel(v, v0, gap, v_lead, cfg):
    """Closed-form IDM acceleration against a leader at `gap` meters."""
    s_star = cfg.min_gap + v * cfg.time_headway + \
        v * (v - v_lead) / (2.0 * math.sqrt(cfg.max_accel * cfg.comfort_decel))
    s_star = max(s_star, cfg.min_gap)
    gap = max(gap, 0.1)
    return cfg.max_accel * (1.0 - (v / v0) ** 4 - (s_star / gap) ** 2)


def idm_free_accel(v, v0, cfg):
    return cfg.max_accel * (1.0 - (v / v0) ** 4)


ROLLOUT_DT = 0.1    # planner rollout resolution; coarser than the sim tick


@lru_cache(maxsize=4)
def _yield_times(horizon):
    """Forecast instants (s) of the corridor-entry check, one per sim tick."""
    times = np.arange(1, int(horizon / sim.DT) + 1) * sim.DT
    times.flags.writeable = False
    return times


class _Forecast:
    """The actors of one frame moved at constant velocity to each rollout
    step m (m * ROLLOUT_DT s ahead), and the route projections of their
    corridor-entry points: an actor's position at step m plus its velocity
    times each yield-horizon instant.

    An actor's projections are made the first time a step asks for them,
    for that step and every later one, as one windowed pass over all their
    points (`Route.project_window`). A step with a point the window does not
    cover projects its points with `project_many`, as a lone step would.

    Every point of an actor's table lies on the segment from its first
    point to its last. An actor gets no table when `Route.clear_of` proves
    that segment out of the corridor by |lateral| >= cos(theta) * dist(p, P*)
    (see `Route`): it is farther than half / cos(theta) from the route.
    """

    def __init__(self, w, cfg, n_steps):
        self.route, self.n_steps = w.route, n_steps
        self.times = _yield_times(cfg.yield_horizon)
        self.snaps = [(a.x, a.y, a.heading, a.speed, a.length, a.width) for a in w.actors]
        self.velocities = [(v * math.cos(h), v * math.sin(h))
                           for (_, _, h, v, _, _) in self.snaps]
        # actor index -> (first step, points, s, lateral, covered), or None
        self.tables = {}

    def actors(self, step):
        """(x, y, heading, speed, length, width) of each actor at `step`."""
        t = step * ROLLOUT_DT
        return [(x + vx * t, y + vy * t, h, v, ln, wd)
                for (x, y, h, v, ln, wd), (vx, vy) in zip(self.snaps, self.velocities)]

    def corridor_entry(self, a, step, half):
        """(s, lateral) arrays of actor a's corridor-entry points at `step`,
        or None if no point of its table can come within `half` of the
        route."""
        if a not in self.tables:
            self.tables[a] = self._table(a, step, half)
        if self.tables[a] is None:
            return None
        first, points, s, lateral, covered = self.tables[a]
        row = step - first
        if covered[row]:
            return s[row], lateral[row]
        return self.route.project_many(points[row])

    def _table(self, a, step, half):
        """Actor a's table from `step` on, or None if the route is clear of it."""
        x, y = self.snaps[a][:2]
        vx, vy = self.velocities[a]
        times = self.times
        # The table's first and last points, as the table computes them.
        t0, t1 = step * ROLLOUT_DT, (self.n_steps - 1) * ROLLOUT_DT
        p0 = (x + vx * t0 + vx * times[0], y + vy * t0 + vy * times[0])
        p1 = (x + vx * t1 + vx * times[-1], y + vy * t1 + vy * times[-1])
        if self.route.clear_of(p0, p1, half):
            return None
        t = np.arange(step, self.n_steps) * ROLLOUT_DT
        points = np.stack([(x + vx * t)[:, None] + vx * times,
                           (y + vy * t)[:, None] + vy * times], axis=2)
        s, lateral, covered = self.route.project_window(points.reshape(-1, 2))
        rows = (len(t), len(times))
        return (step, points, s.reshape(rows), lateral.reshape(rows),
                covered.reshape(rows).all(axis=1))


def leading_obstacle(route, ego, ego_s, forecast, step, stop_served):
    """Nearest obstacle ahead in the lane corridor at rollout step `step` of
    `forecast`: a current occupant, a predicted entrant (constant-velocity
    forecast), or an unserved stop line.

    Returns (gap from ego center along the route, leader speed along route)
    or None.
    """
    best = None

    def consider(gap, v_lead):
        nonlocal best
        # Slightly negative gaps (already overlapping along the arc) still
        # demand a hard stop; the IDM gap floor turns them into a full brake.
        if gap > -3.0 and (best is None or gap < best[0]):
            best = (max(gap, 0.05), v_lead)

    for a, (x, y, heading, speed, length, width) in enumerate(forecast.actors(step)):
        half = sim.LANE_HALF_WIDTH + width / 2.0
        s_a, lat_a = route.project(x, y)
        if route.exited(s_a):
            continue
        tangent_heading = route.point_at(s_a)[2]
        v_along = max(0.0, speed * math.cos(heading - tangent_heading))
        if abs(lat_a) <= half and s_a > ego_s:
            consider(s_a - ego_s - (ego.length + length) / 2.0, v_along)
            continue
        # Not in the corridor yet: will its straight-line motion enter it ahead?
        if speed < 1e-3 or s_a - ego_s > 80.0 or s_a - ego_s < -10.0:
            continue
        entry = forecast.corridor_entry(a, step, half)
        if entry is None:
            continue
        s_f, lat_f = entry
        hits = np.flatnonzero((np.abs(lat_f) <= half) & (s_f > ego_s))
        if len(hits):
            consider(s_f[hits[0]] - ego_s - (ego.length + length) / 2.0, v_along)

    stop_line_s = route.stop_line_s
    if stop_line_s is not None and not stop_served and stop_line_s > ego_s - sim.STOP_LATCH_RANGE:
        # +1 m bias makes the IDM standstill settle ~1 m before the line,
        # inside the 2 m latch window.
        consider(stop_line_s - ego_s + 1.0, 0.0)
    return best


def pure_pursuit_steer(route, ego, lookahead, ego_s):
    """Normalized steering command toward the route point `lookahead` m ahead
    of the ego's arc length `ego_s`."""
    tx, ty, _ = route.point_at(ego_s + lookahead)
    dx, dy = tx - ego.x, ty - ego.y
    cos_h, sin_h = math.cos(ego.heading), math.sin(ego.heading)
    local_x = cos_h * dx + sin_h * dy
    local_y = -sin_h * dx + cos_h * dy
    return sim.steer_toward(local_x, local_y, max(math.hypot(dx, dy), 1e-6), ego.wheelbase)


def accel_to_command(accel, speed, steer):
    """Map a desired acceleration to throttle/brake (drag feedforward)."""
    if accel >= 0.0:
        throttle = min(1.0, (accel + sim.C_DRAG * speed * speed) / sim.A_MAX)
        return sim.ControlCommand(throttle=throttle, brake=0.0, steer=steer)
    brake = min(1.0, -accel / sim.B_MAX)
    return sim.ControlCommand(throttle=0.0, brake=brake, steer=steer)


def _control_for(route, ego, ego_s, forecast, step, stop_served, cfg):
    v0 = min(cfg.desired_speed, route.speed_limit)
    lead = leading_obstacle(route, ego, ego_s, forecast, step, stop_served)
    if lead is None:
        accel = idm_free_accel(ego.speed, v0, cfg)
    else:
        accel = idm_accel(ego.speed, v0, lead[0], lead[1], cfg)
    steer = pure_pursuit_steer(route, ego, cfg.lookahead, ego_s)
    return accel_to_command(accel, ego.speed, steer)


def expert_command(w, cfg):
    """The expert's control for the current frame (no trajectory rollout):
    the command of expert_act's first rollout step."""
    return _control_for(w.route, w.ego, w.ego_projection()[0], _Forecast(w, cfg, 1), 0,
                        w.stop_line_served, cfg)


def expert_act(w, cfg, control_vocab=None):
    """Compute the expert's command and its 3 s planned trajectory.

    The planned trajectory rolls the expert controller forward kinematically
    with actors propagated at constant velocity, sampled every 0.5 s in the
    current ego frame. The command is the rollout's first step.
    """
    route, stop_line_s, served = w.route, w.route.stop_line_s, w.stop_line_served
    steps_per_wp = int(round(WAYPOINT_DT / ROLLOUT_DT))
    n_steps = WAYPOINTS_PER_TRAJ * steps_per_wp
    forecast = _Forecast(w, cfg, n_steps)
    cos_h, sin_h = math.cos(w.ego.heading), math.sin(w.ego.heading)
    ox, oy = w.ego.x, w.ego.y
    waypoints = np.zeros((WAYPOINTS_PER_TRAJ, 2))
    virt, ego_s = w.ego, w.ego_projection()[0]
    for i in range(WAYPOINTS_PER_TRAJ):
        for j in range(steps_per_wp):
            step = i * steps_per_wp + j
            if ego_s is None:
                ego_s = route.project(virt.x, virt.y)[0]
            vcmd = _control_for(route, virt, ego_s, forecast, step, served, cfg)
            if step == 0:
                cmd = vcmd
            virt = sim.step_kinematics(virt, vcmd, dt=ROLLOUT_DT)
            ego_s = None
            if stop_line_s is not None and not served and step + 1 < n_steps:
                # The served check's projection is also the next step's; after
                # the last step nothing reads either.
                ego_s = route.project(virt.x, virt.y)[0]
                served = route.serves_stop_line(ego_s, virt.speed)
        dx, dy = virt.x - ox, virt.y - oy
        waypoints[i] = (cos_h * dx + sin_h * dy, -sin_h * dx + cos_h * dy)

    label = ExpertLabel(waypoints=waypoints, command=cmd)
    if control_vocab is not None:
        label.throttle_idx, label.brake_idx, label.steer_idx = \
            control_vocab.discretize(cmd)
    return label


def forecast_collision(w, horizon):
    """Earliest time within `horizon` at which the ego (constant speed and
    heading) overlaps an actor (constant velocity), or None."""
    e = w.ego
    evx, evy = e.speed * math.cos(e.heading), e.speed * math.sin(e.heading)
    actors = [(a, a.speed * math.cos(a.heading), a.speed * math.sin(a.heading))
              for a in w.actors]
    n = int(round(horizon / sim.DT))
    for step in range(1, n + 1):
        t = step * sim.DT
        ex = e.x + evx * t
        ey = e.y + evy * t
        for a, vx, vy in actors:
            if sim.rects_collide(ex, ey, e.heading, e.length, e.width,
                                 a.x + vx * t, a.y + vy * t, a.heading, a.length, a.width):
                return t
    return None
