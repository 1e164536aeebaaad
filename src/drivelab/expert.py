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


@lru_cache(maxsize=4)
def _yield_times(horizon):
    """Forecast instants (s) of the corridor-entry check, one per sim tick."""
    times = np.arange(1, int(horizon / sim.DT) + 1) * sim.DT
    times.flags.writeable = False
    return times


def leading_obstacle(route, ego, ego_s, actor_snaps, stop_line_s, stop_served, cfg):
    """Nearest obstacle ahead in the lane corridor: a current occupant, a
    predicted entrant (constant-velocity forecast), or an unserved stop line.

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

    for (x, y, heading, speed, length, width, _kind) in actor_snaps:
        half = sim.LANE_HALF_WIDTH + width / 2.0
        s_a, lat_a = route.project(x, y)
        if s_a >= route.length - 0.1:
            continue    # at or past the route end: treat as exited
        tangent_heading = route.point_at(s_a)[2]
        v_along = max(0.0, speed * math.cos(heading - tangent_heading))
        if abs(lat_a) <= half and s_a > ego_s:
            consider(s_a - ego_s - (ego.length + length) / 2.0, v_along)
            continue
        # Not in the corridor yet: will its straight-line motion enter it ahead?
        if speed < 1e-3 or s_a - ego_s > 80.0 or s_a - ego_s < -10.0:
            continue
        times = _yield_times(cfg.yield_horizon)
        fut = np.stack([x + speed * math.cos(heading) * times,
                        y + speed * math.sin(heading) * times], axis=1)
        s_f, lat_f = route.project_many(fut)
        hits = np.flatnonzero((np.abs(lat_f) <= half) & (s_f > ego_s))
        if len(hits):
            consider(s_f[hits[0]] - ego_s - (ego.length + length) / 2.0, v_along)

    if stop_line_s is not None and not stop_served and stop_line_s > ego_s - 2.0:
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
    alpha = math.atan2(local_y, local_x)
    ld = max(math.hypot(dx, dy), 1e-6)
    curvature = 2.0 * math.sin(alpha) / ld
    delta = math.atan(ego.wheelbase * curvature)
    return min(max(delta / sim.DELTA_MAX, -1.0), 1.0)


def accel_to_command(accel, speed, steer):
    """Map a desired acceleration to throttle/brake (drag feedforward)."""
    if accel >= 0.0:
        throttle = min(1.0, (accel + sim.C_DRAG * speed * speed) / sim.A_MAX)
        return sim.ControlCommand(throttle=throttle, brake=0.0, steer=steer)
    brake = min(1.0, -accel / sim.B_MAX)
    return sim.ControlCommand(throttle=0.0, brake=brake, steer=steer)


def _control_for(route, ego, actor_snaps, stop_line_s, stop_served, cfg):
    ego_s, _ = route.project(ego.x, ego.y)
    v0 = min(cfg.desired_speed, route.speed_limit)
    lead = leading_obstacle(route, ego, ego_s, actor_snaps, stop_line_s, stop_served, cfg)
    if lead is None:
        accel = idm_free_accel(ego.speed, v0, cfg)
    else:
        accel = idm_accel(ego.speed, v0, lead[0], lead[1], cfg)
    steer = pure_pursuit_steer(route, ego, cfg.lookahead, ego_s)
    return accel_to_command(accel, ego.speed, steer)


def _actor_snapshots(w):
    return [(a.x, a.y, a.heading, a.speed, a.length, a.width, a.kind) for a in w.actors]


def expert_command(w, cfg):
    """The expert's control for the current frame (no trajectory rollout)."""
    return _control_for(w.route, w.ego, _actor_snapshots(w), w.route.stop_line_s,
                        w.stop_line_served, cfg)


ROLLOUT_DT = 0.1    # planner rollout resolution; coarser than the sim tick


def expert_act(w, cfg, control_vocab=None):
    """Compute the expert's command and its 3 s planned trajectory.

    The planned trajectory rolls the expert controller forward kinematically
    with actors propagated at constant velocity, sampled every 0.5 s in the
    current ego frame.
    """
    snaps = _actor_snapshots(w)
    cmd = _control_for(w.route, w.ego, snaps, w.route.stop_line_s,
                       w.stop_line_served, cfg)

    virt = sim.EgoState(**vars(w.ego))
    cos_h, sin_h = math.cos(w.ego.heading), math.sin(w.ego.heading)
    ox, oy = w.ego.x, w.ego.y
    waypoints = np.zeros((WAYPOINTS_PER_TRAJ, 2))
    steps_per_wp = int(round(WAYPOINT_DT / ROLLOUT_DT))
    served = w.stop_line_served
    velocities = [(v * math.cos(h), v * math.sin(h)) for (_, _, h, v, _, _, _) in snaps]
    for i in range(WAYPOINTS_PER_TRAJ):
        for j in range(steps_per_wp):
            t = (i * steps_per_wp + j) * ROLLOUT_DT
            moved = [(x + vx * t, y + vy * t, h, v, ln, wd, kd)
                     for (x, y, h, v, ln, wd, kd), (vx, vy) in zip(snaps, velocities)]
            vcmd = _control_for(w.route, virt, moved, w.route.stop_line_s, served, cfg)
            virt = sim.step_kinematics(virt, vcmd, dt=ROLLOUT_DT)
            if (w.route.stop_line_s is not None and not served and virt.speed < 0.1
                    and abs(w.route.project(virt.x, virt.y)[0] - w.route.stop_line_s) < 2.0):
                served = True
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
    n = int(round(horizon / sim.DT))
    for step in range(1, n + 1):
        t = step * sim.DT
        ex = e.x + e.speed * math.cos(e.heading) * t
        ey = e.y + e.speed * math.sin(e.heading) * t
        for a in w.actors:
            ax = a.x + a.speed * math.cos(a.heading) * t
            ay = a.y + a.speed * math.sin(a.heading) * t
            if sim.rects_collide(ex, ey, e.heading, e.length, e.width,
                                 ax, ay, a.heading, a.length, a.width):
                return t
    return None
