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
        # Stated as what must hold, so a nan or an infinity fails too.
        for f in ("desired_speed", "time_headway", "min_gap", "max_accel",
                  "comfort_decel", "lookahead", "forecast_horizon", "yield_horizon"):
            if not 0.0 < getattr(self, f) < math.inf:
                raise ValueError(f"ExpertConfig.{f} must be positive and finite")


@dataclass
class ExpertLabel:
    waypoints: np.ndarray          # (6, 2) ego-frame planned trajectory
    command: sim.ControlCommand


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
STEPS_PER_WAYPOINT = int(round(WAYPOINT_DT / ROLLOUT_DT))


@lru_cache(maxsize=4)
def _yield_times(horizon):
    """Forecast instants (s) of the corridor-entry check, one per sim tick."""
    times = np.arange(1, int(horizon / sim.DT) + 1) * sim.DT
    times.flags.writeable = False
    return times


class _Forecast:
    """The actors of one frame moved at constant velocity to each rollout
    step m (m * ROLLOUT_DT s ahead): where each lies on the route, and the
    route projections of its corridor-entry points, its position at step m
    plus its velocity times each yield-horizon instant.

    An actor whose velocity is exactly (+-0, +-0) stands: x + vx * t has the
    same bits for every t >= 0, so its place is computed once. A moving
    actor is projected at every step.

    An actor's corridor-entry projections are made the first time a step
    asks for them, for that step and every later one, as one
    `Route.project_many` pass over all their points.

    Every point of an actor's table lies on the segment from its first
    point to its last. An actor gets no table when `Route.clear_of` proves
    that segment out of the corridor by |lateral| >= cos(theta) * dist(p, P*)
    (see `Route`): it is farther than half / cos(theta) from the route.
    """

    def __init__(self, w, cfg, n_steps):
        self.route, self.n_steps = w.route, n_steps
        self.times = _yield_times(cfg.yield_horizon)
        # (x, y, vx, vy, heading, speed, length, corridor half-width) per actor
        self.actors = [(a.x, a.y, *sim.velocity(a.speed, a.heading),
                        a.heading, a.speed, a.length, sim.corridor_half_width(a.width))
                       for a in w.actors]
        # actor index -> place of a standing actor
        self.standing = {}
        # actor index -> (first step, s, lateral), or None
        self.tables = {}

    def place(self, a, step):
        """(s, lateral, route tangent heading) of actor a at `step`, or None
        if it has exited the route."""
        x, y, vx, vy = self.actors[a][:4]
        stands = vx == 0.0 and vy == 0.0
        if stands and a in self.standing:
            return self.standing[a]
        t = step * ROLLOUT_DT
        s, lateral = self.route.project(x + vx * t, y + vy * t)
        place = None if self.route.exited(s) else (s, lateral, self.route.point_at(s)[2])
        if stands:
            self.standing[a] = place
        return place

    def corridor_entry(self, a, step):
        """(s, lateral) arrays of actor a's corridor-entry points at `step`,
        or None if no point of its table can come within its corridor
        half-width of the route."""
        if a not in self.tables:
            self.tables[a] = self._table(a, step)
        if self.tables[a] is None:
            return None
        first, s, lateral = self.tables[a]
        return s[step - first], lateral[step - first]

    def _table(self, a, step):
        """Actor a's table from `step` on, or None if the route is clear of it."""
        x, y, vx, vy, _, _, _, half = self.actors[a]
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
        s, lateral = self.route.project_many(points.reshape(-1, 2))
        rows = (len(t), len(times))
        return step, s.reshape(rows), lateral.reshape(rows)


def pure_pursuit_steer(route, state, wheelbase, lookahead, ego_s):
    """Normalized steering command that bends an ego at `state` (x, y,
    heading, speed) toward the route point `lookahead` m ahead of its arc
    length `ego_s`."""
    x, y, heading, _ = state
    tx, ty, _ = route.point_at(ego_s + lookahead)
    local_x, local_y = sim.to_ego(tx, ty, x, y, heading)
    return sim.steer_toward(local_x, local_y, max(math.hypot(tx - x, ty - y), 1e-6), wheelbase)


def accel_to_command(accel, speed, steer):
    """Map a desired acceleration to (throttle, brake, steer) with drag
    feedforward; the three pass ControlCommand's range rule."""
    if accel >= 0.0:
        control = min(1.0, (accel + sim.C_DRAG * speed * speed) / sim.A_MAX), 0.0, steer
    else:
        control = 0.0, min(1.0, -accel / sim.B_MAX), steer
    sim.check_control(*control)
    return control


def _rollout(w, cfg, n_steps):
    """(ControlCommand, waypoints) of the expert over `n_steps` rollout
    steps. Each step is IDM against the nearest obstacle ahead in the lane
    corridor (an occupant, a forecast entrant or an unserved stop line) and
    pure pursuit, then a kinematic step of the virtual ego, whose position
    every STEPS_PER_WAYPOINT steps is a waypoint in the current ego frame.
    The virtual ego and its controls are tuples of floats; only step 0's
    control becomes a ControlCommand, and with n_steps = 1 the rollout
    returns there, before any kinematic step."""
    route, served, ego = w.route, w.stop_line_served, w.ego
    forecast = _Forecast(w, cfg, n_steps)
    actors, place, corridor_entry = forecast.actors, forecast.place, forecast.corridor_entry
    project, step_kinematics = route.project, sim.step_kinematics
    v0 = min(cfg.desired_speed, route.speed_limit)
    ego_length, wheelbase, lookahead = ego.length, ego.wheelbase, cfg.lookahead
    stop_line_s = route.stop_line_s
    waypoints = np.zeros((n_steps // STEPS_PER_WAYPOINT, 2))
    state, ego_s = ego.state, w.ego_projection()[0]
    origin = state[:3]
    for step in range(n_steps):
        # (gap from the ego's front along the route, speed along the route)
        # of each obstacle: current occupants, then predicted entrants.
        candidates = []
        for a, (_, _, _, _, heading, speed, length, half) in enumerate(actors):
            where = place(a, step)
            if where is None:
                continue
            s_a, lat_a, tangent_heading = where
            if abs(lat_a) <= half and s_a > ego_s:
                gap = sim.bumper_gap(s_a, ego_s, ego_length, length)
            else:
                # Not in the corridor yet: will its straight-line motion enter it ahead?
                if speed < 1e-3 or s_a - ego_s > 80.0 or s_a - ego_s < -10.0:
                    continue
                entry = corridor_entry(a, step)
                if entry is None:
                    continue
                s_f, lat_f = entry
                hits = np.flatnonzero((np.abs(lat_f) <= half) & (s_f > ego_s))
                if not len(hits):
                    continue
                gap = sim.bumper_gap(float(s_f[hits[0]]), ego_s, ego_length, length)
            candidates.append((gap, max(0.0, speed * math.cos(heading - tangent_heading))))
        if stop_line_s is not None and not served and stop_line_s > ego_s - sim.STOP_LATCH_RANGE:
            # +1 m bias makes the IDM standstill settle ~1 m before the line,
            # inside the 2 m latch window.
            candidates.append((stop_line_s - ego_s + 1.0, 0.0))
        # The nearest: a candidate must beat the best gap so far, floored at
        # 0.05 m, strictly. Slightly negative gaps (already overlapping along
        # the arc) still demand a hard stop, as the IDM gap floor brakes fully.
        lead = None
        for gap, v_lead in candidates:
            if gap > -3.0 and (lead is None or gap < lead[0]):
                lead = max(gap, 0.05), v_lead

        v = state[3]
        if lead is None:
            accel = idm_free_accel(v, v0, cfg)
        else:
            accel = idm_accel(v, v0, lead[0], lead[1], cfg)
        steer = pure_pursuit_steer(route, state, wheelbase, lookahead, ego_s)
        control = accel_to_command(accel, v, steer)
        if step == 0:
            cmd = sim.ControlCommand(*control)
            if n_steps == 1:
                return cmd, waypoints
        state = step_kinematics(state, control, wheelbase, dt=ROLLOUT_DT)
        if step + 1 < n_steps:      # the next step's projection, shared by the served check
            ego_s = project(state[0], state[1])[0]
            if stop_line_s is not None and not served:
                served = route.serves_stop_line(ego_s, state[3])
        if (step + 1) % STEPS_PER_WAYPOINT == 0:
            waypoints[step // STEPS_PER_WAYPOINT] = sim.to_ego(state[0], state[1], *origin)
    return cmd, waypoints


def expert_command(w, cfg):
    """The expert's control for the current frame (no trajectory rollout):
    step 0 of expert_act's rollout, through the same function."""
    return _rollout(w, cfg, 1)[0]


def expert_act(w, cfg):
    """Compute the expert's command and its 3 s planned trajectory.

    The planned trajectory rolls the expert controller forward kinematically
    with actors propagated at constant velocity, sampled every 0.5 s in the
    current ego frame. The command is the rollout's first step.
    """
    cmd, waypoints = _rollout(w, cfg, WAYPOINTS_PER_TRAJ * STEPS_PER_WAYPOINT)
    return ExpertLabel(waypoints=waypoints, command=cmd)


def forecast_collision(w, horizon):
    """Earliest time within `horizon` at which the ego (constant speed and
    heading) overlaps an actor (constant velocity), or None."""
    e = w.ego
    evx, evy = sim.velocity(e.speed, e.heading)
    actors = [(a, *sim.velocity(a.speed, a.heading)) for a in w.actors]
    n = int(round(horizon / sim.DT))
    for step in range(1, n + 1):
        t = step * sim.DT
        ex, ey = e.x + evx * t, e.y + evy * t
        for a, vx, vy in actors:
            if sim.rects_collide(ex, ey, e.heading, e.length, e.width,
                                 a.x + vx * t, a.y + vy * t, a.heading, a.length, a.width):
                return t
    return None
