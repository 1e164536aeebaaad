"""Deterministic 2D closed-loop driving world.

Kinematic bicycle ego, scripted actors, polyline routes with per-segment
navigation commands, separating-axis collision detection, and infraction
logging. One World per episode; a (scenario kind, seed) pair fully
determines the episode given a policy.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

DT = 0.05                 # fixed simulation tick (20 Hz)
DELTA_MAX = 0.5236        # max front wheel angle, rad
A_MAX = 3.0               # max engine acceleration, m/s^2
B_MAX = 8.0               # max brake deceleration, m/s^2
C_DRAG = 0.002            # quadratic drag coefficient
BLOCKED_SECONDS = 90.0
LEADING_GAP_RANGE = 20.0  # m; a leading actor farther ahead leaves the road clear
LANE_HALF_WIDTH = 2.0     # m
ROUTE_LENGTH = 120.0      # m, the default scenario route
SPEED_LIMIT = 8.0         # m/s, the default route speed limit
# Route.project_many evaluates a window of this many segments around each
# point's start segment before it checks that the rest are farther away; on
# a shorter route it scans every segment.
_WINDOW = 9
_WINDOW_OFFSETS = np.arange(_WINDOW)

COMMANDS = ("Straight", "Left", "Right", "LaneFollow",
            "ChangeLaneLeft", "ChangeLaneRight", "Void")

SCENARIO_KINDS = ("EmergencyBrake", "Overtaking", "GiveWay", "Merging", "StopSign")

PENALTY = {
    "collision_vehicle": 0.60,
    "collision_pedestrian": 0.50,
    "collision_static": 0.65,
    "stop_sign_violation": 0.80,
    "off_road": 0.85,
}
TERMINAL_INFRACTIONS = ("route_deviation", "timeout", "blocked")


def wrap_angle(a):
    """Normalize an angle to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


@dataclass
class EgoState:
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    speed: float = 0.0
    wheelbase: float = 2.8
    length: float = 4.5
    width: float = 1.9


@dataclass
class ControlCommand:
    throttle: float = 0.0
    brake: float = 0.0
    steer: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.throttle <= 1.0):
            raise ValueError(f"throttle {self.throttle} outside [0, 1]")
        if not (0.0 <= self.brake <= 1.0):
            raise ValueError(f"brake {self.brake} outside [0, 1]")
        if not (-1.0 <= self.steer <= 1.0):
            raise ValueError(f"steer {self.steer} outside [-1, 1]")


@dataclass
class ActorState:
    x: float
    y: float
    heading: float
    speed: float
    length: float
    width: float
    kind: str = "vehicle"          # vehicle | pedestrian | static
    script: object = None
    actor_id: int = 0


@dataclass
class InfractionEvent:
    kind: str
    time: float
    penalty: float = 1.0


@dataclass
class ScenarioSpec:
    kind: str
    seed: int
    route_length: float = ROUTE_LENGTH
    speed_limit: float = SPEED_LIMIT

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"scenario kind {self.kind!r} not one of {SCENARIO_KINDS}")
        if self.route_length <= 20.0:
            raise ValueError(f"route_length {self.route_length} too short (> 20 m required)")
        if self.speed_limit <= 0.0:
            raise ValueError(f"speed_limit {self.speed_limit} must be positive")


def step_kinematics(ego, cmd, dt=DT, c_drag=C_DRAG):
    """Advance the bicycle model one tick with RK4 (control held over the tick).

    Brake dominates: any brake input forces the executed throttle to zero.
    Speed never goes negative.
    """
    throttle = 0.0 if cmd.brake > 0.0 else cmd.throttle
    tan_delta = math.tan(DELTA_MAX * cmd.steer)
    L = ego.wheelbase
    accel = A_MAX * throttle - B_MAX * cmd.brake

    # The rates depend on heading and speed only; each stage is
    # (x', y', heading', speed') in the order of the state.
    def deriv(psi, v):
        v = max(v, 0.0)
        return v * math.cos(psi), v * math.sin(psi), v / L * tan_delta, accel - c_drag * v * v

    half = 0.5 * dt
    k1 = deriv(ego.heading, ego.speed)
    k2 = deriv(ego.heading + half * k1[2], ego.speed + half * k1[3])
    k3 = deriv(ego.heading + half * k2[2], ego.speed + half * k2[3])
    k4 = deriv(ego.heading + dt * k3[2], ego.speed + dt * k3[3])
    w = dt / 6.0
    x = ego.x + w * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    y = ego.y + w * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    psi = ego.heading + w * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    v = ego.speed + w * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
    return EgoState(x=x, y=y, heading=wrap_angle(psi), speed=max(v, 0.0),
                    wheelbase=ego.wheelbase, length=ego.length, width=ego.width)


# -- oriented-rectangle collision (separating axis) -------------------------

def obb_corners(x, y, heading, length, width):
    hl, hw = length / 2.0, width / 2.0
    c, s = math.cos(heading), math.sin(heading)
    return [(x + dx * c - dy * s, y + dx * s + dy * c)
            for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))]


def _project(corners, ax):
    dots = [cx * ax[0] + cy * ax[1] for cx, cy in corners]
    return min(dots), max(dots)


def obb_overlap(c1, c2):
    """Separating-axis test for two convex quads given as corner lists."""
    for corners in (c1, c2):
        for i in range(4):
            x1, y1 = corners[i]
            x2, y2 = corners[(i + 1) % 4]
            ax = (y1 - y2, x2 - x1)
            n = math.hypot(*ax)
            if n == 0.0:
                continue
            ax = (ax[0] / n, ax[1] / n)
            lo1, hi1 = _project(c1, ax)
            lo2, hi2 = _project(c2, ax)
            if hi1 < lo2 or hi2 < lo1:
                return False
    return True


def rects_collide(x1, y1, h1, l1, w1, x2, y2, h2, l2, w2):
    # Cheap circle prefilter before the SAT test.
    r = 0.5 * (math.hypot(l1, w1) + math.hypot(l2, w2))
    if math.hypot(x2 - x1, y2 - y1) > r:
        return False
    return obb_overlap(obb_corners(x1, y1, h1, l1, w1),
                       obb_corners(x2, y2, h2, l2, w2))


# -- routes ------------------------------------------------------------------

def _reach(d2):
    """The distance whose square is d2, raised by a margin for rounding: a
    segment whose chord gap exceeds it is farther than d2 allows."""
    return d2 ** 0.5 * (1.0 + 1e-9) + 1e-9


class Route:
    """A polyline route with arc-length lookup and per-segment commands.

    `project` and `project_many` return exactly what `_full_scan`, the scan
    over every segment, returns (the lowest segment index wins a tie), but
    evaluate only the segments near the point. Take the unit chord `u` from
    the first to the last waypoint and the breakpoints `q_k = u.w_k`. A point
    `p` lies at least `q_k - u.p` from every point of segment k, and at least
    `u.p - q_(k+1)`, because projecting onto a unit vector never lengthens a
    distance. Where the breakpoints rise strictly, the search starts at the
    segment whose breakpoints bracket `u.p` and stops on each side at the
    first segment whose gap exceeds the best distance so far, with a margin
    for rounding. A route whose breakpoints do not rise, and a point whose
    best distance is not finite, take the full scan.
    """

    def __init__(self, waypoints, commands, speed_limit=SPEED_LIMIT, stop_line_s=None):
        self.waypoints = np.asarray(waypoints, dtype=np.float64)
        if self.waypoints.ndim != 2 or self.waypoints.shape[1] != 2:
            raise ValueError("waypoints must be an (n, 2) array")
        seg = np.diff(self.waypoints, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(seg_len < 1e-9):
            raise ValueError("consecutive waypoints must be distinct")
        if len(commands) != len(seg_len):
            raise ValueError(
                f"command list length {len(commands)} != segment count {len(seg_len)}")
        for c in commands:
            if c not in COMMANDS:
                raise ValueError(f"unknown navigation command {c!r}")
        self.commands = list(commands)
        self.speed_limit = speed_limit
        self.stop_line_s = stop_line_s
        self._seg_len = seg_len
        self._cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        self.length = float(self._cum[-1])
        self.time_budget = self.length / 2.0 + 30.0
        # Start x and y, direction x and y, and squared length: one row per
        # quantity for project_many, one list per segment for project.
        self._geometry = np.concatenate([self.waypoints[:-1].T, seg.T, [seg_len ** 2]])
        self._segs = self._geometry.T.tolist()
        self._tangent = seg / seg_len[:, None]
        self._tangents = self._tangent.tolist()
        self._lens = seg_len.tolist()
        self._cums = self._cum.tolist()
        # Waypoints and segment headings as Python floats.
        self.points = self.waypoints.tolist()
        self.headings = [math.atan2(dy, dx) for dx, dy in seg.tolist()]
        self._u = None
        chord = self.waypoints[-1] - self.waypoints[0]
        norm = math.hypot(chord[0], chord[1])
        if norm > 0.0:
            q = self.waypoints @ (chord / norm)
            if (q[1:] > q[:-1]).all():
                self._u = chord / norm
                self._ux, self._uy = self._u.tolist()
                self._qs = q.tolist()
                # The breakpoints with the route's ends pushed to infinity,
                # since no segment lies beyond them.
                self._q_bounds = np.concatenate([[-np.inf], q[1:-1], [np.inf]])
                # searchsorted on these gives the first segment of a point's
                # window: centred on its start segment, shifted to stay inside.
                half = _WINDOW // 2
                self._q_window = q[half + 1:len(q) - _WINDOW + half]

    def project(self, x, y):
        """Arc-length of the closest polyline point and signed lateral offset."""
        if self._u is not None:
            up = self._ux * x + self._uy * y
            qs, segs = self._qs, self._segs
            n = len(segs)
            k = min(max(bisect.bisect_right(qs, up) - 1, 0), n - 1)
            best = bound = math.inf
            i, step = k, 1      # k, then rightwards, then leftwards from k - 1
            while True:
                wx, wy, sx, sy, len2 = segs[i]
                r = ((x - wx) * sx + (y - wy) * sy) / len2
                t = 0.0 if r <= 0.0 else (r if r < 1.0 else 1.0)
                ex = x - (wx + t * sx)
                ey = y - (wy + t * sy)
                d2 = ex * ex + ey * ey
                if d2 < best or (d2 == best and step < 0):
                    best, bi, bt, bex, bey = d2, i, t, ex, ey
                    bound = _reach(best)
                i += step
                if step > 0 and not (i < n and qs[i] - up <= bound):
                    i, step = k - 1, -1
                if step < 0 and not (i >= 0 and up - qs[i + 1] <= bound):
                    break
            if best < math.inf:
                tx, ty = self._tangents[bi]
                return self._cums[bi] + bt * self._lens[bi], tx * bey - ty * bex
        s, lateral = self._full_scan(np.array([[x, y]], dtype=np.float64))
        return float(s[0]), float(lateral[0])

    def project_many(self, points):
        """Vectorized project() over an (m, 2) array of points.

        Returns (s, lateral) arrays of length m.
        """
        p = np.asarray(points, dtype=np.float64)
        n = len(self._seg_len)
        if self._u is None or n < _WINDOW:
            return self._full_scan(p)
        up = p @ self._u
        lo = np.searchsorted(self._q_window, up, side="right")
        s, lateral, best = self._nearest(p, lo[:, None] + _WINDOW_OFFSETS)
        gap = np.minimum(up - self._q_bounds[lo], self._q_bounds[lo + _WINDOW] - up)
        covered = gap > _reach(best)
        if not covered.all():
            rest = ~covered
            s[rest], lateral[rest] = self._full_scan(p[rest])
        return s, lateral

    def _full_scan(self, p):
        """(s, lateral) for (m, 2) points over every segment."""
        n = len(self._seg_len)
        return self._nearest(p, np.broadcast_to(np.arange(n), (len(p), n)))[:2]

    def _nearest(self, p, idx):
        """Closest point to each row of p among the segments idx[row], given in
        ascending order: (s, lateral, squared distance) arrays."""
        wx, wy, sx, sy, len2 = self._geometry[:, idx]
        x, y = p[:, :1], p[:, 1:]
        # maximum() turns -0.0 into 0.0, as project() does.
        t = np.minimum(np.maximum(((x - wx) * sx + (y - wy) * sy) / len2, 0.0), 1.0)
        ex, ey = x - (wx + t * sx), y - (wy + t * sy)
        dist2 = ex * ex + ey * ey
        rows = np.arange(len(p))
        j = np.argmin(dist2, axis=1)
        i = idx[rows, j]
        tx, ty = self._tangent[i].T
        return (self._cum[i] + t[rows, j] * self._seg_len[i],
                tx * ey[rows, j] - ty * ex[rows, j], dist2[rows, j])

    def segment_index(self, s):
        i = bisect.bisect_right(self._cums, s) - 1
        return min(max(i, 0), len(self._lens) - 1)

    def point_at(self, s):
        """(x, y, heading) at arc length s; clamps to the route ends."""
        s = min(max(float(s), 0.0), self.length)
        i = self.segment_index(s)
        t = (s - self._cums[i]) / self._lens[i]
        wx, wy, sx, sy, _ = self._segs[i]
        return wx + t * sx, wy + t * sy, self.headings[i]

    def command_at(self, s):
        return self.commands[self.segment_index(s)]


# -- scripted actors ---------------------------------------------------------

class RouteFollower:
    """Actor that rides the route profile: cruise, optional brake/stop/resume,
    optional lateral merge from an adjacent lane."""

    def __init__(self, route, s0, cruise, brake_at_s=None, stop_duration=0.0,
                 resume_speed=None, lateral0=0.0, merge_trigger_gap=None,
                 merge_duration=4.0, slow_speed=None, slow_duration=0.0):
        self.route = route
        self.s = s0
        self.speed = cruise
        self.cruise = cruise
        self.brake_at_s = brake_at_s
        self.stop_duration = stop_duration
        self.resume_speed = cruise if resume_speed is None else resume_speed
        self.lateral = lateral0
        self.lateral0 = lateral0
        self.merge_trigger_gap = merge_trigger_gap
        self.merge_duration = merge_duration
        self.slow_speed = slow_speed
        self.slow_duration = slow_duration
        self._phase = "cruise"
        self._phase_t = 0.0

    def step(self, world, actor, dt):
        self._phase_t += dt
        if self._phase == "cruise":
            if self.brake_at_s is not None and self.s >= self.brake_at_s:
                self._phase, self._phase_t = "stopping", 0.0
            if self.merge_trigger_gap is not None:
                ego_s, _ = world.route.project(world.ego.x, world.ego.y)
                if self.s - ego_s <= self.merge_trigger_gap:
                    self._phase, self._phase_t = "merging", 0.0
        elif self._phase == "stopping":
            self.speed = max(0.0, self.speed - 8.0 * dt)
            if self.speed == 0.0:
                self._phase, self._phase_t = "stopped", 0.0
        elif self._phase == "stopped":
            if self._phase_t >= self.stop_duration:
                self._phase, self._phase_t = "resuming", 0.0
        elif self._phase == "resuming":
            self.speed = min(self.resume_speed, self.speed + 2.0 * dt)
        elif self._phase == "merging":
            frac = min(1.0, self._phase_t / self.merge_duration)
            self.lateral = self.lateral0 * 0.5 * (1.0 + math.cos(math.pi * frac))
            if self.slow_speed is not None:
                self.speed = self.slow_speed
            if frac >= 1.0:
                self.lateral = 0.0
                self._phase, self._phase_t = "merged_slow", 0.0
        elif self._phase == "merged_slow":
            if self._phase_t >= self.slow_duration:
                self._phase, self._phase_t = "speedup", 0.0
        elif self._phase == "speedup":
            self.speed = min(self.resume_speed, self.speed + 1.5 * dt)

        self.s += self.speed * dt
        x, y, heading = self.route.point_at(self.s)
        if self.lateral != 0.0:
            x += -math.sin(heading) * self.lateral
            y += math.cos(heading) * self.lateral
        actor.x, actor.y, actor.heading, actor.speed = x, y, heading, self.speed
        # Past the route end the actor keeps going straight and leaves the scene.
        if self.s > self.route.length:
            over = self.s - self.route.length
            actor.x += math.cos(heading) * over
            actor.y += math.sin(heading) * over


class CrossingWalker:
    """Pedestrian crossing the route at a fixed arc position, triggered when
    the ego closes within a gap."""

    def __init__(self, route, cross_s, start_offset, walk_speed, trigger_gap):
        self.route = route
        self.cross_s = cross_s
        self.offset = start_offset
        self.end_offset = -start_offset
        self.walk_speed = walk_speed
        self.trigger_gap = trigger_gap
        self.walking = False

    def step(self, world, actor, dt):
        if not self.walking:
            ego_s, _ = world.route.project(world.ego.x, world.ego.y)
            if self.cross_s - ego_s <= self.trigger_gap:
                self.walking = True
        if self.walking and self.offset > self.end_offset:
            self.offset -= self.walk_speed * dt
            actor.speed = self.walk_speed
        else:
            actor.speed = 0.0
        x, y, heading = self.route.point_at(self.cross_s)
        actor.x = x - math.sin(heading) * self.offset
        actor.y = y + math.cos(heading) * self.offset
        # Walks from +offset toward -offset, i.e. along -normal.
        actor.heading = wrap_angle(heading - math.pi / 2.0)


class StaticScript:
    def step(self, world, actor, dt):
        actor.speed = 0.0


# -- world -------------------------------------------------------------------

@dataclass
class Frame:
    time: float
    ego: tuple          # (x, y, heading, speed)
    actors: list        # [(x, y, heading, speed), ...]
    infractions: list   # kinds logged this tick


class World:
    def __init__(self, spec, route, ego, actors):
        self.spec = spec
        self.route = route
        self.ego = ego
        self.actors = actors
        self.time = 0.0
        self.tick = 0
        self.infractions = []
        self.progress = 0.0
        self.done = False
        self.termination = None
        self.trace = []
        self.stop_line_served = False
        self.stop_line_scored = False
        self._contacts = set()
        self._off_road_active = False
        self._blocked_ticks = 0
        self._prev_s = 0.0

    def leading_gap(self):
        """Distance along the route to the nearest actor ahead inside the
        forward lane corridor, or None beyond LEADING_GAP_RANGE."""
        ego_s, _ = self.route.project(self.ego.x, self.ego.y)
        best = None
        for a in self.actors:
            s_a, lat_a = self.route.project(a.x, a.y)
            if s_a >= self.route.length - 0.1:
                continue    # past the route end: exited the scene
            if abs(lat_a) > LANE_HALF_WIDTH + a.width / 2.0:
                continue
            gap = s_a - ego_s - (self.ego.length + a.length) / 2.0
            if -1.0 < gap < LEADING_GAP_RANGE and s_a > ego_s:
                if best is None or gap < best:
                    best = gap
        return best

    def _log(self, kind, tick_kinds):
        penalty = PENALTY.get(kind, 1.0)
        self.infractions.append(InfractionEvent(kind=kind, time=self.time, penalty=penalty))
        tick_kinds.append(kind)
        if kind in TERMINAL_INFRACTIONS:
            self.done = True
            self.termination = kind


def detect_collisions(world):
    """SAT overlap between ego and every actor, debounced per contact episode."""
    events = []
    e = world.ego
    still_touching = set()
    for a in world.actors:
        if rects_collide(e.x, e.y, e.heading, e.length, e.width,
                         a.x, a.y, a.heading, a.length, a.width):
            still_touching.add(a.actor_id)
            if a.actor_id not in world._contacts:
                kind = {"vehicle": "collision_vehicle",
                        "pedestrian": "collision_pedestrian",
                        "static": "collision_static"}[a.kind]
                events.append(InfractionEvent(kind=kind, time=world.time,
                                              penalty=PENALTY[kind]))
    world._contacts = still_touching
    return events


def advance_world(world, cmd):
    """Step ego + scripted actors one tick, log infractions, and append the
    tick's Frame to the trace. A finished world is left as it is."""
    if world.done:
        return
    world.ego = step_kinematics(world.ego, cmd)
    for a in world.actors:
        if a.script is not None:
            a.script.step(world, a, DT)
    world.time += DT
    world.tick += 1

    tick_kinds = []
    for ev in detect_collisions(world):
        world.infractions.append(ev)
        tick_kinds.append(ev.kind)

    s, lateral = world.route.project(world.ego.x, world.ego.y)
    world.progress = max(world.progress, s)

    if abs(lateral) > 8.0:
        world._log("route_deviation", tick_kinds)
    elif abs(lateral) > LANE_HALF_WIDTH + 0.5:
        if not world._off_road_active:
            world._log("off_road", tick_kinds)
            world._off_road_active = True
    else:
        world._off_road_active = False

    stop_s = world.route.stop_line_s
    if stop_s is not None and not world.stop_line_scored:
        if not world.stop_line_served and abs(s - stop_s) < 2.0 and world.ego.speed < 0.1:
            world.stop_line_served = True
        if s > stop_s and world._prev_s <= stop_s:
            if world.stop_line_served:
                world.stop_line_scored = True
            elif world.ego.speed > 0.1:
                world._log("stop_sign_violation", tick_kinds)
                world.stop_line_scored = True
    world._prev_s = s

    if world.ego.speed < 0.1:
        world._blocked_ticks += 1
    else:
        world._blocked_ticks = 0

    if not world.done:
        if world.progress >= world.route.length - 0.5:
            world.done = True
            world.termination = "completed"
        elif world.time > world.route.time_budget:
            world._log("timeout", tick_kinds)
        elif world._blocked_ticks * DT >= BLOCKED_SECONDS:
            world._log("blocked", tick_kinds)

    world.trace.append(Frame(
        time=world.time, ego=(world.ego.x, world.ego.y, world.ego.heading, world.ego.speed),
        actors=[(a.x, a.y, a.heading, a.speed) for a in world.actors], infractions=tick_kinds))


# -- scenario construction ----------------------------------------------------

def _make_route(rng, spec, lateral_bump=None, stop_line_s=None, curvature=None):
    """Gently curved route of the requested length, with an optional lateral
    detour bump (for overtaking) and per-segment commands."""
    spacing = 3.0
    n = int(spec.route_length / spacing) + 1
    if curvature is None:
        curvature = rng.uniform(-0.003, 0.003)
    x, y, heads = [0.0], [0.0], [0.0]
    for _ in range(1, n):
        heads.append(heads[-1] + curvature * spacing)
        x.append(x[-1] + spacing * math.cos(heads[-1]))
        y.append(y[-1] + spacing * math.sin(heads[-1]))
    s_grid = [i * spacing for i in range(n)]
    commands = ["LaneFollow"] * (n - 1)

    if lateral_bump is not None:
        center, half_span, offset = lateral_bump
        for i in range(n):
            u = (s_grid[i] - center) / half_span
            if abs(u) < 1.0:
                off = offset * 0.5 * (1.0 + math.cos(math.pi * u))
                x[i] += off * -math.sin(heads[i])
                y[i] += off * math.cos(heads[i])
        for i in range(n - 1):
            mid = (s_grid[i] + s_grid[i + 1]) / 2.0
            if center - half_span < mid < center:
                commands[i] = "ChangeLaneLeft"
            elif center < mid < center + half_span:
                commands[i] = "ChangeLaneRight"

    return Route(np.column_stack([x, y]), commands, speed_limit=spec.speed_limit,
                 stop_line_s=stop_line_s)


def reset(spec):
    """Build the initial world for a scenario spec. Identical spec + seed give
    a bit-identical world."""
    if not isinstance(spec, ScenarioSpec):
        spec = ScenarioSpec(**spec)
    rng = np.random.default_rng(spec.seed)
    actors = []
    kind = spec.kind

    if kind == "EmergencyBrake":
        route = _make_route(rng, spec)
        s0 = 28.0 + rng.uniform(-4.0, 4.0)
        brake_at = 52.0 + rng.uniform(-6.0, 6.0)
        cruise = 5.5 + rng.uniform(-0.5, 0.5)
        stop_for = 3.0 + rng.uniform(0.0, 1.5)
        script = RouteFollower(route, s0, cruise, brake_at_s=brake_at,
                               stop_duration=stop_for, resume_speed=7.5)
        x, y, h = route.point_at(s0)
        actors.append(ActorState(x, y, h, cruise, 4.5, 1.9, "vehicle", script, 1))
    elif kind == "Overtaking":
        curvature = rng.uniform(-0.003, 0.003)
        park_s = 60.0 + rng.uniform(-8.0, 8.0)
        route = _make_route(rng, spec, lateral_bump=(park_s, 18.0, 4.0),
                            curvature=curvature)
        # Parked car sits on the original lane centerline (route swerves around it).
        base = _make_route(rng, spec, curvature=curvature)
        x, y, h = base.point_at(park_s)
        actors.append(ActorState(x, y, h, 0.0, 4.5, 1.9, "static", StaticScript(), 1))
    elif kind == "GiveWay":
        route = _make_route(rng, spec)
        cross_s = 60.0 + rng.uniform(-8.0, 8.0)
        walk = 1.4 + rng.uniform(-0.2, 0.3)
        trigger = 26.0 + rng.uniform(-3.0, 3.0)
        script = CrossingWalker(route, cross_s, start_offset=5.0,
                                walk_speed=walk, trigger_gap=trigger)
        x, y, h = route.point_at(cross_s)
        actors.append(ActorState(x - math.sin(h) * 5.0, y + math.cos(h) * 5.0,
                                 wrap_angle(h + math.pi / 2.0), 0.0,
                                 0.6, 0.6, "pedestrian", script, 1))
    elif kind == "Merging":
        route = _make_route(rng, spec)
        s0 = 35.0 + rng.uniform(-5.0, 5.0)
        trigger = 22.0 + rng.uniform(-3.0, 3.0)
        slow = 4.5 + rng.uniform(-0.5, 0.5)
        script = RouteFollower(route, s0, slow, lateral0=3.5,
                               merge_trigger_gap=trigger, merge_duration=4.0,
                               slow_speed=slow, slow_duration=5.0, resume_speed=7.5)
        x, y, h = route.point_at(s0)
        actors.append(ActorState(x - math.sin(h) * 3.5, y + math.cos(h) * 3.5,
                                 h, slow, 4.5, 1.9, "vehicle", script, 1))
    elif kind == "StopSign":
        stop_s = 60.0 + rng.uniform(-8.0, 8.0)
        route = _make_route(rng, spec, stop_line_s=stop_s)

    ego = EgoState(x=route.waypoints[0, 0], y=route.waypoints[0, 1],
                   heading=math.atan2(*(route.waypoints[1] - route.waypoints[0])[::-1]),
                   speed=0.0)
    return World(spec, route, ego, actors)
