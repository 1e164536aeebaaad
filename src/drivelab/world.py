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
STILL_SPEED = 0.1         # m/s; slower counts as standing still
STOP_LATCH_RANGE = 2.0    # m; standing still this close to a stop line serves it
ROUTE_LENGTH = 120.0      # m, the default scenario route
SPEED_LIMIT = 8.0         # m/s, the default route speed limit
# Route.project_many evaluates a window of this many segments around each
# point's start segment before it checks that the rest are farther away; on
# a shorter route it scans every segment.
_WINDOW = 9
_WINDOW_OFFSETS = np.arange(_WINDOW)
# Route.clear_of widens `half` by this many metres per metre of the largest
# coordinate, and by this many metres, to cover rounding in the projection.
_CLEAR_MARGIN = 1e-6

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


# -- frames ------------------------------------------------------------------

def to_ego(x, y, ox, oy, heading):
    """World (x, y) in the frame (x forward, y left) of a body at (ox, oy) facing `heading`."""
    c, s = math.cos(heading), math.sin(heading)
    dx, dy = x - ox, y - oy
    return c * dx + s * dy, -s * dx + c * dy


def left_of(x, y, heading, d):
    """The point `d` m from (x, y) along the left normal of `heading`."""
    return x - math.sin(heading) * d, y + math.cos(heading) * d


def velocity(speed, heading):
    """World-frame velocity (vx, vy) of a body moving at `speed` along `heading`."""
    return speed * math.cos(heading), speed * math.sin(heading)


def corridor_half_width(width):
    """The |lateral| within which a body `width` m wide reaches into the lane."""
    return LANE_HALF_WIDTH + width / 2.0


def bumper_gap(s, ego_s, ego_length, length):
    """Route distance from the ego's front to the back of a body centred at `s`."""
    return s - ego_s - (ego_length + length) / 2.0


@dataclass
class EgoState:
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    speed: float = 0.0
    wheelbase: float = 2.8
    length: float = 4.5
    width: float = 1.9

    @property
    def state(self):
        """(x, y, heading, speed), the floats step_kinematics integrates."""
        return self.x, self.y, self.heading, self.speed


def check_control(throttle, brake, steer):
    """The range rule of a control: throttle and brake in [0, 1], steer in
    [-1, 1]; a nan is outside every range."""
    if not (0.0 <= throttle <= 1.0):
        raise ValueError(f"throttle {throttle} outside [0, 1]")
    if not (0.0 <= brake <= 1.0):
        raise ValueError(f"brake {brake} outside [0, 1]")
    if not (-1.0 <= steer <= 1.0):
        raise ValueError(f"steer {steer} outside [-1, 1]")


@dataclass
class ControlCommand:
    throttle: float = 0.0
    brake: float = 0.0
    steer: float = 0.0

    def __post_init__(self):
        check_control(self.throttle, self.brake, self.steer)


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

    def __post_init__(self):
        PENALTY[f"collision_{self.kind}"]   # KeyError: a contact would have no penalty


@dataclass
class ScenarioSpec:
    kind: str
    seed: int
    route_length: float = ROUTE_LENGTH
    speed_limit: float = SPEED_LIMIT

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"scenario kind {self.kind!r} not one of {SCENARIO_KINDS}")
        # Stated as what must hold, so a nan or an infinity fails too.
        if not 20.0 < self.route_length < math.inf:
            raise ValueError(f"route_length {self.route_length} must be finite and > 20 m")
        if not 0.0 < self.speed_limit < math.inf:
            raise ValueError(f"speed_limit {self.speed_limit} must be finite and positive")


def steer_toward(x, y, ld, wheelbase):
    """The pure-pursuit steer law: the normalized command that bends the
    ego toward the ego-frame point (x, y) at lookahead distance `ld`,
    atan(wheelbase * 2 sin(atan2(y, x)) / ld) / DELTA_MAX clipped to +-1."""
    curvature = 2.0 * math.sin(math.atan2(y, x)) / ld
    return min(max(math.atan(wheelbase * curvature) / DELTA_MAX, -1.0), 1.0)


def step_kinematics(state, control, wheelbase, dt=DT):
    """Advance the bicycle model one tick with RK4 (control held over the
    tick): `state` (x, y, heading, speed) under `control` (throttle, brake,
    steer) gives the next (x, y, heading, speed).

    Brake dominates: any brake input forces the executed throttle to zero.
    Speed never goes negative.
    """
    x0, y0, h0, v0 = state
    throttle, brake, steer = control
    if brake > 0.0:
        throttle = 0.0
    tan_delta = math.tan(DELTA_MAX * steer)
    L = wheelbase
    accel = A_MAX * throttle - B_MAX * brake

    # The rates depend on heading and speed only. Stage i is
    # (v cos h, v sin h, v / L tan(delta), accel - C_DRAG v^2) at the clamped
    # speed v = max(v_i, 0), with (h_i, v_i) the state the stage samples;
    # `0.0 if v < 0.0 else v` is max(v, 0.0) for every v, -0.0 and nan too.
    half = 0.5 * dt
    h, v = h0, 0.0 if v0 < 0.0 else v0
    x1, y1, h1, v1 = v * math.cos(h), v * math.sin(h), v / L * tan_delta, accel - C_DRAG * v * v
    h, v = h0 + half * h1, v0 + half * v1
    v = 0.0 if v < 0.0 else v
    x2, y2, h2, v2 = v * math.cos(h), v * math.sin(h), v / L * tan_delta, accel - C_DRAG * v * v
    h, v = h0 + half * h2, v0 + half * v2
    v = 0.0 if v < 0.0 else v
    x3, y3, h3, v3 = v * math.cos(h), v * math.sin(h), v / L * tan_delta, accel - C_DRAG * v * v
    h, v = h0 + dt * h3, v0 + dt * v3
    v = 0.0 if v < 0.0 else v
    x4, y4, h4, v4 = v * math.cos(h), v * math.sin(h), v / L * tan_delta, accel - C_DRAG * v * v
    w = dt / 6.0
    x = x0 + w * (x1 + 2.0 * x2 + 2.0 * x3 + x4)
    y = y0 + w * (y1 + 2.0 * y2 + 2.0 * y3 + y4)
    psi = h0 + w * (h1 + 2.0 * h2 + 2.0 * h3 + h4)
    v = v0 + w * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
    return x, y, wrap_angle(psi), 0.0 if v < 0.0 else v


# -- oriented-rectangle collision (separating axis) -------------------------

def rects_collide(x1, y1, h1, l1, w1, x2, y2, h2, l2, w2):
    """Whether two rectangles (centre, heading, length, width) overlap;
    touching counts. A circle prefilter, then the separating-axis test on
    the 4 edge directions: the boxes are apart when, on one of them, the
    projected centre gap exceeds the sum of the two half-extents."""
    dx, dy = x2 - x1, y2 - y1
    r = 0.5 * (math.hypot(l1, w1) + math.hypot(l2, w2))
    if math.hypot(dx, dy) > r:
        return False
    c1, s1, c2, s2 = math.cos(h1), math.sin(h1), math.cos(h2), math.sin(h2)
    c, s = abs(c1 * c2 + s1 * s2), abs(c1 * s2 - s1 * c2)   # |cos|, |sin| of h2 - h1
    a1, b1, a2, b2 = 0.5 * l1, 0.5 * w1, 0.5 * l2, 0.5 * w2
    return not (abs(dx * c1 + dy * s1) > a1 + a2 * c + b2 * s
                or abs(dy * c1 - dx * s1) > b1 + a2 * s + b2 * c
                or abs(dx * c2 + dy * s2) > a2 + a1 * c + b1 * s
                or abs(dy * c2 - dx * s2) > b2 + a1 * s + b1 * c)


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

    `clear_of` certifies that a straight segment keeps out of a lane: every
    point p gets |lateral(p)| >= cos(theta) * dist(p, P*) from any of the
    three, with theta the largest turn between consecutive segments and P*
    the polyline with its first and last segments extended outward as rays.
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
        self._clearance = None    # see clear_of
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
        """Arc length of the closest polyline point and lateral offset, left positive."""
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
        """project() over an (m, 2) array of points: (s, lateral) arrays of
        length m. Each point searches its window of segments; a point whose
        window does not certifiably contain the closest segment takes the
        full scan, as does every point on a route without windows (one whose
        breakpoints do not rise, or with fewer segments than a window)."""
        p = np.asarray(points, dtype=np.float64)
        if self._u is None or len(self._seg_len) < _WINDOW:
            return self._full_scan(p)
        up = p @ self._u
        lo = np.searchsorted(self._q_window, up, side="right")
        s, lateral, best = self._nearest(p, lo[:, None] + _WINDOW_OFFSETS)
        gap = np.minimum(up - self._q_bounds[lo], self._q_bounds[lo + _WINDOW] - up)
        rest = ~(gap > _reach(best))
        if rest.any():
            s[rest], lateral[rest] = self._full_scan(p[rest])
        return s, lateral

    def clear_of(self, p0, p1, half):
        """Whether no point of the segment p0-p1 gets |lateral| <= half from
        project, project_many or _full_scan. False certifies nothing.

        The closest route point to p is a perpendicular foot inside a
        segment, a route end, or an inner vertex. A foot gives |lateral| =
        distance. At a route end, |lateral| is the distance to the ray that
        extends the end segment outward. At an inner vertex, p lies in the
        vertex's outer wedge, where p - vertex is within theta of
        perpendicular to both tangents, theta the route's largest turn. So
        |lateral(p)| >= cos(theta) * dist(p, P*), P* the route with both end
        segments extended as unbounded rays, and the segment is clear when
        its distance to P* exceeds `half` / cos(theta). A route that turns
        by 90 degrees or more is never clear.
        """
        if self._clearance is None:
            n = len(self._lens)
            lo, hi = np.zeros(n), np.ones(n)
            lo[0], hi[-1] = -np.inf, np.inf
            t = self._tangent
            cos_turn = float(np.min((t[:-1] * t[1:]).sum(axis=1), initial=1.0))
            self._clearance = cos_turn, lo, hi, float(np.abs(self.waypoints).max())
        cos_turn, lo, hi, extent = self._clearance
        if cos_turn <= 0.0:
            return False
        (x0, y0), (x1, y1) = p0, p1
        scale = max(extent, abs(x0), abs(y0), abs(x1), abs(y1))
        reach = (half + _CLEAR_MARGIN * (1.0 + scale)) / cos_turn
        # Pieces of P*: w + r s for r in [lo, hi]; the segment: p0 + u e.
        wx, wy, sx, sy, len2 = self._geometry
        ex, ey = x1 - x0, y1 - y0
        fx, fy = x0 - wx, y0 - wy
        den = sx * ey - sy * ex
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # Parallel pieces get infinite or nan parameters: no crossing.
            r = (fx * ey - fy * ex) / den
            u = (fx * sy - fy * sx) / den
        if ((lo <= r) & (r <= hi) & (0.0 <= u) & (u <= 1.0)).any():
            return False
        # Two pieces that do not cross are closest at an endpoint of one.
        qx, qy = np.array([[x0], [x1]]), np.array([[y0], [y1]])
        r = np.clip(((qx - wx) * sx + (qy - wy) * sy) / len2, lo, hi)
        gap2 = [((qx - wx - r * sx) ** 2 + (qy - wy - r * sy) ** 2).min()]
        e2 = ex * ex + ey * ey
        if e2 > 0.0:
            px, py = self.waypoints.T
            u = np.clip(((px - x0) * ex + (py - y0) * ey) / e2, 0.0, 1.0)
            gap2.append(((px - x0 - u * ex) ** 2 + (py - y0 - u * ey) ** 2).min())
        return bool(np.min(gap2) > reach * reach)

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
        """The segment holding arc length s, the first before the route and
        the last past it or for a nan: the search spans the inner breakpoints."""
        return bisect.bisect_right(self._cums, s, 1, len(self._lens)) - 1

    def point_at(self, s):
        """(x, y, heading) at arc length s; clamps to the route ends. The
        comparisons are min(max(s, 0.0), length) for every s, -0.0 and nan
        too, and the search is segment_index's, inlined for the rollout."""
        s = 0.0 if s < 0.0 else (self.length if s > self.length else s)
        cums = self._cums
        i = bisect.bisect_right(cums, s, 1, len(self._lens)) - 1
        t = (s - cums[i]) / self._lens[i]
        wx, wy, sx, sy, _ = self._segs[i]
        return wx + t * sx, wy + t * sy, self.headings[i]

    def command_at(self, s):
        return self.commands[self.segment_index(s)]

    def serves_stop_line(self, s, speed):
        """Whether an ego at arc length s moving at `speed` serves this
        route's stop line: it stands still within STOP_LATCH_RANGE of it."""
        return abs(s - self.stop_line_s) < STOP_LATCH_RANGE and speed < STILL_SPEED

    def exited(self, s):
        """Whether arc length s is at or past the route end, where an actor
        has left the scene."""
        return s >= self.length - 0.1


# -- scripted actors ---------------------------------------------------------

class RouteFollower:
    """Actor that rides the route profile: cruise, optional brake/stop/resume,
    optional lateral merge from an adjacent lane."""

    MERGE_DURATION = 4.0    # seconds from the merge trigger to the lane centre

    def __init__(self, route, s0, cruise, brake_at_s=None, stop_duration=0.0,
                 resume_speed=None, lateral0=0.0, merge_trigger_gap=None,
                 slow_speed=None, slow_duration=0.0):
        self.route = route
        self.s = s0
        self.speed = cruise
        self.brake_at_s = brake_at_s
        self.stop_duration = stop_duration
        self.resume_speed = cruise if resume_speed is None else resume_speed
        self.lateral = lateral0
        self.lateral0 = lateral0
        self.merge_trigger_gap = merge_trigger_gap
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
                ego_s, _ = world.ego_projection()
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
            frac = min(1.0, self._phase_t / self.MERGE_DURATION)
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
        actor.x, actor.y = left_of(x, y, heading, self.lateral)
        actor.heading, actor.speed = heading, self.speed
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
            ego_s, _ = world.ego_projection()
            if self.cross_s - ego_s <= self.trigger_gap:
                self.walking = True
        if self.walking and self.offset > self.end_offset:
            self.offset -= self.walk_speed * dt
            actor.speed = self.walk_speed
        else:
            actor.speed = 0.0
        x, y, heading = self.route.point_at(self.cross_s)
        actor.x, actor.y = left_of(x, y, heading, self.offset)
        # Walks from +offset toward -offset, i.e. along -normal.
        actor.heading = wrap_angle(heading - math.pi / 2.0)


# -- world -------------------------------------------------------------------

@dataclass
class Frame:
    time: float
    ego: tuple          # (x, y, heading, speed)
    actors: list        # [(x, y, heading, speed), ...]
    infractions: list   # kinds logged this tick; the episode's only infraction log


class World:
    def __init__(self, spec, route, ego, actors):
        self.spec = spec
        self.route = route
        self.ego = ego
        self.actors = actors
        self.time = 0.0
        self.tick = 0
        self.progress = 0.0
        self.termination = None
        self.trace = []
        self.stop_line_served = False
        self.stop_line_scored = False
        self._contacts = set()
        self._off_road_active = False
        self._blocked_ticks = 0
        self._prev_s = 0.0
        self._ego_memo = None     # see ego_projection

    def ego_projection(self):
        """The ego's route projection (s, lateral), computed once per ego
        state. A hit needs the same EgoState holding the same x and y
        objects, so a new ego, as each tick makes, or a coordinate assigned
        anew is projected again."""
        ego, memo = self.ego, self._ego_memo
        if memo is None or memo[0] is not ego or memo[1] is not ego.x or memo[2] is not ego.y:
            self._ego_memo = memo = (ego, ego.x, ego.y, self.route.project(ego.x, ego.y))
        return memo[3]

    @property
    def done(self):
        return self.termination is not None

    def leading_gap(self):
        """Distance along the route to the nearest actor ahead inside the
        forward lane corridor, or None beyond LEADING_GAP_RANGE."""
        ego_s, _ = self.ego_projection()
        best = None
        for a in self.actors:
            s_a, lat_a = self.route.project(a.x, a.y)
            if self.route.exited(s_a) or abs(lat_a) > corridor_half_width(a.width):
                continue
            gap = bumper_gap(s_a, ego_s, self.ego.length, a.length)
            if -1.0 < gap < LEADING_GAP_RANGE and s_a > ego_s and (best is None or gap < best):
                best = gap
        return best

    def _log(self, kind, tick_kinds):
        tick_kinds.append(kind)
        if kind in TERMINAL_INFRACTIONS:
            self.termination = kind


def detect_collisions(world):
    """The kinds of the ego's new contacts this tick: SAT overlap with every
    actor, debounced per contact episode."""
    e = world.ego
    touching = [a for a in world.actors if rects_collide(e.x, e.y, e.heading, e.length, e.width,
                                                         a.x, a.y, a.heading, a.length, a.width)]
    kinds = [f"collision_{a.kind}" for a in touching if a.actor_id not in world._contacts]
    world._contacts = {a.actor_id for a in touching}
    return kinds


def advance_world(world, cmd):
    """Step ego + scripted actors one tick, log infractions, and append the
    tick's Frame to the trace. A finished world is left as it is."""
    if world.done:
        return
    e = world.ego
    world.ego = EgoState(*step_kinematics(e.state, (cmd.throttle, cmd.brake, cmd.steer),
                                          e.wheelbase),
                         wheelbase=e.wheelbase, length=e.length, width=e.width)
    for a in world.actors:
        if a.script is not None:
            a.script.step(world, a, DT)
    world.time += DT
    world.tick += 1

    tick_kinds = detect_collisions(world)

    s, lateral = world.ego_projection()
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
        if not world.stop_line_served and world.route.serves_stop_line(s, world.ego.speed):
            world.stop_line_served = True
        if s > stop_s and world._prev_s <= stop_s:
            if world.stop_line_served:
                world.stop_line_scored = True
            elif world.ego.speed > STILL_SPEED:
                world._log("stop_sign_violation", tick_kinds)
                world.stop_line_scored = True
    world._prev_s = s

    if world.ego.speed < STILL_SPEED:
        world._blocked_ticks += 1
    else:
        world._blocked_ticks = 0

    if not world.done:
        if world.progress >= world.route.length - 0.5:
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
                x[i], y[i] = left_of(x[i], y[i], heads[i], off)
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
        actors.append(ActorState(*route.point_at(s0), cruise, 4.5, 1.9, "vehicle", script, 1))
    elif kind == "Overtaking":
        curvature = rng.uniform(-0.003, 0.003)
        park_s = 60.0 + rng.uniform(-8.0, 8.0)
        route = _make_route(rng, spec, lateral_bump=(park_s, 18.0, 4.0),
                            curvature=curvature)
        # Parked car sits on the original lane centerline (route swerves around it).
        base = _make_route(rng, spec, curvature=curvature)
        actors.append(ActorState(*base.point_at(park_s), 0.0, 4.5, 1.9, "static", None, 1))
    elif kind == "GiveWay":
        route = _make_route(rng, spec)
        cross_s = 60.0 + rng.uniform(-8.0, 8.0)
        walk = 1.4 + rng.uniform(-0.2, 0.3)
        trigger = 26.0 + rng.uniform(-3.0, 3.0)
        script = CrossingWalker(route, cross_s, start_offset=5.0,
                                walk_speed=walk, trigger_gap=trigger)
        x, y, h = route.point_at(cross_s)
        actors.append(ActorState(*left_of(x, y, h, 5.0), wrap_angle(h + math.pi / 2.0), 0.0,
                                 0.6, 0.6, "pedestrian", script, 1))
    elif kind == "Merging":
        route = _make_route(rng, spec)
        s0 = 35.0 + rng.uniform(-5.0, 5.0)
        trigger = 22.0 + rng.uniform(-3.0, 3.0)
        slow = 4.5 + rng.uniform(-0.5, 0.5)
        script = RouteFollower(route, s0, slow, lateral0=3.5,
                               merge_trigger_gap=trigger, slow_speed=slow,
                               slow_duration=5.0, resume_speed=7.5)
        x, y, h = route.point_at(s0)
        actors.append(ActorState(*left_of(x, y, h, 3.5), h, slow, 4.5, 1.9, "vehicle", script, 1))
    elif kind == "StopSign":
        stop_s = 60.0 + rng.uniform(-8.0, 8.0)
        route = _make_route(rng, spec, stop_line_s=stop_s)

    ego = EgoState(*route.points[0], heading=route.headings[0])
    return World(spec, route, ego, actors)
