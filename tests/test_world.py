import bisect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st, target

from drivelab import world as sim


def straight_route(length=120.0, spacing=3.0, **kw):
    n = int(length / spacing) + 1
    pts = np.stack([np.arange(n) * spacing, np.zeros(n)], axis=1)
    return sim.Route(pts, ["LaneFollow"] * (n - 1), **kw)


def logged(w):
    """The infraction kinds the world's trace holds, in order."""
    return [k for f in w.trace for k in f.infractions]


class TestKinematics:
    # step_kinematics integrates (x, y, heading, speed) under (throttle,
    # brake, steer) for a given wheelbase.
    WHEELBASE = sim.EgoState().wheelbase

    def test_straight_full_throttle_accelerates(self):
        state = sim.EgoState().state
        for _ in range(20):
            state = sim.step_kinematics(state, (1.0, 0.0, 0.0), self.WHEELBASE)
        _, y, _, speed = state
        # ~A_MAX * t minus a little drag
        assert 2.8 < speed <= 3.0
        assert y == pytest.approx(0.0)

    def test_drag_free_matches_analytic(self, monkeypatch):
        monkeypatch.setattr(sim, "C_DRAG", 0.0)
        state = sim.EgoState(speed=0.0).state
        for _ in range(40):
            state = sim.step_kinematics(state, (1.0, 0.0, 0.0), self.WHEELBASE)
        x, _, _, speed = state
        t = 40 * sim.DT
        assert speed == pytest.approx(sim.A_MAX * t, abs=1e-9)
        assert x == pytest.approx(0.5 * sim.A_MAX * t * t, abs=1e-6)

    def test_brake_dominates_throttle(self):
        state = sim.EgoState(speed=8.0).state
        speed = sim.step_kinematics(state, (1.0, 1.0, 0.0), self.WHEELBASE)[3]
        assert speed == pytest.approx(8.0 - sim.B_MAX * sim.DT, rel=1e-3)

    def test_speed_never_negative(self):
        state = sim.EgoState(speed=0.1).state
        for _ in range(10):
            state = sim.step_kinematics(state, (0.0, 1.0, 0.0), self.WHEELBASE)
        assert state[3] == 0.0

    def test_steady_turn_matches_bicycle_yaw_rate(self, monkeypatch):
        monkeypatch.setattr(sim, "C_DRAG", 0.0)
        state = sim.EgoState(speed=5.0).state
        heading = sim.step_kinematics(state, (0.0, 0.0, 0.5), self.WHEELBASE)[2]
        # v slightly constant; yaw rate = v/L tan(delta_max * steer)
        expect = 5.0 / self.WHEELBASE * math.tan(sim.DELTA_MAX * 0.5) * sim.DT
        assert heading == pytest.approx(expect, rel=1e-3)

    def test_command_validation(self):
        with pytest.raises(ValueError):
            sim.ControlCommand(throttle=1.5)
        with pytest.raises(ValueError):
            sim.ControlCommand(brake=-0.1)
        with pytest.raises(ValueError):
            sim.ControlCommand(steer=2.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(-50, 50))
def test_wrap_angle_range(a):
    w = sim.wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)


def corners(x, y, heading, length, width):
    hl, hw = length / 2.0, width / 2.0
    c, s = math.cos(heading), math.sin(heading)
    return [(x + dx * c - dy * s, y + dx * s + dy * c)
            for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))]


def corner_gap(box1, box2):
    """The corner-list separating-axis test that `rects_collide` replaced,
    as a signed margin: the widest gap between the two boxes' corner
    projections on the unit normals of their 8 edges (a zero-length edge has
    none). It called the boxes apart where this is > 0."""
    c1, c2 = corners(*box1), corners(*box2)
    gap = -math.inf
    for quad in (c1, c2):
        for (x1, y1), (x2, y2) in zip(quad, quad[1:] + quad[:1]):
            n = math.hypot(y1 - y2, x2 - x1)
            if n == 0.0:
                continue
            ax, ay = (y1 - y2) / n, (x2 - x1) / n
            p1 = [cx * ax + cy * ay for cx, cy in c1]
            p2 = [cx * ax + cy * ay for cx, cy in c2]
            gap = max(gap, min(p2) - max(p1), min(p1) - max(p2))
    return gap


BOXES = st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(-math.pi, math.pi),
                  st.floats(0.1, 6.0), st.just(0.0) | st.floats(0.1, 3.0))


class TestCollision:
    def test_separated(self):
        assert not sim.rects_collide(0, 0, 0, 4, 2, 10, 0, 0, 4, 2)

    def test_overlapping(self):
        assert sim.rects_collide(0, 0, 0, 4, 2, 3, 0, 0, 4, 2)

    def test_rotated_near_miss(self):
        # lateral neighbor that only hits once rotated across our lane
        assert not sim.rects_collide(0, 0, 0, 4, 2, 2.5, 2.2, 0.0, 4, 2)
        assert sim.rects_collide(0, 0, 0, 4, 2, 2.5, 2.2, math.pi / 2, 4, 2)

    @settings(max_examples=500, deadline=None)
    @given(BOXES, BOXES)
    @example((0.0, 0.0, 0.0, 4.0, 2.0), (2.5, 2.2, math.pi / 2, 4.0, 2.0))
    @example((0.0, 0.0, 0.3, 4.5, 1.9), (3.1, 2.0, -0.4, 0.6, 0.6))
    def test_agrees_with_the_corner_test(self, box, other):
        """Wherever the corner test is decided by more than rounding, the
        closed form decides the same, the circle prefilter included."""
        gap = corner_gap(box, other)
        assume(abs(gap) > 1e-9)
        assert sim.rects_collide(*box, *other) == (gap < 0.0)

    def test_touching_counts_as_overlap(self):
        """Two 4 x 2 boxes whose edges meet exactly overlap, end to end and
        side by side; one ulp farther apart they do not."""
        box = (0.0, 0.0, 0.0, 4.0, 2.0)
        for touching, apart in (((4.0, 0.0), (np.nextafter(4.0, np.inf), 0.0)),
                                ((0.0, 2.0), (0.0, np.nextafter(2.0, np.inf)))):
            assert sim.rects_collide(*box, *touching, 0.0, 4.0, 2.0)
            assert not sim.rects_collide(*box, *apart, 0.0, 4.0, 2.0)
            assert corner_gap(box, (*touching, 0.0, 4.0, 2.0)) == 0.0
            assert corner_gap(box, (*apart, 0.0, 4.0, 2.0)) > 0.0

    def test_zero_width_box(self):
        """A box of zero width is a segment: it hits what it crosses or
        touches and nothing past its ends."""
        box = (0.0, 0.0, 0.0, 4.0, 2.0)
        assert sim.rects_collide(*box, 0.0, 0.5, 0.0, 4.0, 0.0)
        assert sim.rects_collide(*box, 0.0, 1.0, 0.0, 4.0, 0.0)
        assert not sim.rects_collide(*box, 0.0, np.nextafter(1.0, np.inf), 0.0, 4.0, 0.0)
        assert sim.rects_collide(*box, 1.5, 0.0, math.pi / 2, 4.0, 0.0)
        assert not sim.rects_collide(*box, 2.5, 0.0, math.pi / 2, 4.0, 0.0)
        # end on: only the long axis separates two collinear segments
        assert not sim.rects_collide(0.0, 0.0, 0.0, 4.0, 0.0, 4.5, 0.0, 0.0, 4.0, 0.0)
        assert sim.rects_collide(0.0, 0.0, 0.0, 4.0, 0.0, 4.0, 0.0, 0.0, 4.0, 0.0)

    @pytest.mark.parametrize("other", [(4.0, 2.0, 0.0), (0.6, 0.6, 1.1), (4.5, 0.0, -2.0),
                                       (0.0, 0.0, 0.7)])
    def test_boxes_with_the_same_centre_overlap(self, other):
        length, width, heading = other
        assert sim.rects_collide(1.0, -2.0, 0.3, 4.0, 2.0, 1.0, -2.0, heading, length, width)

    def test_debounce_one_event_per_contact(self):
        route = straight_route()
        ego = sim.EgoState(x=0.0)
        actor = sim.ActorState(3.0, 0.0, 0.0, 0.0, 4.5, 1.9, "vehicle", None, 1)
        w = sim.World(sim.ScenarioSpec("EmergencyBrake", 0), route, ego, [actor])
        ev1 = sim.detect_collisions(w)
        ev2 = sim.detect_collisions(w)
        assert ev1 == ["collision_vehicle"]
        assert ev2 == []
        # separation then re-contact logs a second event
        w.ego = sim.EgoState(x=-20.0)
        sim.detect_collisions(w)
        w.ego = sim.EgoState(x=0.0)
        assert len(sim.detect_collisions(w)) == 1

    @staticmethod
    def _contact_with(kind):
        actor = sim.ActorState(3.0, 0.0, 0.0, 0.0, 4.5, 1.9, kind, None, 1)
        w = sim.World(sim.ScenarioSpec("EmergencyBrake", 0), straight_route(), sim.EgoState(), [actor])
        return sim.detect_collisions(w)

    @pytest.mark.parametrize("kind", ["vehicle", "pedestrian", "static"])
    def test_a_contact_is_named_by_its_actors_kind(self, kind):
        [event] = self._contact_with(kind)
        assert event == f"collision_{kind}"
        assert event in sim.PENALTY

    def test_an_unknown_actor_kind_has_no_penalty(self):
        with pytest.raises(KeyError, match="collision_bicycle"):
            self._contact_with("bicycle")


def hexes(*values):
    """Each value's exact bits, -0.0 told from 0.0."""
    return [float(v).hex() for v in values]


class TestFrames:
    """`to_ego` and `left_of` against the formulas they replaced, each
    written out here, and their sign conventions: the ego frame is x
    forward and y left, and lateral is positive to the left."""

    @staticmethod
    def random_inputs(n=20000):
        """n rows of four coordinates of both signs over five decades, a
        heading within +-4 pi (past +-pi) and an offset of either sign."""
        rng = np.random.default_rng(11)
        coords = rng.uniform(-1.0, 1.0, (n, 4)) * 10.0 ** rng.integers(-2, 3, (n, 4))
        headings = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, n)
        headings[:4] = (math.pi, -math.pi, 0.0, -0.0)
        offsets = rng.uniform(-6.0, 6.0, n)
        return zip(coords.tolist(), headings.tolist(), offsets.tolist())

    def test_to_ego_matches_the_written_out_rotation(self):
        for (x, y, ox, oy), h, _ in self.random_inputs():
            cos_h, sin_h = math.cos(h), math.sin(h)
            dx, dy = x - ox, y - oy
            want = (cos_h * dx + sin_h * dy, -sin_h * dx + cos_h * dy)
            assert hexes(*sim.to_ego(x, y, ox, oy, h)) == hexes(*want)

    def test_left_of_matches_each_written_out_offset(self):
        """The three forms the offset was written in: subtracted, added
        negated, and with the negated sine as the second factor."""
        for (x, y, _, _), h, d in self.random_inputs():
            got = hexes(*sim.left_of(x, y, h, d))
            assert got == hexes(x - math.sin(h) * d, y + math.cos(h) * d)
            assert got == hexes(x + -math.sin(h) * d, y + math.cos(h) * d)
            assert got == hexes(x + d * -math.sin(h), y + d * math.cos(h))

    @pytest.mark.parametrize("heading", [0.0, 2.5, -2.0, 7.0])
    def test_ahead_and_left_are_positive(self, heading):
        ox, oy = 10.0, -4.0
        c, s = math.cos(heading), math.sin(heading)
        for ahead, left in ((5.0, 2.0), (-3.0, -1.0), (0.5, -4.0)):
            x, y = ox + ahead * c - left * s, oy + ahead * s + left * c
            assert sim.to_ego(x, y, ox, oy, heading) == pytest.approx((ahead, left))
        assert sim.left_of(ox, oy, heading, 2.0) == pytest.approx((ox - 2.0 * s, oy + 2.0 * c))

    @pytest.mark.parametrize("heading", [0.0, 2.0, -2.5])
    @pytest.mark.parametrize("d", [2.0, -1.5, 0.25])
    def test_left_of_a_route_point_projects_to_lateral_d(self, heading, d):
        """On an interior straight stretch, the point d m left of the route
        point at arc length s projects back to (s, d)."""
        n = 41
        pts = np.arange(n)[:, None] * 3.0 * np.array([math.cos(heading), math.sin(heading)])
        route = sim.Route(pts + (5.0, -7.0), ["LaneFollow"] * (n - 1))
        s, lateral = route.project(*sim.left_of(*route.point_at(50.0), d))
        assert s == pytest.approx(50.0)
        assert lateral == pytest.approx(d)


class TestRoute:
    def test_projection_and_lookup(self):
        r = straight_route()
        s, lat = r.project(10.0, 1.5)
        assert s == pytest.approx(10.0)
        assert lat == pytest.approx(1.5)
        x, y, h = r.point_at(10.0)
        assert (x, y, h) == (pytest.approx(10.0), pytest.approx(0.0), pytest.approx(0.0))

    def test_project_many_matches_scalar(self):
        spec = sim.ScenarioSpec("Overtaking", 3)
        r = sim.reset(spec).route
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 125, size=(40, 2))
        s_vec, lat_vec = r.project_many(pts)
        for i, (x, y) in enumerate(pts):
            s, lat = r.project(x, y)
            assert s_vec[i] == s
            assert lat_vec[i] == lat

    @staticmethod
    def old_segment_index(route, s):
        return min(max(bisect.bisect_right(route._cums, s) - 1, 0), len(route._lens) - 1)

    def old_point_at(self, route, s):
        """point_at as written with builtin clamps."""
        s = min(max(float(s), 0.0), route.length)
        i = self.old_segment_index(route, s)
        t = (s - route._cums[i]) / route._lens[i]
        wx, wy, sx, sy, _ = route._segs[i]
        return wx + t * sx, wy + t * sy, route.headings[i]

    @pytest.mark.parametrize("kind", sim.SCENARIO_KINDS)
    def test_point_at_matches_the_builtin_clamps(self, kind):
        """Below 0, past the end, at every breakpoint and beside it, and nan:
        point_at's comparisons clamp as min(max(s, 0.0), length) did, and
        its and segment_index's bounded search find the clamped index."""
        route = sim.reset(sim.ScenarioSpec(kind, 4)).route
        length = route.length
        rng = np.random.default_rng(5)
        arcs = [-1e9, -3.0, -1e-300, -0.0, 0.0, length, math.nextafter(length, math.inf),
                length + 1e-9, length + 7.0, 1e9, math.inf, -math.inf, math.nan]
        for c in route._cums:
            arcs += [c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf)]
        arcs += rng.uniform(-10.0, length + 10.0, 2000).tolist()
        for s in arcs:
            assert hexes(*route.point_at(s)) == hexes(*self.old_point_at(route, s)), s
            assert route.segment_index(s) == self.old_segment_index(route, s), s

    def test_time_budget(self):
        r = straight_route(length=120.0)
        assert r.time_budget == pytest.approx(120.0 / 2.0 + 30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            sim.Route([[0, 0], [0, 0]], ["LaneFollow"])
        with pytest.raises(ValueError):
            sim.Route([[0, 0], [1, 0]], ["LaneFollow", "Left"])
        with pytest.raises(ValueError):
            sim.Route([[0, 0], [1, 0]], ["Teleport"])


class TestEgoProjection:
    """`World.ego_projection` is `route.project` of the ego's position,
    computed once per ego state."""

    @pytest.mark.parametrize("kind", sim.SCENARIO_KINDS)
    def test_equals_project_after_every_tick(self, kind):
        from drivelab import expert as xp
        cfg = xp.ExpertConfig()
        w = sim.reset(sim.ScenarioSpec(kind, 3))
        while True:
            assert w.ego_projection() == w.route.project(w.ego.x, w.ego.y)
            if w.done or w.tick >= 300:
                break
            sim.advance_world(w, xp.expert_command(w, cfg))

    def test_a_new_ego_or_coordinate_is_projected_again(self):
        w = sim.reset(sim.ScenarioSpec("EmergencyBrake", 0))
        start = w.ego_projection()
        w.ego = sim.EgoState(x=30.0, y=1.0, heading=0.1)
        assert w.ego_projection() == w.route.project(30.0, 1.0) != start
        w.ego.x = 40.0
        assert w.ego_projection() == w.route.project(40.0, 1.0)
        w.ego.y = -1.5
        assert w.ego_projection() == w.route.project(40.0, -1.5)
        w.ego = sim.EgoState(x=40.0, y=-1.5)
        assert w.ego_projection() == w.route.project(40.0, -1.5)


def scan_project(route, x, y):
    """Reference projection: the closest point over every segment, the
    first segment winning a tie (numpy's argmin)."""
    w = route.waypoints
    seg = np.diff(w, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    p = np.array([x, y])
    d = p - w[:-1]
    t = np.clip((d * seg).sum(axis=1) / (seg_len ** 2), 0.0, 1.0)
    closest = w[:-1] + t[:, None] * seg
    dist2 = ((p - closest) ** 2).sum(axis=1)
    i = int(np.argmin(dist2))
    s = np.concatenate([[0.0], np.cumsum(seg_len)])[i] + t[i] * seg_len[i]
    tangent = seg[i] / seg_len[i]
    off = p - closest[i]
    return float(s), float(tangent[0] * off[1] - tangent[1] * off[0])


def assert_same_bits(got, want):
    """Equal as float64 bit patterns; NaNs compare equal whatever their payload."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def assert_projects_like_scan(route, pts):
    want = [scan_project(route, x, y) for x, y in pts]
    assert_same_bits([route.project(x, y) for x, y in pts], want)
    s, lateral = route.project_many(np.array(pts, dtype=np.float64).reshape(-1, 2))
    assert_same_bits(np.stack([s, lateral], axis=1), want)


# Ten right-angle bends with exactly representable geometry: points on the
# bisector of a vertex are exactly as far from both of its segments.
STAIRS = sim.Route([[4.0 * ((i + 1) // 2), 4.0 * (i // 2)] for i in range(11)],
                   ["LaneFollow"] * 10)
# Out and back: the breakpoints along the chord do not rise, so every lookup
# takes the full scan.
U_TURN = sim.Route([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [23.0, 3.0], [20.0, 6.0],
                    [10.0, 6.0], [0.0, 6.0]], ["LaneFollow"] * 6)

coord = st.floats(-200.0, 200.0, allow_nan=False)
far = st.floats(-1e12, 1e12, allow_nan=False)
eighths = st.integers(-80, 80).map(lambda k: k / 8.0)


class TestProjectionExactness:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sim.SCENARIO_KINDS), st.integers(0, 19),
           st.lists(st.tuples(coord, coord), min_size=1, max_size=12),
           st.lists(st.tuples(far, far), max_size=3))
    def test_scenario_routes(self, kind, seed, near_pts, far_pts):
        route = sim.reset(sim.ScenarioSpec(kind, seed)).route
        # also every vertex and the midpoint of every segment
        w = route.waypoints
        pts = near_pts + far_pts + w.tolist() + ((w[:-1] + w[1:]) / 2.0).tolist()
        assert_projects_like_scan(route, pts)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), eighths, st.lists(st.tuples(coord, coord), max_size=4))
    def test_ties_on_the_vertex_bisector(self, k, a, others):
        # every bisector runs along (1, -1); one side is outside the bend
        x, y = STAIRS.waypoints[k]
        assert_projects_like_scan(STAIRS, [(x + a, y - a), (x - a, y + a)] + others)
        assert STAIRS.project(2.0, 2.0) == (2.0, 2.0)     # the lower index wins

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
    def test_u_turn_takes_the_full_scan(self, pts):
        assert_projects_like_scan(U_TURN, pts)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_points(self):
        route = sim.reset(sim.ScenarioSpec("Merging", 4)).route
        bad = [math.nan, math.inf, -math.inf]
        pts = [(b, 1.0) for b in bad] + [(1.0, b) for b in bad] + [(1e200, -1e200)]
        assert_projects_like_scan(route, pts)


def _polyline(headings_deg, length=20.0):
    pts = [[0.0, 0.0]]
    for h in np.radians(headings_deg):
        pts.append([pts[-1][0] + length * math.cos(h), pts[-1][1] + length * math.sin(h)])
    return sim.Route(pts, ["LaneFollow"] * len(headings_deg))


# Turns of 70, -80 and 70 degrees: sharp, but each under 90 degrees, so
# clear_of still certifies segments far enough away.
SHARP = _polyline([0.0, 70.0, -10.0, 60.0])


@st.composite
def segments_near(draw, route):
    """A segment from a point beside the route, or beside an end segment's
    line beyond it, mostly running along the route; or a short one from a
    point near a waypoint, running any way."""
    if draw(st.booleans()):
        s = draw(st.floats(-30.0, route.length + 30.0))
        offset = draw(st.floats(-25.0, 25.0))
        x, y, h = route.point_at(s)
        along = s - min(max(s, 0.0), route.length)
        x0 = x + along * math.cos(h) - offset * math.sin(h)
        y0 = y + along * math.sin(h) + offset * math.cos(h)
        h += draw(st.one_of(st.floats(-0.3, 0.3), st.floats(-math.pi, math.pi)))
        length = draw(st.floats(0.0, 120.0))
    else:
        x, y = draw(st.sampled_from(route.points))
        r, phi = draw(st.floats(0.0, 15.0)), draw(st.floats(-math.pi, math.pi))
        x0, y0 = x + r * math.cos(phi), y + r * math.sin(phi)
        h, length = draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.0, 10.0))
    return (x0, y0), (x0 + length * math.cos(h), y0 + length * math.sin(h))


def assert_clear_of_is_sound(route, p0, p1, half):
    """Where clear_of certifies p0-p1, 201 points along it, both endpoints
    included, all project farther than `half` from the route."""
    if route.clear_of(p0, p1, half):
        p0, p1 = np.array(p0), np.array(p1)
        u = np.linspace(0.0, 1.0, 201)[1:-1, None]
        _, lateral = route.project_many(np.vstack([p0, p0 + u * (p1 - p0), p1]))
        slack = float(np.abs(lateral).min()) - half
        target(-slack)      # steer the search toward the bound
        assert slack > 0.0


halves = st.floats(0.5, 4.0)
anywhere = st.tuples(st.tuples(coord, coord), st.tuples(coord, coord))


class TestClearOf:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sim.SCENARIO_KINDS), st.integers(0, 19), halves, st.data())
    def test_scenario_routes(self, kind, seed, half, data):
        route = sim.reset(sim.ScenarioSpec(kind, seed)).route
        p0, p1 = data.draw(st.one_of(segments_near(route), anywhere))
        assert_clear_of_is_sound(route, p0, p1, half)

    # A point about 5 m from the route, in the outer wedge of the 70-degree
    # vertex at (20, 0): its |lateral| is 2.1 m, so the bound would fail
    # here without cos(theta).
    @example(3.0, ((24.5, -2.1), (24.5, -2.1)))
    @settings(max_examples=500, deadline=None)
    @given(halves, segments_near(SHARP))
    def test_sharp_turns(self, half, segment):
        assert_clear_of_is_sound(SHARP, *segment, half)

    def test_what_it_must_not_certify(self):
        route = sim.reset(sim.ScenarioSpec("Overtaking", 0)).route
        (x, y), (dx, dy) = route.waypoints[-1], route.waypoints[-1] - route.waypoints[-2]
        # On the last segment's line beyond the route end, lateral is zero.
        beyond = [(x + k * dx, y + k * dy) for k in (2.0, 10.0)]
        assert abs(route.project(*beyond[1])[1]) < 1e-9
        assert not route.clear_of(*beyond, 2.95)
        # Across the route.
        x, y, h = route.point_at(50.0)
        n = np.array([-math.sin(h), math.cos(h)])
        assert not route.clear_of((x, y) + 30.0 * n, (x, y) - 30.0 * n, 2.95)
        # A route turning by 90 degrees is never clear, however far the segment.
        assert not U_TURN.clear_of((500.0, 500.0), (600.0, 500.0), 2.95)
        # The next lane of a straight road is.
        assert straight_route().clear_of((10.0, 3.5), (90.0, 3.5), 2.95)


def test_expert_episodes_never_take_the_full_scan(monkeypatch):
    """The local searches cover every lookup of an expert-driven episode of
    each scenario kind: a certificate that quietly degrades fails here."""
    from drivelab import expert as xp
    scans = []
    full_scan = sim.Route._full_scan

    def counted(route, p):
        scans.append(len(p))
        return full_scan(route, p)

    monkeypatch.setattr(sim.Route, "_full_scan", counted)
    cfg = xp.ExpertConfig()
    for kind in sim.SCENARIO_KINDS:
        w = sim.reset(sim.ScenarioSpec(kind, 0))
        while not w.done:
            sim.advance_world(w, xp.expert_act(w, cfg).command)
        assert w.termination == "completed", kind
    assert scans == []


def test_collect_demos_golden(tmp_path):
    """Expert demos on one 40 m episode per scenario kind, persisted, have a
    fixed sha256: the route lookups and the integrator must not move a bit.
    The sample lines alone hash to 469eee7c1c8b8ac3 (sha256[:16])."""
    import hashlib
    from drivelab import dataset as ds, expert as xp, policy
    from drivelab.vocab import ControlVocabulary
    suite = [sim.ScenarioSpec(kind, 0, route_length=40.0) for kind in sim.SCENARIO_KINDS]
    demo = ds.collect_demos(suite, xp.ExpertConfig(), policy.PolicyConfig(),
                            ControlVocabulary())
    ds.persist(demo, tmp_path / "demos.jsonl")
    digest = hashlib.sha256((tmp_path / "demos.jsonl").read_bytes()).hexdigest()
    assert digest == "23bc908456bd70ee835c0ce60254681bc2c1f2c6db39536a02d30427a2de773e"


class TestPenalties:
    def test_declared_factors(self):
        assert sim.PENALTY["collision_vehicle"] == 0.60
        assert sim.PENALTY["collision_pedestrian"] == 0.50
        assert sim.PENALTY["collision_static"] == 0.65
        assert sim.PENALTY["stop_sign_violation"] == 0.80
        assert sim.PENALTY["off_road"] == 0.85

    def test_terminal_kinds(self):
        assert set(sim.TERMINAL_INFRACTIONS) == {"route_deviation", "timeout", "blocked"}


def drive_straight(w, throttle=0.6, steer=0.0, max_ticks=3000):
    cmd = sim.ControlCommand(throttle=throttle, steer=steer)
    while not w.done and w.tick < max_ticks:
        sim.advance_world(w, cmd)
    return w


def track_route(w, throttle=0.5, brake_before=None, max_ticks=3000):
    """Crude route tracker for episode-logic tests: pure pursuit steering,
    optional full brake while approaching an arc position."""
    from drivelab.expert import pure_pursuit_steer
    while not w.done and w.tick < max_ticks:
        s, _ = w.route.project(w.ego.x, w.ego.y)
        steer = pure_pursuit_steer(w.route, w.ego.state, w.ego.wheelbase, 6.0, s)
        stopping_dist = w.ego.speed ** 2 / (2.0 * sim.B_MAX)
        if brake_before is not None and not w.stop_line_served \
                and stopping_dist >= (brake_before - s) - 1.0:
            cmd = sim.ControlCommand(brake=1.0, steer=steer)
        else:
            cmd = sim.ControlCommand(throttle=throttle, steer=steer)
        sim.advance_world(w, cmd)
    return w


class TestEpisodeLogic:
    def test_completion_on_empty_route(self):
        spec = sim.ScenarioSpec("StopSign", 0)
        w = sim.reset(spec)
        w.route.stop_line_s = None    # plain empty road
        track_route(w)
        assert w.termination == "completed"
        assert w.progress >= w.route.length - 0.5
        assert logged(w) == []

    def test_timeout_when_stationary(self):
        spec = sim.ScenarioSpec("StopSign", 0, route_length=30.0)
        w = sim.reset(spec)
        while not w.done:
            sim.advance_world(w, sim.ControlCommand())
        # blocked triggers at 90 s > budget 45 s, so the timeout lands first
        assert w.termination == "timeout"
        assert w.time > w.route.time_budget

    def test_done_is_read_off_termination(self):
        w = sim.reset(sim.ScenarioSpec("StopSign", 0))
        assert not w.done
        w.termination = "completed"
        assert w.done
        with pytest.raises(AttributeError):
            w.done = False

    def test_route_deviation_terminal(self):
        spec = sim.ScenarioSpec("StopSign", 1)
        w = sim.reset(spec)
        drive_straight(w, throttle=0.8, steer=0.6)
        assert w.termination == "route_deviation"
        kinds = logged(w)
        assert "off_road" in kinds    # crossed the shoulder on the way out

    def test_off_road_debounced(self):
        spec = sim.ScenarioSpec("StopSign", 2)
        w = sim.reset(spec)
        w.route.stop_line_s = None
        # weave: hug +3 m offset then come back; one off_road event per excursion
        for tick in range(1200):
            if w.done:
                break
            _, lat = w.route.project(w.ego.x, w.ego.y)
            steer = 0.25 if (tick // 200) % 2 == 0 else -0.25
            sim.advance_world(w, sim.ControlCommand(throttle=0.5, steer=steer))
        kinds = logged(w)
        excursions = kinds.count("off_road")
        assert excursions >= 1
        # each excursion logged once, not once per tick spent outside
        assert excursions < 5

    def test_stop_sign_served_then_scored_clean(self):
        spec = sim.ScenarioSpec("StopSign", 0)
        w = sim.reset(spec)
        track_route(w, brake_before=w.route.stop_line_s)
        assert w.stop_line_served
        assert w.termination == "completed"
        assert logged(w) == []

    def test_stop_sign_violation_when_running_it(self):
        spec = sim.ScenarioSpec("StopSign", 0)
        w = sim.reset(spec)
        drive_straight(w)
        kinds = logged(w)
        assert kinds.count("stop_sign_violation") == 1

    def test_reset_deterministic(self):
        for kind in sim.SCENARIO_KINDS:
            a = sim.reset(sim.ScenarioSpec(kind, 7))
            b = sim.reset(sim.ScenarioSpec(kind, 7))
            assert np.array_equal(a.route.waypoints, b.route.waypoints)
            for x, y in zip(a.actors, b.actors):
                assert (x.x, x.y, x.heading, x.speed) == (y.x, y.y, y.heading, y.speed)

    def test_parked_car_never_moves(self):
        """Overtaking's parked car has no script: through an expert-driven
        episode it keeps its reset pose and speed 0.0 on every tick."""
        from drivelab import expert as xp
        w = sim.reset(sim.ScenarioSpec("Overtaking", 0))
        [car] = w.actors
        assert car.script is None
        parked = (car.x, car.y, car.heading, 0.0)
        assert car.speed == 0.0
        cfg = xp.ExpertConfig()
        while not w.done:
            sim.advance_world(w, xp.expert_command(w, cfg))
        assert w.termination == "completed"
        assert len(w.trace) == w.tick
        assert all(frame.actors == [parked] for frame in w.trace)

    def test_scenarios_have_expected_cast(self):
        kinds = {k: [a.kind for a in sim.reset(sim.ScenarioSpec(k, 0)).actors]
                 for k in sim.SCENARIO_KINDS}
        assert kinds["EmergencyBrake"] == ["vehicle"]
        assert kinds["Overtaking"] == ["static"]
        assert kinds["GiveWay"] == ["pedestrian"]
        assert kinds["Merging"] == ["vehicle"]
        assert kinds["StopSign"] == []

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            sim.ScenarioSpec("Flying", 0)
        with pytest.raises(ValueError):
            sim.ScenarioSpec("StopSign", 0, route_length=10.0)
        with pytest.raises(ValueError):
            sim.ScenarioSpec("StopSign", 0, speed_limit=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_spec_rejects_non_finite_values(self, value):
        with pytest.raises(ValueError, match=f"route_length {value} must be finite and > 20 m"):
            sim.ScenarioSpec("StopSign", 0, route_length=value)
        with pytest.raises(ValueError, match=f"speed_limit {value} must be finite and positive"):
            sim.ScenarioSpec("StopSign", 0, speed_limit=value)
