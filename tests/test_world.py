import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivelab import world as sim


def straight_route(length=120.0, spacing=3.0, **kw):
    n = int(length / spacing) + 1
    pts = np.stack([np.arange(n) * spacing, np.zeros(n)], axis=1)
    return sim.Route(pts, ["LaneFollow"] * (n - 1), **kw)


class TestKinematics:
    def test_straight_full_throttle_accelerates(self):
        ego = sim.EgoState()
        cmd = sim.ControlCommand(throttle=1.0)
        for _ in range(20):
            ego = sim.step_kinematics(ego, cmd)
        # ~A_MAX * t minus a little drag
        assert 2.8 < ego.speed <= 3.0
        assert ego.y == pytest.approx(0.0)

    def test_drag_free_matches_analytic(self):
        ego = sim.EgoState(speed=0.0)
        cmd = sim.ControlCommand(throttle=1.0)
        for _ in range(40):
            ego = sim.step_kinematics(ego, cmd, c_drag=0.0)
        t = 40 * sim.DT
        assert ego.speed == pytest.approx(sim.A_MAX * t, abs=1e-9)
        assert ego.x == pytest.approx(0.5 * sim.A_MAX * t * t, abs=1e-6)

    def test_brake_dominates_throttle(self):
        ego = sim.EgoState(speed=8.0)
        cmd = sim.ControlCommand(throttle=1.0, brake=1.0)
        nxt = sim.step_kinematics(ego, cmd)
        assert nxt.speed == pytest.approx(8.0 - sim.B_MAX * sim.DT, rel=1e-3)

    def test_speed_never_negative(self):
        ego = sim.EgoState(speed=0.1)
        cmd = sim.ControlCommand(brake=1.0)
        for _ in range(10):
            ego = sim.step_kinematics(ego, cmd)
        assert ego.speed == 0.0

    def test_steady_turn_matches_bicycle_yaw_rate(self):
        ego = sim.EgoState(speed=5.0)
        cmd = sim.ControlCommand(steer=0.5)
        nxt = sim.step_kinematics(ego, cmd, c_drag=0.0)
        # v slightly constant; yaw rate = v/L tan(delta_max * steer)
        expect = 5.0 / ego.wheelbase * math.tan(sim.DELTA_MAX * 0.5) * sim.DT
        assert nxt.heading == pytest.approx(expect, rel=1e-3)

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


class TestCollision:
    def test_separated(self):
        assert not sim.rects_collide(0, 0, 0, 4, 2, 10, 0, 0, 4, 2)

    def test_overlapping(self):
        assert sim.rects_collide(0, 0, 0, 4, 2, 3, 0, 0, 4, 2)

    def test_rotated_near_miss(self):
        # lateral neighbor that only hits once rotated across our lane
        assert not sim.rects_collide(0, 0, 0, 4, 2, 2.5, 2.2, 0.0, 4, 2)
        assert sim.rects_collide(0, 0, 0, 4, 2, 2.5, 2.2, math.pi / 2, 4, 2)

    def test_debounce_one_event_per_contact(self):
        route = straight_route()
        ego = sim.EgoState(x=0.0)
        actor = sim.ActorState(3.0, 0.0, 0.0, 0.0, 4.5, 1.9, "vehicle", None, 1)
        w = sim.World(sim.ScenarioSpec("EmergencyBrake", 0), route, ego, [actor])
        ev1 = sim.detect_collisions(w)
        ev2 = sim.detect_collisions(w)
        assert len(ev1) == 1 and ev1[0].kind == "collision_vehicle"
        assert ev2 == []
        # separation then re-contact logs a second event
        w.ego = sim.EgoState(x=-20.0)
        sim.detect_collisions(w)
        w.ego = sim.EgoState(x=0.0)
        assert len(sim.detect_collisions(w)) == 1


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
    fixed sha256: the route lookups and the integrator must not move a bit."""
    import hashlib
    from drivelab import dataset as ds, expert as xp, policy
    from drivelab.vocab import ControlVocabulary
    suite = [sim.ScenarioSpec(kind, 0, route_length=40.0) for kind in sim.SCENARIO_KINDS]
    demo = ds.collect_demos(suite, xp.ExpertConfig(), policy.PolicyConfig(),
                            ControlVocabulary())
    ds.persist(demo, tmp_path / "demos.jsonl")
    digest = hashlib.sha256((tmp_path / "demos.jsonl").read_bytes()).hexdigest()
    assert digest == "e0e9e558d3f85c72654b072403500b8c273c5f8fa10919c556fa8e8ee1d948f5"


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
        steer = pure_pursuit_steer(w.route, w.ego, 6.0, s)
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
        assert [e.kind for e in w.infractions] == []

    def test_timeout_when_stationary(self):
        spec = sim.ScenarioSpec("StopSign", 0, route_length=30.0)
        w = sim.reset(spec)
        while not w.done:
            sim.advance_world(w, sim.ControlCommand())
        # blocked triggers at 90 s > budget 45 s, so the timeout lands first
        assert w.termination == "timeout"
        assert w.time > w.route.time_budget

    def test_route_deviation_terminal(self):
        spec = sim.ScenarioSpec("StopSign", 1)
        w = sim.reset(spec)
        drive_straight(w, throttle=0.8, steer=0.6)
        assert w.termination == "route_deviation"
        kinds = [e.kind for e in w.infractions]
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
        kinds = [e.kind for e in w.infractions]
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
        assert [e.kind for e in w.infractions] == []

    def test_stop_sign_violation_when_running_it(self):
        spec = sim.ScenarioSpec("StopSign", 0)
        w = sim.reset(spec)
        drive_straight(w)
        kinds = [e.kind for e in w.infractions]
        assert kinds.count("stop_sign_violation") == 1

    def test_reset_deterministic(self):
        for kind in sim.SCENARIO_KINDS:
            a = sim.reset(sim.ScenarioSpec(kind, 7))
            b = sim.reset(sim.ScenarioSpec(kind, 7))
            assert np.array_equal(a.route.waypoints, b.route.waypoints)
            for x, y in zip(a.actors, b.actors):
                assert (x.x, x.y, x.heading, x.speed) == (y.x, y.y, y.heading, y.speed)

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


def test_trace_export_round_trips():
    spec = sim.ScenarioSpec("EmergencyBrake", 0)
    w = sim.reset(spec)
    for _ in range(50):
        sim.advance_world(w, sim.ControlCommand(throttle=0.4))
    buf = io.StringIO()
    sim.export_trace(w, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 50
    rec = json.loads(lines[-1])
    assert rec["t"] == pytest.approx(50 * sim.DT, abs=1e-3)
    assert len(rec["ego"]) == 4 and len(rec["actors"]) == 1
