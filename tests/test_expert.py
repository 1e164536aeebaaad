import dataclasses
import math
import random
import re

import numpy as np
import pytest

from drivelab import expert as xp
from drivelab import world as sim
from drivelab.vocab import ControlVocabulary


CFG = xp.ExpertConfig()


class TestIdm:
    def test_free_accel_at_desired_speed_is_zero(self):
        assert xp.idm_free_accel(8.0, 8.0, CFG) == pytest.approx(0.0)

    def test_free_accel_from_standstill_is_max(self):
        assert xp.idm_free_accel(0.0, 8.0, CFG) == pytest.approx(CFG.max_accel)

    def test_following_matches_closed_form(self):
        v, v0, gap, v_lead = 6.0, 8.0, 15.0, 4.0
        s_star = CFG.min_gap + v * CFG.time_headway + \
            v * (v - v_lead) / (2 * math.sqrt(CFG.max_accel * CFG.comfort_decel))
        expect = CFG.max_accel * (1 - (v / v0) ** 4 - (s_star / gap) ** 2)
        assert xp.idm_accel(v, v0, gap, v_lead, CFG) == pytest.approx(expect)

    def test_tiny_gap_forces_hard_braking(self):
        assert xp.idm_accel(6.0, 8.0, 0.05, 0.0, CFG) < -sim.B_MAX

    def test_config_validation(self):
        with pytest.raises(ValueError):
            xp.ExpertConfig(time_headway=0.0)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(xp.ExpertConfig)])
    def test_config_rejects_negative_and_non_finite(self, field, value):
        # min(1.0, nan) is 1.0: a nan headway would brake fully at every step
        with pytest.raises(ValueError, match=f"ExpertConfig.{field} must be positive and finite"):
            xp.ExpertConfig(**{field: value})

    @pytest.mark.parametrize("field", ["forecast_horizon", "yield_horizon"])
    def test_config_rejects_a_horizon_shorter_than_a_tick(self, field):
        with pytest.raises(ValueError, match=re.escape(
                f"ExpertConfig.{field} must be at least one tick (0.05 s), got 0.04")):
            xp.ExpertConfig(**{field: 0.04})
        xp.ExpertConfig(**{field: sim.DT})

    @pytest.mark.parametrize("horizon, ticks", [(0.05, 1), (0.15, 3), (0.3, 6), (2.0, 40),
                                                (4.0, 80)])
    def test_a_horizon_counts_its_ticks_rounded(self, horizon, ticks):
        # 0.3 / 0.05 is 5.999999999999999: truncating would count 5 ticks
        assert sim.ticks_in(horizon) == ticks
        assert xp._yield_times(horizon).tolist() == [i * sim.DT for i in range(1, ticks + 1)]


class TestPurePursuit:
    def test_straight_route_zero_steer(self):
        route = sim.Route(np.array([[0.0, 0.0], [50.0, 0.0]]), ["LaneFollow"])
        ego = sim.EgoState(x=5.0, y=0.0, heading=0.0, speed=5.0)
        assert xp.pure_pursuit_steer(route, ego.state, ego.wheelbase, 6.0, 5.0) == pytest.approx(0.0, abs=1e-9)

    def test_lateral_offset_steers_back(self):
        route = sim.Route(np.array([[0.0, 0.0], [50.0, 0.0]]), ["LaneFollow"])
        ego = sim.EgoState(x=5.0, y=2.0, heading=0.0, speed=5.0)
        assert xp.pure_pursuit_steer(route, ego.state, ego.wheelbase, 6.0, 5.0) < -0.05

    def test_matches_curvature_formula(self):
        route = sim.Route(np.array([[0.0, 0.0], [50.0, 0.0]]), ["LaneFollow"])
        ego = sim.EgoState(x=0.0, y=-1.0, heading=0.0, speed=5.0)
        tx, ty = route.point_at(0.0 + 6.0)[0], 0.0
        alpha = math.atan2(ty - ego.y, tx - ego.x)
        ld = math.hypot(tx - ego.x, ty - ego.y)
        expect = math.atan(ego.wheelbase * 2 * math.sin(alpha) / ld) / sim.DELTA_MAX
        assert xp.pure_pursuit_steer(route, ego.state, ego.wheelbase, 6.0, 0.0) == pytest.approx(expect, abs=1e-9)


class TestAccelToCommand:
    # accel_to_command returns (throttle, brake, steer)
    def test_drag_feedforward_holds_speed(self):
        # throttle that exactly cancels drag at 8 m/s
        throttle, brake, _ = xp.accel_to_command(0.0, 8.0, 0.0)
        assert throttle == pytest.approx(sim.C_DRAG * 64.0 / sim.A_MAX)
        assert brake == 0.0

    def test_negative_accel_maps_to_brake(self):
        throttle, brake, _ = xp.accel_to_command(-4.0, 8.0, 0.1)
        assert throttle == 0.0
        assert brake == pytest.approx(0.5)

    def test_saturation(self):
        assert xp.accel_to_command(99.0, 0.0, 0.0)[0] == 1.0
        assert xp.accel_to_command(-99.0, 8.0, 0.0)[1] == 1.0


class TestForecast:
    def test_head_on_detected(self):
        route = sim.Route(np.array([[0.0, 0.0], [100.0, 0.0]]), ["LaneFollow"])
        ego = sim.EgoState(x=0.0, speed=8.0)
        actor = sim.ActorState(12.0, 0.0, 0.0, 0.0, 4.5, 1.9, "vehicle", None, 1)
        w = sim.World(sim.ScenarioSpec("EmergencyBrake", 0), route, ego, [actor])
        t = xp.forecast_collision(w, 2.0)
        assert t is not None
        # gap between bumpers is 12 - 4.5 = 7.5 m at 8 m/s -> just under 1 s
        assert 0.8 < t < 1.1
        # the horizon counts whole ticks: the contact's own instant is its last
        assert xp.forecast_collision(w, t) == t
        assert xp.forecast_collision(w, t - sim.DT) is None

    def test_clear_road_none(self):
        route = sim.Route(np.array([[0.0, 0.0], [100.0, 0.0]]), ["LaneFollow"])
        ego = sim.EgoState(x=0.0, speed=8.0)
        w = sim.World(sim.ScenarioSpec("EmergencyBrake", 0), route, ego, [])
        assert xp.forecast_collision(w, 2.0) is None

    def test_parallel_traffic_not_flagged(self):
        route = sim.Route(np.array([[0.0, 0.0], [100.0, 0.0]]), ["LaneFollow"])
        ego = sim.EgoState(x=0.0, speed=8.0)
        actor = sim.ActorState(5.0, 6.0, 0.0, 8.0, 4.5, 1.9, "vehicle", None, 1)
        w = sim.World(sim.ScenarioSpec("EmergencyBrake", 0), route, ego, [actor])
        assert xp.forecast_collision(w, 2.0) is None


class TestLabels:
    def test_label_shapes_and_discretization(self):
        w = sim.reset(sim.ScenarioSpec("EmergencyBrake", 0))
        label = xp.expert_act(w, CFG)
        assert label.waypoints.shape == (6, 2)
        throttle_idx, brake_idx, steer_idx = ControlVocabulary().discretize(label.command)
        assert 0 <= throttle_idx < 5
        assert 0 <= brake_idx < 2
        assert 0 <= steer_idx < 9

    def test_rollout_starts_at_origin_and_moves_forward(self):
        w = sim.reset(sim.ScenarioSpec("StopSign", 0))
        w.ego.speed = 5.0
        label = xp.expert_act(w, CFG)
        # ego-frame forward coordinates grow along the horizon
        assert np.all(np.diff(label.waypoints[:, 0]) > 0)
        assert abs(label.waypoints[0, 1]) < 1.0

    def test_command_matches_first_frame_of_rollout(self):
        w = sim.reset(sim.ScenarioSpec("Merging", 3))
        a = xp.expert_command(w, CFG)
        b = xp.expert_act(w, CFG).command
        assert (a.throttle, a.brake, a.steer) == (b.throttle, b.brake, b.steer)


class TestClosedLoopExpert:
    @pytest.mark.parametrize("kind", sim.SCENARIO_KINDS)
    def test_expert_completes_every_kind(self, kind):
        w = sim.reset(sim.ScenarioSpec(kind, 0))
        while not w.done and w.tick < 4000:
            sim.advance_world(w, xp.expert_command(w, CFG))
        assert w.termination == "completed"
        kinds = [k for f in w.trace for k in f.infractions]
        assert not any(k.startswith("collision") for k in kinds)


class TestStateStaysFloat:
    """World and rollout state are Python floats from `reset` on; numpy is
    for arrays. A numpy scalar, once in, would be carried through every
    tick and every rollout step."""

    @staticmethod
    def assert_floats(w):
        for body in [w.ego, *w.actors]:
            for value in (body.x, body.y, body.heading, body.speed):
                assert type(value) is float, (w.tick, body, type(value))

    @pytest.mark.parametrize("kind", sim.SCENARIO_KINDS)
    def test_world_and_rollout(self, kind, monkeypatch):
        """The world's bodies after `reset` and after 50 expert ticks, and
        every rollout's state, control and IDM inputs over the episode."""
        values = []
        step_kinematics, idm_accel = sim.step_kinematics, xp.idm_accel

        def recorded_step(state, control, wheelbase, dt=sim.DT):
            out = step_kinematics(state, control, wheelbase, dt=dt)
            values.extend((*state, *control, *out))
            return out

        def recorded_idm(v, v0, gap, v_lead, cfg):
            out = idm_accel(v, v0, gap, v_lead, cfg)
            values.extend((v, v0, gap, v_lead, out))
            return out

        monkeypatch.setattr(sim, "step_kinematics", recorded_step)
        monkeypatch.setattr(xp, "idm_accel", recorded_idm)
        w = sim.reset(sim.ScenarioSpec(kind, 1))
        self.assert_floats(w)
        while not w.done:
            values.clear()
            label = xp.expert_act(w, CFG)
            values += [label.command.throttle, label.command.brake, label.command.steer]
            assert {type(v) for v in values} == {float}, w.tick
            sim.advance_world(w, label.command)
            if w.tick == 50:
                self.assert_floats(w)
        assert w.tick > 50 and w.termination == "completed"


# -- the per-step rollout the forecast table replaced -------------------------
#
# Written out as it ran before the table: every rollout step moves the actors
# and projects each forecast actor's corridor-entry points with its own
# project_many call, the command is a separate control step on the frame's
# own actors, and the integrator evaluates its stages through a closure.

def reference_step_kinematics(ego, cmd, dt):
    throttle = 0.0 if cmd.brake > 0.0 else cmd.throttle
    tan_delta = math.tan(sim.DELTA_MAX * cmd.steer)
    L = ego.wheelbase
    accel = sim.A_MAX * throttle - sim.B_MAX * cmd.brake

    def deriv(psi, v):
        v = max(v, 0.0)
        return v * math.cos(psi), v * math.sin(psi), v / L * tan_delta, \
            accel - sim.C_DRAG * v * v

    half = 0.5 * dt
    k1 = deriv(ego.heading, ego.speed)
    k2 = deriv(ego.heading + half * k1[2], ego.speed + half * k1[3])
    k3 = deriv(ego.heading + half * k2[2], ego.speed + half * k2[3])
    k4 = deriv(ego.heading + dt * k3[2], ego.speed + dt * k3[3])
    w = dt / 6.0
    return sim.EgoState(
        x=ego.x + w * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        y=ego.y + w * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        heading=sim.wrap_angle(ego.heading + w * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])),
        speed=max(ego.speed + w * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]), 0.0),
        wheelbase=ego.wheelbase, length=ego.length, width=ego.width)


class TestKinematicsMatchesReference:
    """`step_kinematics` clamps the speed with comparisons; the reference
    clamps with max(). The two agree bit for bit."""

    def test_random_inputs(self):
        rng = random.Random(33)
        specials = [0.0, -0.0, -1e-12, -0.3, -25.0, math.nan]
        for i in range(100_000):
            speed = rng.choice(specials) if i % 4 == 0 else rng.uniform(-2.0, 30.0)
            brake = rng.uniform(0.0, 1.0) if i % 3 == 0 else (0.0 if i % 3 == 1 else 1.0)
            ego = sim.EgoState(x=rng.uniform(-500.0, 500.0), y=rng.uniform(-500.0, 500.0),
                               heading=rng.uniform(-4.0 * math.pi, 4.0 * math.pi), speed=speed,
                               wheelbase=rng.uniform(1.5, 4.0))
            throttle = 0.0 if i % 7 == 0 else rng.uniform(0.0, 1.0)
            cmd = sim.ControlCommand(throttle, brake, rng.uniform(-1.0, 1.0))
            dt = (sim.DT, xp.ROLLOUT_DT)[i % 2]
            got = sim.step_kinematics(ego.state, (cmd.throttle, cmd.brake, cmd.steer),
                                      ego.wheelbase, dt=dt)
            want = reference_step_kinematics(ego, cmd, dt).state
            assert [v.hex() for v in got] == [v.hex() for v in want], (ego, cmd, dt)


def reference_leading_obstacle(route, ego, ego_s, actor_snaps, stop_served, cfg):
    best = None

    def consider(gap, v_lead):
        nonlocal best
        if gap > -3.0 and (best is None or gap < best[0]):
            best = (max(gap, 0.05), v_lead)

    for (x, y, heading, speed, length, width) in actor_snaps:
        half = sim.LANE_HALF_WIDTH + width / 2.0
        s_a, lat_a = route.project(x, y)
        if s_a >= route.length - 0.1:
            continue
        v_along = max(0.0, speed * math.cos(heading - route.point_at(s_a)[2]))
        if abs(lat_a) <= half and s_a > ego_s:
            consider(s_a - ego_s - (ego.length + length) / 2.0, v_along)
            continue
        if speed < 1e-3 or s_a - ego_s > 80.0 or s_a - ego_s < -10.0:
            continue
        times = np.arange(1, int(round(cfg.yield_horizon / sim.DT)) + 1) * sim.DT
        fut = np.stack([x + speed * math.cos(heading) * times,
                        y + speed * math.sin(heading) * times], axis=1)
        s_f, lat_f = route.project_many(fut)
        hits = np.flatnonzero((np.abs(lat_f) <= half) & (s_f > ego_s))
        if len(hits):
            consider(s_f[hits[0]] - ego_s - (ego.length + length) / 2.0, v_along)

    stop_line_s = route.stop_line_s
    if stop_line_s is not None and not stop_served and stop_line_s > ego_s - 2.0:
        consider(stop_line_s - ego_s + 1.0, 0.0)
    return best


def reference_control(route, ego, actor_snaps, stop_served, cfg):
    ego_s, _ = route.project(ego.x, ego.y)
    v0 = min(cfg.desired_speed, route.speed_limit)
    lead = reference_leading_obstacle(route, ego, ego_s, actor_snaps, stop_served, cfg)
    accel = xp.idm_free_accel(ego.speed, v0, cfg) if lead is None else \
        xp.idm_accel(ego.speed, v0, lead[0], lead[1], cfg)
    steer = xp.pure_pursuit_steer(route, ego.state, ego.wheelbase, cfg.lookahead, ego_s)
    return sim.ControlCommand(*xp.accel_to_command(accel, ego.speed, steer))


def reference_act(w, cfg):
    """(waypoints, command, stop line served at the rollout's end)."""
    route = w.route
    snaps = [(a.x, a.y, a.heading, a.speed, a.length, a.width) for a in w.actors]
    cmd = reference_control(route, w.ego, snaps, w.stop_line_served, cfg)
    virt = w.ego
    cos_h, sin_h = math.cos(w.ego.heading), math.sin(w.ego.heading)
    waypoints = np.zeros((6, 2))
    served = w.stop_line_served
    velocities = [(v * math.cos(h), v * math.sin(h)) for (_, _, h, v, _, _) in snaps]
    for i in range(6):
        for j in range(5):
            t = (i * 5 + j) * 0.1
            moved = [(x + vx * t, y + vy * t, h, v, ln, wd)
                     for (x, y, h, v, ln, wd), (vx, vy) in zip(snaps, velocities)]
            vcmd = reference_control(route, virt, moved, served, cfg)
            virt = reference_step_kinematics(virt, vcmd, 0.1)
            if (route.stop_line_s is not None and not served and virt.speed < 0.1
                    and abs(route.project(virt.x, virt.y)[0] - route.stop_line_s) < 2.0):
                served = True
        dx, dy = virt.x - w.ego.x, virt.y - w.ego.y
        waypoints[i] = (cos_h * dx + sin_h * dy, -sin_h * dx + cos_h * dy)
    return waypoints, cmd, served


def command_bits(cmd):
    return np.array([cmd.throttle, cmd.brake, cmd.steer]).tobytes()


class ProjectionCounter:
    """Counts Route.project_many calls (`tables`: the expert makes one per
    forecast table) and the points they send to Route._full_scan
    (`scanned`)."""

    def __init__(self, monkeypatch):
        self.tables = self.scanned = 0
        many, full_scan = sim.Route.project_many, sim.Route._full_scan

        def counted_many(route, points):
            self.tables += 1
            return many(route, points)

        def counted_scan(route, p):
            self.scanned += len(p)
            return full_scan(route, p)

        monkeypatch.setattr(sim.Route, "project_many", counted_many)
        monkeypatch.setattr(sim.Route, "_full_scan", counted_scan)


# 15 straight 10 m segments from x = -30 to x = 120
STRAIGHT = [[-30.0 + 10.0 * i, 0.0] for i in range(16)]


def world_on(waypoints, actors, ego):
    route = sim.Route(np.array(waypoints), ["LaneFollow"] * (len(waypoints) - 1))
    return sim.World(sim.ScenarioSpec("EmergencyBrake", 0), route, ego, actors)


def actor(x, y, heading, speed, kind="vehicle", length=4.5, width=1.9, ident=1):
    return sim.ActorState(x, y, heading, speed, length, width, kind, None, ident)


class TestPlanMatchesReference:
    def assert_plan_matches(self, w, label=None):
        """expert_act's plan and command, and expert_command, equal the
        reference bit for bit; returns the reference's served flag."""
        label = label or xp.expert_act(w, CFG)
        waypoints, cmd, served = reference_act(w, CFG)
        assert label.waypoints.tobytes() == waypoints.tobytes()
        assert command_bits(label.command) == command_bits(cmd)
        assert command_bits(xp.expert_command(w, CFG)) == command_bits(cmd)
        return served

    @pytest.mark.parametrize("kind", sim.SCENARIO_KINDS)
    def test_whole_episodes(self, kind, monkeypatch):
        counter = ProjectionCounter(monkeypatch)
        tables = 0      # the expert's; the reference projects through project_many too
        for seed in range(4):
            w = sim.reset(sim.ScenarioSpec(kind, seed))
            while not w.done:
                before = counter.tables
                label = xp.expert_act(w, CFG)
                assert counter.tables - before <= len(w.actors)   # one table per actor
                tables += counter.tables - before
                self.assert_plan_matches(w, label)
                sim.advance_world(w, label.command)
            assert w.termination == "completed", (kind, seed)
        # The walker's crossing and the merging car are forecast; the other
        # kinds' actors are parked, already in the lane, or absent.
        assert (tables > 0) == (kind in ("GiveWay", "Merging"))

    def test_rows_the_window_cannot_certify(self, monkeypatch):
        # Far off the road, a forecast point's window is narrower than its
        # distance to the route: the table's early points take the full scan.
        w = world_on(STRAIGHT, [actor(60.0, 50.0, -math.pi / 2, 10.0)],
                     sim.EgoState(x=0.0, y=0.0, speed=8.0))
        counter = ProjectionCounter(monkeypatch)
        xp.expert_act(w, CFG)
        assert counter.tables == 1 and counter.scanned > 0
        self.assert_plan_matches(w)

    def test_an_actor_the_route_is_clear_of(self, monkeypatch):
        # A car in the next lane, moving parallel: its forecast points stay
        # 3.5 m off the lane centre, so Route.clear_of certifies the actor
        # and no table is made for it.
        w = world_on(STRAIGHT, [actor(10.0, 3.5, 0.0, 6.0)],
                     sim.EgoState(x=0.0, y=0.0, speed=8.0))
        counter = ProjectionCounter(monkeypatch)
        xp.expert_act(w, CFG)
        assert counter.tables == 0 and counter.scanned == 0
        self.assert_plan_matches(w)

    def test_u_turn_route_has_no_window(self, monkeypatch):
        pts = [[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [23.0, 3.0], [20.0, 6.0],
               [10.0, 6.0], [0.0, 6.0]]
        w = world_on(pts, [actor(12.0, -4.0, math.pi / 2, 1.5, "pedestrian", 0.6, 0.6)],
                     sim.EgoState(x=0.0, y=0.0, speed=5.0))
        counter = ProjectionCounter(monkeypatch)
        xp.expert_act(w, CFG)
        # the route's breakpoints do not rise: every point takes the full scan
        assert counter.tables == 1 and counter.scanned > 0
        self.assert_plan_matches(w)

    def test_stop_sign_before_the_line_is_served(self):
        w = sim.reset(sim.ScenarioSpec("StopSign", 0))
        x, y, h = w.route.point_at(w.route.stop_line_s - 2.5)
        w.ego = sim.EgoState(x=x, y=y, heading=h, speed=1.5)
        assert not w.stop_line_served
        # the rollout stops at the line and latches it
        assert self.assert_plan_matches(w)

    def test_a_standing_actor_is_projected_once(self, monkeypatch):
        # Velocity (+-0, +-0) gives an actor the same position at every
        # step, so each forecast projects it once; a moving actor, however
        # slow, is projected at every step. The car parked at heading pi has
        # vx = -0.0.
        actors = [actor(60.0, 0.0, 0.0, 0.0, "static", ident=1),
                  actor(30.0, 4.0, math.pi, 0.0, ident=2),
                  actor(10.0, 3.5, 0.0, 6.0, ident=3),
                  actor(40.0, -6.0, 0.0, 1e-4, ident=4)]
        w = world_on(STRAIGHT, actors, sim.EgoState(x=0.0, y=0.0, speed=8.0))
        assert w.actors[1].speed * math.cos(w.actors[1].heading) == 0.0
        points = []
        project = sim.Route.project

        def counted(route, x, y):
            points.append((x, y))
            return project(route, x, y)

        monkeypatch.setattr(sim.Route, "project", counted)
        label = xp.expert_act(w, CFG)
        assert points.count((60.0, 0.0)) == 1
        assert points.count((30.0, 4.0)) == 1
        assert sum(y == 3.5 for _, y in points) == 30
        assert sum(y == -6.0 for _, y in points) == 30
        monkeypatch.undo()
        self.assert_plan_matches(w, label)

    def test_a_later_step_out_of_range_raises(self, monkeypatch):
        # Only step 0's control becomes a ControlCommand; every later step's
        # (throttle, brake, steer) passes the same range rule.
        steer_toward, calls = sim.steer_toward, []

        def steer(*args):
            calls.append(args)
            return steer_toward(*args) if len(calls) == 1 else 1.5

        monkeypatch.setattr(sim, "steer_toward", steer)
        w = sim.reset(sim.ScenarioSpec("EmergencyBrake", 0))
        with pytest.raises(ValueError, match=re.escape("steer 1.5 outside [-1, 1]")):
            xp.expert_act(w, CFG)
        assert len(calls) == 2

    def test_actor_at_negative_zero(self):
        # At step 0 an actor moves by v t = +-0.0, so x = -0.0 may become
        # 0.0; the command must not notice.
        actors = [actor(-0.0, 6.0, -math.pi / 2, 2.0, "pedestrian", 0.6, 0.6, 1),
                  actor(-0.0, -0.0, 0.0, 0.0, "static", ident=2),
                  actor(-0.0, -5.0, math.pi, 1.0, ident=3)]
        w = world_on(STRAIGHT, actors, sim.EgoState(x=-20.0, y=-0.0, speed=6.0))
        self.assert_plan_matches(w)
