import math

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


class TestPurePursuit:
    def test_straight_route_zero_steer(self):
        route = sim.Route(np.array([[0.0, 0.0], [50.0, 0.0]]), ["LaneFollow"])
        ego = sim.EgoState(x=5.0, y=0.0, heading=0.0, speed=5.0)
        assert xp.pure_pursuit_steer(route, ego, 6.0, 5.0) == pytest.approx(0.0, abs=1e-9)

    def test_lateral_offset_steers_back(self):
        route = sim.Route(np.array([[0.0, 0.0], [50.0, 0.0]]), ["LaneFollow"])
        ego = sim.EgoState(x=5.0, y=2.0, heading=0.0, speed=5.0)
        assert xp.pure_pursuit_steer(route, ego, 6.0, 5.0) < -0.05

    def test_matches_curvature_formula(self):
        route = sim.Route(np.array([[0.0, 0.0], [50.0, 0.0]]), ["LaneFollow"])
        ego = sim.EgoState(x=0.0, y=-1.0, heading=0.0, speed=5.0)
        tx, ty = route.point_at(0.0 + 6.0)[0], 0.0
        alpha = math.atan2(ty - ego.y, tx - ego.x)
        ld = math.hypot(tx - ego.x, ty - ego.y)
        expect = math.atan(ego.wheelbase * 2 * math.sin(alpha) / ld) / sim.DELTA_MAX
        assert xp.pure_pursuit_steer(route, ego, 6.0, 0.0) == pytest.approx(expect, abs=1e-9)


class TestAccelToCommand:
    def test_drag_feedforward_holds_speed(self):
        # throttle that exactly cancels drag at 8 m/s
        cmd = xp.accel_to_command(0.0, 8.0, 0.0)
        assert cmd.throttle == pytest.approx(sim.C_DRAG * 64.0 / sim.A_MAX)
        assert cmd.brake == 0.0

    def test_negative_accel_maps_to_brake(self):
        cmd = xp.accel_to_command(-4.0, 8.0, 0.1)
        assert cmd.throttle == 0.0
        assert cmd.brake == pytest.approx(0.5)

    def test_saturation(self):
        assert xp.accel_to_command(99.0, 0.0, 0.0).throttle == 1.0
        assert xp.accel_to_command(-99.0, 8.0, 0.0).brake == 1.0


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
        label = xp.expert_act(w, CFG, ControlVocabulary())
        assert label.waypoints.shape == (6, 2)
        assert 0 <= label.throttle_idx < 5
        assert 0 <= label.brake_idx < 2
        assert 0 <= label.steer_idx < 9

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
        kinds = [e.kind for e in w.infractions]
        assert not any(k.startswith("collision") for k in kinds)
