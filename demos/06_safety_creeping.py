"""The safety-creeping ablation.

Policies trained on demonstrations inherit "imitation inertia": after a
mandatory stop they keep predicting near-zero speed and never move again.
The creeping rule watches for 2.5 s of stillness with a clear 20 m corridor
ahead and injects a fixed 0.7-throttle pulse for one second. This script
reproduces the failure with a deliberately inertia-prone scripted driver
and shows the rule converting timeouts into completed routes.
"""

from drivelab import metrics as bench
from drivelab import world as sim
from drivelab.expert import pure_pursuit_steer
from drivelab.policy import SafetyCreep


class InertiaDriver:
    """Follows the route but freezes after its first full stop."""

    def __init__(self, creep_enabled):
        self.creep = SafetyCreep(enabled=creep_enabled)
        self.stuck = False
        self.moved = False

    def act(self, w):
        s, _ = w.route.project(w.ego.x, w.ego.y)
        steer = pure_pursuit_steer(w.route, w.ego, 6.0, s)
        stop = w.route.stop_line_s
        if w.ego.speed > 1.0:
            self.moved, self.stuck = True, False
        if self.moved and w.ego.speed < 0.1:
            self.stuck = True
        if self.stuck:
            cmd = sim.ControlCommand(brake=1.0, steer=steer)
        elif stop is not None and not w.stop_line_served and \
                w.ego.speed ** 2 / (2 * sim.B_MAX) >= (stop - s) - 1.0:
            cmd = sim.ControlCommand(brake=1.0, steer=steer)
        else:
            cmd = sim.ControlCommand(throttle=0.5, steer=steer)
        override = self.creep.update(w, cmd.steer)
        return override if override is not None else cmd


def main():
    suite = [sim.ScenarioSpec("StopSign", s) for s in range(5)]
    for enabled in (False, True):
        results = [bench.run_episode(InertiaDriver(enabled), spec)
                   for spec in suite]
        rep = bench.summarize(results)
        print(f"creeping {'on ' if enabled else 'off'}:  mean DS "
              f"{rep.mean_ds:6.2f}  timeouts {rep.timeout_pct:5.1f}%  "
              f"terminations {[r.termination for r in results]}")


if __name__ == "__main__":
    main()
