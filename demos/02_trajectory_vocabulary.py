"""Turn expert futures into a discrete trajectory vocabulary.

Planning becomes classification: k-means over 3-second waypoint futures
yields k center trajectories, and the policy later scores those k entries
instead of regressing coordinates. This script shows the clustering cost
falling per Lloyd iteration and how faithfully the vocabulary reconstructs
held-out expert futures.
"""

import numpy as np

from drivelab import dataset as ds
from drivelab import expert as xp
from drivelab import policy as pol
from drivelab import vocab
from drivelab import world as sim


def main():
    suite = [sim.ScenarioSpec(k, s) for k in sim.SCENARIO_KINDS for s in (0,)]
    demo = ds.collect_demos(suite, xp.ExpertConfig(),
                            pol.PolicyConfig(feature_dim=16, k=16),
                            vocab.ControlVocabulary())
    futures = np.stack([s.traj_waypoints for s in demo.samples])
    print(f"{len(futures)} expert futures from {len(suite)} episodes")

    costs = []
    tv = vocab.build_vocabulary(futures, k=16, seed=0, cost_trace=costs)
    print(f"vocabulary hash {tv.hash()}")
    print("Lloyd cost per iteration:")
    for i, c in enumerate(costs):
        print(f"  iter {i:>2}  {c:12.1f}")

    held_out = futures[::10]

    def reconstruction_error(v):
        """Mean per-waypoint distance from each held-out future to its
        nearest vocabulary entry, averaged over the futures."""
        nearest = v.centers[v.nearest_index(held_out)]
        return np.linalg.norm(nearest - held_out, axis=2).mean()

    print(f"mean per-waypoint reconstruction error: {reconstruction_error(tv):.2f} m")
    for k in (4, 16, 64):
        e = reconstruction_error(vocab.build_vocabulary(futures, k=k, seed=0))
        print(f"  k={k:<3} -> {e:.2f} m")


if __name__ == "__main__":
    main()
