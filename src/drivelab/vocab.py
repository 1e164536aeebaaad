"""Discrete action vocabularies: fixed throttle/brake/steer value lists and a
k-means trajectory vocabulary clustered from expert demonstrations."""

import hashlib
import json

import numpy as np

WAYPOINTS_PER_TRAJ = 6       # 3 s horizon at 0.5 s spacing
WAYPOINT_DT = 0.5
LLOYD_MAX_ITER = 100
LLOYD_TOL_FRAC = 0.001       # stop once fewer points than this change cluster


# The control branch's discrete values, one softmax group per control; the
# branch's logits hold the three groups end to end in this order.
THROTTLE_VALUES = (0.0, 0.3, 0.5, 0.7, 1.0)
BRAKE_VALUES = (0.0, 1.0)
STEER_VALUES = (-1.0, -0.6, -0.3, -0.1, 0.0, 0.1, 0.3, 0.6, 1.0)


class ControlVocabulary:
    """The discrete throttle/brake/steer values, their group sizes, their
    total, and each group's (start, length) in the flat logits."""

    def __init__(self):
        self.throttle = np.asarray(THROTTLE_VALUES, dtype=np.float64)
        self.brake = np.asarray(BRAKE_VALUES, dtype=np.float64)
        self.steer = np.asarray(STEER_VALUES, dtype=np.float64)
        self.group_sizes = (len(THROTTLE_VALUES), len(BRAKE_VALUES), len(STEER_VALUES))
        self.total = sum(self.group_sizes)
        starts = np.cumsum((0,) + self.group_sizes[:-1]).tolist()
        self.group_slices = tuple(zip(starts, self.group_sizes))

    def nearest(self, values, value):
        """Index of the nearest entry; exact ties resolve to the lower index."""
        d = np.abs(values - value)
        return int(np.argmin(d))

    def discretize(self, cmd):
        """ControlCommand -> (throttle_idx, brake_idx, steer_idx)."""
        return (self.nearest(self.throttle, cmd.throttle),
                self.nearest(self.brake, cmd.brake),
                self.nearest(self.steer, cmd.steer))

    def values(self, throttle_idx, brake_idx, steer_idx):
        return (float(self.throttle[throttle_idx]),
                float(self.brake[brake_idx]),
                float(self.steer[steer_idx]))


class TrajectoryVocabulary:
    """k cluster-center trajectories, each 6 (x, y) ego-frame waypoints."""

    def __init__(self, centers):
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim == 2 and centers.shape[1] == WAYPOINTS_PER_TRAJ * 2:
            centers = centers.reshape(-1, WAYPOINTS_PER_TRAJ, 2)
        if centers.ndim != 3 or centers.shape[1:] != (WAYPOINTS_PER_TRAJ, 2):
            raise ValueError(f"centers must be (k, {WAYPOINTS_PER_TRAJ}, 2), got {centers.shape}")
        self.centers = centers
        self.k = centers.shape[0]

    def flat(self):
        return self.centers.reshape(self.k, -1)

    def hash(self):
        return hashlib.sha256(
            np.ascontiguousarray(self.centers, dtype="<f8").tobytes()).hexdigest()[:16]

    def nearest_index(self, trajectory):
        """Index of the center closest in mean per-waypoint L2 distance; a
        trajectory with a non-finite waypoint has none."""
        d = self.waypoint_distances(trajectory)
        i = int(np.argmin(d))
        if not np.isfinite(d[i]):       # argmin returns the first nan, if any
            raise ValueError("trajectory has a non-finite waypoint")
        return i

    def waypoint_distances(self, trajectory):
        """Mean per-waypoint L2 distance (meters) from a trajectory to every center."""
        traj = np.asarray(trajectory, dtype=np.float64).reshape(WAYPOINTS_PER_TRAJ, 2)
        d = np.linalg.norm(self.centers - traj[None], axis=2)
        return d.mean(axis=1)

    def save(self, path):
        with open(path, "w") as f:
            for i, c in enumerate(self.flat()):
                f.write(json.dumps({"index": i, "waypoints": c.tolist()}) + "\n")

    @classmethod
    def load(cls, path):
        rows = []
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                try:
                    rec = json.loads(line)
                    rows.append((rec["index"], rec["waypoints"]))
                except (json.JSONDecodeError, KeyError) as e:
                    raise ValueError(f"{path}:{lineno}: malformed vocabulary line ({e})")
        rows.sort()
        return cls(np.array([w for _, w in rows]))


def lloyd_cost(points, centers, assignment):
    return float(((points - centers[assignment]) ** 2).sum())


def build_vocabulary(trajectories, k, seed, cost_trace=None):
    """Cluster demonstration trajectories into a k-entry vocabulary.

    Lloyd's algorithm with k-means++ seeding. Stops when the fraction of
    points changing assignment drops below LLOYD_TOL_FRAC, or after
    LLOYD_MAX_ITER rounds. Empty clusters are re-seeded from the farthest
    point. Pass a list as cost_trace to record the within-cluster cost per
    iteration.
    """
    pts = np.asarray(trajectories, dtype=np.float64)
    if pts.ndim == 3:
        pts = pts.reshape(pts.shape[0], -1)
    n = pts.shape[0]
    distinct = np.unique(pts, axis=0)
    if distinct.shape[0] < k:
        raise ValueError(f"need at least k={k} distinct trajectories, got {distinct.shape[0]}")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[j] = pts[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((pts - centers[j]) ** 2).sum(axis=1))

    assignment = np.full(n, -1, dtype=np.intp)
    for _ in range(LLOYD_MAX_ITER):
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assignment = np.argmin(dists, axis=1)
        if cost_trace is not None:
            cost_trace.append(lloyd_cost(pts, centers, new_assignment))
        changed = int((new_assignment != assignment).sum())
        assignment = new_assignment
        for j in range(k):
            members = pts[assignment == j]
            if len(members) == 0:
                far = int(np.argmax(((pts - centers[assignment]) ** 2).sum(axis=1)))
                centers[j] = pts[far]
                assignment[far] = j
            else:
                centers[j] = members.mean(axis=0)
        if changed / n < LLOYD_TOL_FRAC:
            break
    return TrajectoryVocabulary(centers.reshape(k, WAYPOINTS_PER_TRAJ, 2))
