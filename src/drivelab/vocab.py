"""Discrete action vocabularies: fixed throttle/brake/steer value lists and a
k-means trajectory vocabulary clustered from expert demonstrations."""

import hashlib
import json
import sys

import numpy as np

WAYPOINTS_PER_TRAJ = 6       # 3 s horizon at 0.5 s spacing
WAYPOINT_DT = 0.5
LLOYD_MAX_ITER = 100
LLOYD_TOL_FRAC = 0.001       # stop once fewer points than this change cluster
_NUMBERS = frozenset((int, float))
_SCALARS = frozenset((float, int, str, bool))


def _is_number(value):
    """A JSON int or float, never a boolean, that a float64 holds finitely:
    not inf or nan, and no int beyond the largest float."""
    return type(value) in _NUMBERS and abs(value) <= sys.float_info.max


def from_json(name, value, declared):
    """`value`, decoded from JSON, as its declared type, or a ValueError
    naming `name`: the loaders' one typed rule. A float is a number
    (`_is_number`), kept as the int or float it is; an ndarray is nested
    lists of numbers, read as float64; tuple[X, ...] and tuple[X, Y, Z] are
    lists of their items. The scalar types are looked up in `_SCALARS`, not
    told by `isinstance(declared, type)`, which Python 3.10 answers True for
    `tuple[int, int, int]`."""
    if declared is np.ndarray:
        array = np.array(value, dtype=object)
        if set(map(type, array.flat)) <= _NUMBERS:
            try:
                floats = array.astype(np.float64)
            except OverflowError:
                floats = None
            if floats is not None and np.isfinite(floats).all():
                return floats
        value, declared = next(v for v in array.flat if not _is_number(v)), float
    elif declared in _SCALARS:
        if _is_number(value) if declared is float else type(value) is declared:
            return value
    elif type(value) is list:
        items = declared.__args__
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        if len(value) == len(items):
            return tuple(from_json(name, v, t) for v, t in zip(value, items))
    what = "a finite number" if declared is float else f"of type {declared.__name__}"
    raise ValueError(f"{name}: {value!r} is not {what}")


# The control branch's discrete values, one softmax group per control; the
# branch's logits hold the three groups end to end in this order.
THROTTLE_VALUES = (0.0, 0.3, 0.5, 0.7, 1.0)
BRAKE_VALUES = (0.0, 1.0)
STEER_VALUES = (-1.0, -0.6, -0.3, -0.1, 0.0, 0.1, 0.3, 0.6, 1.0)
CONTROL_GROUP_SIZES = (len(THROTTLE_VALUES), len(BRAKE_VALUES), len(STEER_VALUES))


class ControlVocabulary:
    """The discrete throttle/brake/steer values, their group sizes, their
    total, and each group's (start, length) in the flat logits."""

    def __init__(self):
        self.throttle = np.asarray(THROTTLE_VALUES, dtype=np.float64)
        self.brake = np.asarray(BRAKE_VALUES, dtype=np.float64)
        self.steer = np.asarray(STEER_VALUES, dtype=np.float64)
        self.group_sizes = CONTROL_GROUP_SIZES
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
        bad = np.flatnonzero(~np.isfinite(centers).all(axis=(1, 2)))
        if len(bad):
            raise ValueError(f"center {bad[0]} has a non-finite waypoint")
        self.centers = centers
        self.k = centers.shape[0]

    def flat(self):
        return self.centers.reshape(self.k, -1)

    def hash(self):
        return hashlib.sha256(
            np.ascontiguousarray(self.centers, dtype="<f8").tobytes()).hexdigest()[:16]

    def nearest_index(self, trajectories):
        """Index of the center closest in mean per-waypoint L2 distance, for
        each trajectory of a (B, 6, 2) stack: (B,). A trajectory with a
        non-finite waypoint has none."""
        d = self.waypoint_distances(trajectories)
        i = np.argmin(d, axis=1)        # argmin returns the first nan, if any
        bad = np.flatnonzero(~np.isfinite(d[np.arange(len(d)), i]))
        if len(bad):
            raise ValueError(f"trajectory {bad[0]} has a non-finite waypoint")
        return i

    def waypoint_distances(self, trajectories):
        """Mean per-waypoint L2 distance (meters) from each trajectory of a
        (B, 6, 2) stack to every center: (B, k)."""
        stack = np.asarray(trajectories, dtype=np.float64).reshape(-1, WAYPOINTS_PER_TRAJ, 2)
        return np.linalg.norm(self.centers[None] - stack[:, None], axis=3).mean(axis=2)

    def save(self, path):
        with open(path, "w") as f:
            for i, c in enumerate(self.flat()):
                f.write(json.dumps({"index": i, "waypoints": c.tolist()}) + "\n")

    @classmethod
    def load(cls, path):
        """Read a vocabulary; a line that is not an index with 12 finite
        numbers is rejected with the file's name and the line's number."""
        rows = []
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                try:
                    rec = json.loads(line)
                    rows.append((rec["index"], from_json("waypoints", rec["waypoints"], np.ndarray)
                                 .reshape(WAYPOINTS_PER_TRAJ, 2)))
                except (KeyError, OverflowError, TypeError, ValueError) as e:
                    raise ValueError(f"{path}:{lineno}: malformed vocabulary line ({e})")
        if sorted(i for i, _ in rows if type(i) is int) != list(range(len(rows))):
            raise ValueError(f"{path}: vocabulary indices are not 0..{len(rows) - 1}, each once")
        rows.sort()
        try:
            return cls(np.array([w for _, w in rows]))
        except ValueError as e:
            raise ValueError(f"{path}: {e}")


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
