import json
import re

import numpy as np
import pytest

from drivelab import vocab
from drivelab.world import ControlCommand


class TestControlVocabulary:
    def test_default_sizes(self):
        v = vocab.ControlVocabulary()
        assert v.group_sizes == (5, 2, 9)
        assert v.total == 16
        assert v.group_slices == ((0, 5), (5, 2), (7, 9))

    def test_nearest_tie_resolves_to_lower_index(self):
        v = vocab.ControlVocabulary()
        # brake 0.5 is exactly equidistant from 0.0 and 1.0 -> lower index
        assert v.nearest(v.brake, 0.5) == 0
        # plain nearest, no tie: -0.25 is closer to -0.3 than to -0.1
        assert v.nearest(v.steer, -0.25) == 2

    def test_discretize_values_round_trip(self):
        v = vocab.ControlVocabulary()
        cmd = ControlCommand(throttle=0.7, brake=0.0, steer=-0.6)
        idx = v.discretize(cmd)
        assert v.values(*idx) == (0.7, 0.0, -0.6)


def toy_trajectories(n, seed=0):
    rng = np.random.default_rng(seed)
    # three latent modes with noise, flattened 6x2 waypoints
    modes = rng.normal(0, 5.0, size=(3, 12))
    pick = rng.integers(0, 3, size=n)
    return (modes[pick] + rng.normal(0, 0.3, size=(n, 12))).reshape(n, 6, 2)


class TestKMeans:
    def test_cost_non_increasing_over_seeds(self):
        trajs = toy_trajectories(200)
        for seed in range(10):
            trace = []
            vocab.build_vocabulary(trajs, k=5, seed=seed, cost_trace=trace)
            assert len(trace) >= 1
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_k1_center_is_the_mean(self):
        trajs = toy_trajectories(100)
        v = vocab.build_vocabulary(trajs, k=1, seed=0)
        assert np.allclose(v.flat()[0], trajs.reshape(100, -1).mean(axis=0),
                           atol=1e-9)

    def test_deterministic(self):
        trajs = toy_trajectories(150)
        a = vocab.build_vocabulary(trajs, k=6, seed=3)
        b = vocab.build_vocabulary(trajs, k=6, seed=3)
        assert np.array_equal(a.centers, b.centers)

    def test_too_few_distinct_points_rejected(self):
        trajs = np.zeros((50, 6, 2))
        with pytest.raises(ValueError, match="distinct"):
            vocab.build_vocabulary(trajs, k=4, seed=0)

    def test_no_empty_clusters(self):
        trajs = toy_trajectories(60, seed=5)
        v = vocab.build_vocabulary(trajs, k=8, seed=1)
        flat = trajs.reshape(60, -1)
        d = ((flat[:, None, :] - v.flat()[None]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        assert set(assign) == set(range(8))


class TestTrajectoryVocabulary:
    def test_nearest_index_uses_mean_waypoint_distance(self):
        centers = np.zeros((2, 6, 2))
        centers[1, :, 0] = 10.0
        v = vocab.TrajectoryVocabulary(centers)
        traj = np.zeros((1, 6, 2))
        traj[0, :, 0] = 6.0
        assert v.nearest_index(traj)[0] == 1
        d = v.waypoint_distances(traj)[0]
        assert d[0] == pytest.approx(6.0)
        assert d[1] == pytest.approx(4.0)

    def test_a_stack_equals_its_rows(self):
        rng = np.random.default_rng(4)
        v = vocab.TrajectoryVocabulary(rng.normal(0, 3.0, size=(16, 6, 2)))
        trajs = rng.normal(0, 3.0, size=(5, 6, 2))
        d = v.waypoint_distances(trajs)
        assert d.shape == (5, 16)
        assert d.tobytes() == np.concatenate([v.waypoint_distances(t[None]) for t in trajs]).tobytes()
        assert v.nearest_index(trajs).tolist() == [v.nearest_index(t[None])[0] for t in trajs]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_stack_rejects_each_non_finite_row(self, bad):
        v = vocab.TrajectoryVocabulary(np.random.default_rng(0).normal(size=(4, 6, 2)))
        trajs = np.zeros((3, 6, 2))
        trajs[2, 4, 1] = bad
        with pytest.raises(ValueError, match="trajectory 2 has a non-finite waypoint"):
            v.nearest_index(trajs)
        with pytest.raises(ValueError, match="trajectory 0 has a non-finite waypoint"):
            v.nearest_index(trajs[2:])
        assert v.nearest_index(trajs[:2]).tolist() == [v.nearest_index(t[None])[0] for t in trajs[:2]]

    def test_save_load_round_trip(self, tmp_path):
        v = vocab.TrajectoryVocabulary(np.random.default_rng(0).normal(size=(4, 6, 2)))
        path = tmp_path / "v.jsonl"
        v.save(path)
        w = vocab.TrajectoryVocabulary.load(path)
        assert np.array_equal(v.centers, w.centers)
        assert v.hash() == w.hash()

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text('{"index": 0, "waypoints": [0,0,0,0,0,0,0,0,0,0,0,0]}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            vocab.TrajectoryVocabulary.load(path)

    @pytest.mark.parametrize("line", [
        "5", "[1, 2]", '{"index": 0, "waypoints": 5}', '{"index": 0, "waypoints": [1, 2]}',
        '{"index": 0, "waypoints": [{"x": 1}, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}',
        '{"index": 0, "waypoints": [%s, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}' % (10 ** 400),
        '{"index": 0, "waypoints": [true, "1.5", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}',
        '{"index": 0, "waypoints": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, false]}',
        '{"index": 0, "waypoints": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, null]}',
    ], ids=["int", "list", "int-waypoints", "short", "object", "huge-int", "bool-and-string",
            "false", "null"])
    def test_a_line_of_the_wrong_type_names_line_number(self, tmp_path, line):
        path = tmp_path / "v.jsonl"
        path.write_text(json.dumps({"index": 0, "waypoints": [0.0] * 12}) + "\n" + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: malformed vocabulary line")):
            vocab.TrajectoryVocabulary.load(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_a_non_finite_center_names_the_file(self, tmp_path, token):
        """A NaN or infinite waypoint, which `json` reads without complaint,
        is refused on load with the line's number."""
        path = tmp_path / "v.jsonl"
        vocab.TrajectoryVocabulary(np.arange(36.0).reshape(3, 6, 2)).save(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("17.0", token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:2: malformed vocabulary line (waypoints: ")
                + r"(nan|-?inf) is not a finite number\)"):
            vocab.TrajectoryVocabulary.load(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_center_is_refused(self, bad):
        centers = np.zeros((4, 6, 2))
        centers[2, 3, 0] = bad
        with pytest.raises(ValueError, match="center 2 has a non-finite waypoint"):
            vocab.TrajectoryVocabulary(centers)
        with pytest.raises(ValueError, match="center 2 has a non-finite waypoint"):
            vocab.TrajectoryVocabulary(centers.reshape(4, 12))

    def test_an_empty_file_names_the_file(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{path}: centers must be")):
            vocab.TrajectoryVocabulary.load(path)

    @pytest.mark.parametrize("indices", [(0, 1, 1), (0, 1, 3), (0, 1, 2.0)],
                             ids=["duplicate", "gap", "float"])
    def test_indices_must_be_0_to_n(self, tmp_path, indices):
        path = tmp_path / "v.jsonl"
        path.write_text("".join(json.dumps({"index": i, "waypoints": [float(i)] * 12}) + "\n"
                                for i in indices))
        with pytest.raises(ValueError, match=re.escape(f"{path}: vocabulary indices are not 0..2")):
            vocab.TrajectoryVocabulary.load(path)

    def test_hash_sensitive_to_any_change(self):
        c = np.random.default_rng(1).normal(size=(3, 6, 2))
        a = vocab.TrajectoryVocabulary(c.copy())
        c[2, 5, 1] += 1e-9
        b = vocab.TrajectoryVocabulary(c)
        assert a.hash() != b.hash()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            vocab.TrajectoryVocabulary(np.zeros((3, 5, 2)))
