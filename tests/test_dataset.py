import copy
import hashlib
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from drivelab import dataset as ds
from drivelab import expert as xp
from drivelab import policy as pol
from drivelab import vocab
from drivelab import world as sim


ECFG = xp.ExpertConfig()
PCFG = pol.PolicyConfig(feature_dim=16, k=8, init_seed=0)
CVOCAB = vocab.ControlVocabulary()


@pytest.fixture(scope="module")
def demo_dataset():
    suite = [sim.ScenarioSpec("EmergencyBrake", 0), sim.ScenarioSpec("StopSign", 0)]
    return ds.collect_demos(suite, ECFG, PCFG, CVOCAB)


@pytest.fixture(scope="module")
def trained_vocab(demo_dataset):
    trajs = np.stack([s.traj_waypoints for s in demo_dataset.samples])
    return vocab.build_vocabulary(trajs, k=8, seed=0)


@pytest.fixture(scope="module")
def takeover_dataset(trained_vocab):
    policy = pol.Policy(PCFG, trained_vocab, CVOCAB)
    suite = [sim.ScenarioSpec("EmergencyBrake", 0)]
    return ds.run_shadow_collection(policy, suite, ECFG, round_index=1)


class TestCollectDemos:
    def test_one_sample_per_tick_and_labels(self, demo_dataset):
        assert len(demo_dataset) > 500
        s = demo_dataset.samples[0]
        assert s.traj_waypoints.shape == (6, 2)
        assert len(s.ctrl_indices) == 3
        assert s.scenario_id in ("EmergencyBrake:0", "StopSign:0")

    def test_no_discards_with_good_expert(self, demo_dataset):
        assert demo_dataset.manifest["episodes_discarded"] == 0

    def test_bad_expert_episodes_discarded_whole(self, monkeypatch):
        # an expert that floors the throttle rear-ends the braking lead
        def reckless(w, cfg, control_vocab=None):
            wp = np.stack([np.arange(1, 7) * 4.0, np.zeros(6)], axis=1)
            return xp.ExpertLabel(waypoints=wp,
                                  command=sim.ControlCommand(throttle=1.0))
        monkeypatch.setattr(ds.xp, "expert_act", reckless)
        suite = [sim.ScenarioSpec("EmergencyBrake", 0)]
        with pytest.raises(RuntimeError, match="misconfigured"):
            ds.collect_demos(suite, ECFG, PCFG, CVOCAB)
        # with a permissive rate the bad episode is dropped, not kept
        out = ds.collect_demos(suite, ECFG, PCFG, CVOCAB, max_infraction_rate=1.0)
        assert len(out) == 0
        assert out.manifest["episodes_discarded"] == 1


class TestShadowCollection:
    def test_segments_are_40_ticks(self, takeover_dataset):
        by_seg = {}
        for s in takeover_dataset.samples:
            by_seg.setdefault(s.segment_id, []).append(s)
        assert by_seg
        for seg_id, seg in by_seg.items():
            if not seg[0].truncated:
                assert len(seg) == ds.TAKEOVER_TICKS

    def test_retrigger_suppression_gap(self, takeover_dataset):
        by_seg = {}
        for s in takeover_dataset.samples:
            by_seg.setdefault(s.segment_id, []).append(s.time)
        spans = sorted((min(t), max(t)) for t in by_seg.values())
        for (_, end), (start, _) in zip(spans, spans[1:]):
            # next segment starts at least 1 s after the previous one ends
            assert start - end >= ds.SUPPRESS_TICKS * sim.DT - 1e-9

    def test_trigger_kinds_recorded(self, takeover_dataset):
        trig = takeover_dataset.manifest["triggers"]
        assert set(trig) == {"collision", "threshold"}
        assert sum(trig.values()) == len(
            {s.segment_id for s in takeover_dataset.samples})

    def test_vocab_hash_stamped(self, takeover_dataset, trained_vocab):
        assert takeover_dataset.vocab_hash == trained_vocab.hash()

    def test_raw_takeover_set_golden(self, tmp_path):
        """A tiny fixed policy shadowed on three 40 m episodes: the persisted
        raw takeover set has a fixed sha256. The suite has a collision
        trigger, a segment cut short by the episode's end and a takeover tick
        that logs an infraction, so each of those is pinned too."""
        t = np.arange(1, 7) * 0.5
        centers = np.array([np.stack([t * v, t * t * c], axis=1)
                            for v in (0.0, 2.0, 5.0, 8.0) for c in (-0.3, 0.3)])
        policy = pol.Policy(pol.PolicyConfig(feature_dim=16, k=8, init_seed=5),
                            vocab.TrajectoryVocabulary(centers), CVOCAB)
        suite = [sim.ScenarioSpec(kind, 0, route_length=40.0)
                 for kind in ("Overtaking", "StopSign", "GiveWay")]
        raw = ds.run_shadow_collection(policy, suite, ECFG, round_index=1)
        assert raw.manifest["triggers"]["collision"] >= 1
        assert any(s.truncated for s in raw.samples)
        assert any(s.infraction_kinds for s in raw.samples)
        ds.persist(raw, tmp_path / "takeover.jsonl")
        digest = hashlib.sha256((tmp_path / "takeover.jsonl").read_bytes()).hexdigest()
        assert digest == "31502ae8c010bb173e0d7817d6ce74e6fa204f45a2d8026096456ff1ad07feb9"


class TestFilter:
    def _segment(self, seg_id, speed=5.0, kinds=(), n=4):
        rng = np.random.default_rng(0)
        return [ds.TakeoverSample(
            agent_feats=np.zeros((0, 7)), map_feats=np.zeros((1, 12)),
            cmd_onehot=np.eye(7)[3], traj_waypoints=rng.normal(size=(6, 2)),
            ctrl_indices=(0, 0, 4), scenario_id="StopSign:0", time=i * 0.05,
            segment_id=seg_id, round_index=1, ego_speed=speed,
            infraction_kinds=kinds if i == 0 else ()) for i in range(n)]

    def test_discards_by_reason(self):
        samples = (self._segment("a") +
                   self._segment("b", kinds=("collision_vehicle",)) +
                   self._segment("c", kinds=("route_deviation",)) +
                   self._segment("d", speed=0.05) +
                   self._segment("e", kinds=("off_road",)))
        raw = ds.Dataset(samples, kind="takeover")
        out = ds.filter_takeovers(raw)
        stats = out.manifest["filter_stats"]
        assert stats == {"segments": 5, "discard_infraction": 2,
                         "discard_deviation": 1, "discard_stuck": 1, "kept": 1}
        assert {s.segment_id for s in out.samples} == {"a"}

    def test_idempotent(self, takeover_dataset):
        once = ds.filter_takeovers(takeover_dataset)
        twice = ds.filter_takeovers(once)
        assert len(once) == len(twice)
        assert [s.segment_id for s in once.samples] == \
            [s.segment_id for s in twice.samples]


class TestPersistence:
    def test_round_trip_exact_floats(self, demo_dataset, tmp_path):
        path = tmp_path / "d.jsonl"
        ds.persist(demo_dataset, path)
        back = ds.load(path)
        assert len(back) == len(demo_dataset)
        for a, b in zip(demo_dataset.samples[:50], back.samples[:50]):
            assert np.array_equal(a.traj_waypoints, b.traj_waypoints)
            assert np.array_equal(a.agent_feats, b.agent_feats)
            assert a.ctrl_indices == b.ctrl_indices

    def test_takeover_fields_survive(self, takeover_dataset, tmp_path):
        path = tmp_path / "t.jsonl"
        ds.persist(takeover_dataset, path)
        back = ds.load(path)
        a, b = takeover_dataset.samples[0], back.samples[0]
        assert (a.segment_id, a.trigger, a.round_index) == \
            (b.segment_id, b.trigger, b.round_index)
        assert a.steer_gap == b.steer_gap

    def test_every_field_round_trips(self, takeover_dataset, tmp_path):
        path = tmp_path / "t.jsonl"
        ds.persist(takeover_dataset, path)
        for a, b in zip(takeover_dataset.samples, ds.load(path).samples):
            assert type(a) is type(b)
            for f in fields(a):
                got, want = getattr(b, f.name), getattr(a, f.name)
                if isinstance(want, np.ndarray):
                    assert got.shape == want.shape and np.array_equal(got, want), f.name
                else:
                    assert got == want, f.name
                    assert isinstance(got, tuple) == isinstance(want, tuple), f.name

    def test_nonfinite_value_not_persisted(self, demo_dataset, tmp_path):
        """The error names the path and the sample, no new file is created,
        and an existing file keeps its bytes."""
        bad = copy.copy(demo_dataset.samples[0])
        bad.traj_waypoints = np.full((6, 2), np.nan)
        bad_set = ds.Dataset([demo_dataset.samples[0], bad])
        fresh = tmp_path / "fresh.jsonl"
        with pytest.raises(ValueError, match=re.escape(f"{fresh}: sample 1 ")):
            ds.persist(bad_set, fresh)
        assert list(tmp_path.iterdir()) == []
        existing = tmp_path / "existing.jsonl"
        ds.persist(demo_dataset, existing)
        before = existing.read_bytes()
        with pytest.raises(ValueError, match="sample 1 "):
            ds.persist(bad_set, existing)
        assert existing.read_bytes() == before

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_token_names_line_number(self, demo_dataset, tmp_path, token):
        path = tmp_path / "d.jsonl"
        ds.persist(demo_dataset, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["traj_waypoints"][0][0] = "@"
        lines[2] = json.dumps(rec).replace('"@"', token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f":3: malformed sample record .*{token}"):
            ds.load(path)

    def test_missing_field_names_line_number(self, takeover_dataset, tmp_path):
        path = tmp_path / "t.jsonl"
        ds.persist(takeover_dataset, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        del rec["truncated"]
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2: malformed sample record"):
            ds.load(path)

    def test_corrupted_line_names_line_number(self, demo_dataset, tmp_path):
        path = tmp_path / "d.jsonl"
        ds.persist(demo_dataset, path)
        lines = path.read_text().splitlines()
        lines[3] = "garbage{"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":4"):
            ds.load(path)

    def test_truncated_file_rejected(self, demo_dataset, tmp_path):
        path = tmp_path / "d.jsonl"
        ds.persist(demo_dataset, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            ds.load(path)

    def test_vocab_hash_check_on_load(self, takeover_dataset, tmp_path):
        path = tmp_path / "t.jsonl"
        ds.persist(takeover_dataset, path)
        ds.load(path, expect_vocab_hash=takeover_dataset.vocab_hash)
        with pytest.raises(ValueError, match="hash"):
            ds.load(path, expect_vocab_hash="deadbeef")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="manifest"):
            ds.load(path)


class TestMerge:
    def test_oversampling_weights(self, demo_dataset, takeover_dataset):
        m = ds.MergedDataset(demo_dataset, [takeover_dataset], takeover_weight=4.0)
        assert len(m) == len(demo_dataset) + len(takeover_dataset)
        idx = m.epoch_indices(np.random.default_rng(0))
        assert len(idx) == len(demo_dataset) + 4 * len(takeover_dataset)
        counts = np.bincount(idx, minlength=len(m))
        assert np.all(counts[:len(demo_dataset)] == 1)
        assert np.all(counts[len(demo_dataset):] == 4)

    def test_empty_takeover_is_merge_identity(self, demo_dataset):
        m = ds.MergedDataset(demo_dataset, [])
        idx = sorted(m.epoch_indices(np.random.default_rng(0)))
        assert idx == list(range(len(demo_dataset)))

    def test_hash_mismatch_rejected(self, demo_dataset, takeover_dataset):
        other = ds.Dataset(takeover_dataset.samples, kind="takeover",
                           vocab_hash="0000000000000000")
        with pytest.raises(ValueError, match="hash"):
            ds.MergedDataset(demo_dataset, [takeover_dataset, other])
