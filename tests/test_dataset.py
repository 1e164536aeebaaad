import copy
import hashlib
import json
import re
from dataclasses import fields, replace

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

    def test_subsampled_demos_are_every_nth_tick(self, demo_dataset, tmp_path):
        """Ticks left out of the subsample drive on expert_command; the kept
        samples equal [::3] of each episode's unsubsampled demos."""
        suite = [sim.ScenarioSpec("EmergencyBrake", 0), sim.ScenarioSpec("StopSign", 0)]
        every3 = ds.collect_demos(suite, ECFG, PCFG, CVOCAB, subsample=3)
        want = []
        for spec in suite:
            episode = [s for s in demo_dataset.samples if s.scenario_id == ds.scenario_id(spec)]
            want += episode[::3]
        ds.persist(every3, tmp_path / "every3.jsonl")
        ds.persist(ds.Dataset(want, manifest=every3.manifest), tmp_path / "want.jsonl")
        assert (tmp_path / "every3.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
        assert every3.manifest["subsample"] == 3 and len(every3) == len(want)

    def test_bad_expert_episodes_discarded_whole(self, monkeypatch):
        # an expert that floors the throttle rear-ends the braking lead
        def reckless(w, cfg):
            wp = np.stack([np.arange(1, 7) * 4.0, np.zeros(6)], axis=1)
            return xp.ExpertLabel(waypoints=wp,
                                  command=sim.ControlCommand(throttle=1.0))
        monkeypatch.setattr(ds.xp, "expert_act", reckless)
        suite = [sim.ScenarioSpec("EmergencyBrake", 0)]
        with pytest.raises(RuntimeError, match="misconfigured"):
            ds.collect_demos(suite, ECFG, PCFG, CVOCAB)
        # with a permissive rate the bad episode is dropped, not kept
        monkeypatch.setattr(ds, "MAX_INFRACTION_RATE", 1.0)
        out = ds.collect_demos(suite, ECFG, PCFG, CVOCAB)
        assert len(out) == 0
        assert out.manifest["episodes_discarded"] == 1


def _tiny_policy():
    t = np.arange(1, 7) * 0.5
    centers = np.array([np.stack([t * v, t * t * c], axis=1)
                        for v in (0.0, 2.0, 5.0, 8.0) for c in (-0.3, 0.3)])
    return pol.Policy(pol.PolicyConfig(feature_dim=16, k=8, init_seed=5),
                      vocab.TrajectoryVocabulary(centers), CVOCAB)


GOLDEN_SUITE = [sim.ScenarioSpec(kind, 0, route_length=40.0)
                for kind in ("Overtaking", "StopSign", "GiveWay")]
# The expert holds the ego still through the last 30 ticks of the two
# segments it hands back at ticks 700 and 760.
STANDSTILL_HANDBACK = sim.ScenarioSpec("StopSign", 3, route_length=60.0)


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
        raw = ds.run_shadow_collection(_tiny_policy(), GOLDEN_SUITE, ECFG, round_index=1)
        assert raw.manifest["triggers"]["collision"] >= 1
        assert any(s.truncated for s in raw.samples)
        assert any(s.infraction_kinds for s in raw.samples)
        ds.persist(raw, tmp_path / "takeover.jsonl")
        digest = hashlib.sha256((tmp_path / "takeover.jsonl").read_bytes()).hexdigest()
        assert digest == "f378560084472ea4300ce29e94be2ffe0248e3a518e0c07fd1b335f22b44aaf4"


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

    def test_records_with_dropped_fields_still_load(self, takeover_dataset, tmp_path):
        """Takeover records written when a sample also stored its steer gap
        and the policy's argmax load to the same samples: a record's keys
        outside the sample's fields are not read, so the reloaded samples
        persist to the bytes of the file without those keys."""
        path, old, again = (tmp_path / name for name in ("t.jsonl", "old.jsonl", "again.jsonl"))
        ds.persist(takeover_dataset, path)
        manifest, *records = path.read_text().splitlines()
        lines = [manifest]
        for line in records:
            rec = json.loads(line)
            at = list(rec).index("trigger") + 1
            items = list(rec.items())
            items[at:at] = [("steer_gap", 0.25), ("policy_traj_index", 3),
                            ("policy_ctrl_indices", [1, 0, 4])]
            lines.append(json.dumps(dict(items)))
        old.write_text("\n".join(lines) + "\n")
        ds.persist(ds.load(old), again)
        assert again.read_bytes() == path.read_bytes()

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

    @pytest.mark.parametrize("edit", [
        lambda rec: 5,
        lambda rec: [1, 2],
        lambda rec: {**rec, "agent_feats": {"x": 1.0}},
        lambda rec: {**rec, "traj_waypoints": [[{"x": 1.0}, 0.0]] * 6},
        lambda rec: {**rec, "ctrl_indices": 5},
        lambda rec: {**rec, "traj_waypoints": [[10 ** 400, 0.0]] * 6},
    ], ids=["int", "list", "object-feature", "object-waypoint", "int-tuple", "huge-int"])
    def test_a_record_of_the_wrong_type_names_line_number(self, demo_dataset, tmp_path, edit):
        """A line of valid JSON that is not a sample record is a ValueError
        naming the file and line, not a bare TypeError."""
        path = tmp_path / "d.jsonl"
        ds.persist(demo_dataset, path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps(edit(json.loads(lines[2])))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: malformed sample record")):
            ds.load(path)

    @pytest.mark.parametrize("field, value", [
        ("traj_waypoints", [["3", "4"]] * 6),
        ("traj_waypoints", [[True, 0.0]] * 6),
        ("agent_feats", [None]),
        ("cmd_onehot", "1000000"),
        ("time", None),
        ("time", "0.5"),
        ("time", True),
        ("scenario_id", 7),
        ("ctrl_indices", [True, "0", 4.5]),
        ("ctrl_indices", [0, 0, 4.0]),
        ("ctrl_indices", [0, 0]),
        ("ctrl_indices", [7, 0, 0]),
        ("cmd_onehot", [2.0, 0, 0, 0, 0, 0, 0]),
        ("trigger", None),
        ("segment_id", 3),
        ("round_index", 1.0),
        ("round_index", True),
        ("ego_speed", "2.0"),
        ("infraction_kinds", [1]),
        ("infraction_kinds", "off_road"),
        ("truncated", 0),
    ])
    def test_a_field_of_the_wrong_type_names_line_number(self, takeover_dataset, tmp_path,
                                                         field, value):
        """Every field has one typed rule: a number is a JSON int or float,
        never a boolean, a string or null; `ctrl_indices` is three ints,
        `round_index` an int, `truncated` a boolean, `infraction_kinds`
        strings, and the string fields strings. Past its type, a field has
        its domain: each control index lies in its group, and the command
        row is one-hot."""
        path = tmp_path / "t.jsonl"
        ds.persist(takeover_dataset, path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), field: value})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: malformed sample record ({field}")):
            ds.load(path)

    @pytest.mark.parametrize("field, token", [
        ("time", "1e999"),
        ("ego_speed", "-1e999"),
        ("time", str(10 ** 400)),
        ("traj_waypoints", "[[1e999, 0.0]" + ", [0.0, 0.0]" * 5 + "]"),
        ("traj_waypoints", "[[%d, 0.0]" % 10 ** 400 + ", [0.0, 0.0]" * 5 + "]"),
    ], ids=["inf-time", "inf-speed", "huge-int-time", "inf-waypoint", "huge-int-waypoint"])
    def test_a_number_no_float64_holds_names_line_number(self, takeover_dataset, tmp_path,
                                                          field, token):
        """`1e999` parses as inf and a 400-digit int as an int; neither is a
        finite float64, in a scalar field or in an array."""
        path = tmp_path / "t.jsonl"
        ds.persist(takeover_dataset, path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), field: "@"}).replace('"@"', token)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: malformed sample record ({field}: ") + ".* is not a finite number"):
            ds.load(path)

    @pytest.mark.parametrize("field, value, shape", [
        ("traj_waypoints", [[1.0, 2.0]], "(1, 2) is not (6, 2)"),
        ("traj_waypoints", [1.0, 2.0] * 6, "(12,) is not (6, 2)"),
        ("cmd_onehot", [1.0, 0.0], "(2,) is not (7,)"),
        ("cmd_onehot", [[0.0] * 7], "(1, 7) is not (7,)"),
        ("agent_feats", [0.5] * 14, "(14,) is not (n, 7)"),
        ("agent_feats", [[0.5] * 6], "(1, 6) is not (n, 7)"),
        ("map_feats", [[[0.5] * 12]], "(1, 1, 12) is not (n, 12)"),
    ], ids=["one-waypoint", "flat-waypoints", "short-command", "nested-command",
            "flat-agents", "narrow-agents", "nested-map"])
    def test_an_array_of_the_wrong_shape_names_line_number(self, takeover_dataset, tmp_path,
                                                            field, value, shape):
        """Each array field has its shape: six (x, y) waypoints, a one-hot
        row over the commands, and rows of the agent and map feature widths,
        any number of them."""
        path = tmp_path / "t.jsonl"
        ds.persist(takeover_dataset, path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), field: value})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: malformed sample record ({field}: shape {shape})")):
            ds.load(path)

    @pytest.mark.parametrize("cls", [ds.DemoSample, ds.TakeoverSample])
    @pytest.mark.parametrize("field, value", [
        ("agent_feats", [[0.5] * 6]),
        ("map_feats", [0.5] * 12),
        ("cmd_onehot", [1.0, 0.0]),
        ("cmd_onehot", [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]),
        ("traj_waypoints", [[1.0, 2.0]]),
        ("ctrl_indices", [0, 2, 0]),
        ("ctrl_indices", [0, 0, -1]),
    ])
    def test_load_and_build_refuse_a_field_alike(self, demo_dataset, takeover_dataset,
                                                   tmp_path, cls, field, value):
        """A field's shape and domain are one rule, its class's: a value that
        building a sample refuses, `load` refuses with the same message,
        behind the file and line."""
        source = demo_dataset if cls is ds.DemoSample else takeover_dataset
        bad = tuple(value) if field == "ctrl_indices" else np.array(value, dtype=np.float64)
        with pytest.raises(ValueError, match=f"^{field}: ") as built:
            replace(source.samples[1], **{field: bad})
        path = tmp_path / "d.jsonl"
        ds.persist(source, path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), field: value})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: malformed sample record ({built.value})")):
            ds.load(path)

    def test_no_rows_load_at_their_width(self, takeover_dataset, tmp_path):
        """A record holds no agents as `[]`: it loads as (0, 7)."""
        path = tmp_path / "t.jsonl"
        ds.persist(takeover_dataset, path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "agent_feats": []})
        path.write_text("\n".join(lines) + "\n")
        assert ds.load(path).samples[1].agent_feats.shape == (0, pol.AGENT_FEATURES)

    def test_an_int_loads_where_a_float_belongs(self, demo_dataset, tmp_path):
        """A JSON int is a number: it loads as it is in a scalar field and as
        a float64 in an array."""
        path = tmp_path / "d.jsonl"
        ds.persist(demo_dataset, path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "time": 2, "traj_waypoints": [[1, 2]] * 6})
        path.write_text("\n".join(lines) + "\n")
        s = ds.load(path).samples[1]
        assert s.time == 2 and type(s.time) is int
        assert s.traj_waypoints.dtype == np.float64 and s.traj_waypoints.tolist() == [[1.0, 2.0]] * 6

    @pytest.mark.parametrize("manifest", ["5", "[1, 2]", '"demo"', "null"])
    def test_a_manifest_of_the_wrong_type_is_rejected(self, tmp_path, manifest):
        path = tmp_path / "d.jsonl"
        path.write_text(manifest + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: malformed manifest")):
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
        m = ds.MergedDataset(demo_dataset, [], takeover_weight=4.0)
        idx = sorted(m.epoch_indices(np.random.default_rng(0)))
        assert idx == list(range(len(demo_dataset)))

    def test_hash_mismatch_rejected(self, demo_dataset, takeover_dataset):
        other = ds.Dataset(takeover_dataset.samples, kind="takeover",
                           vocab_hash="0000000000000000")
        with pytest.raises(ValueError, match="hash"):
            ds.MergedDataset(demo_dataset, [takeover_dataset, other], takeover_weight=4.0)


class _Recorder:
    """Wraps `_ShadowDriver.act`, `NeuralDriver.act` and `Policy.infer` to
    record, per tick: the ego's speed, the shadow driver's state on entry
    to the policy's tick and on its exit, and which ticks ran `infer`."""

    def __init__(self, monkeypatch):
        self.speed, self.entry, self.exit, self.infers = {}, {}, {}, []
        real_shadow, real_act, real_infer = (
            ds._ShadowDriver.act, ds.NeuralDriver.act, pol.Policy.infer)

        def shadow_act(driver, w):
            self.tick, self.speed[w.tick] = w.tick, w.ego.speed
            return real_shadow(driver, w)

        def act(driver, w):
            self.entry[w.tick] = self._state(driver)
            cmd = real_act(driver, w)
            self.exit[w.tick] = self._state(driver)
            return cmd

        def infer(policy, *args):
            self.infers.append(self.tick)
            return real_infer(policy, *args)

        monkeypatch.setattr(ds._ShadowDriver, "act", shadow_act)
        monkeypatch.setattr(ds.NeuralDriver, "act", act)
        monkeypatch.setattr(pol.Policy, "infer", infer)

    @staticmethod
    def _state(driver):
        return {"pid": driver.pid, "creep": driver.creep, "terms": driver.terms,
                "last": driver.last, "integral": driver.pid.integral,
                "still_ticks": driver.creep.still_ticks,
                "pulse_ticks_left": driver.creep.pulse_ticks_left}

    def run(self, spec):
        """One shadowed episode; returns its driver and its segments as
        (trigger tick, last tick) pairs."""
        driver = ds._ShadowDriver(_tiny_policy(), ECFG, 1, ds.EPS_STEER)
        ds.run_episode(driver, spec)
        segments = {}
        for tick, (seg_id, _), _, _ in driver.takeovers:
            segments.setdefault(seg_id, []).append(tick)
        return driver, [(ticks[0], ticks[-1]) for ticks in segments.values()]


class TestDisengagedPolicy:
    """While the expert drives, the policy is disengaged: only the trigger
    tick of a segment runs it, and at handback it re-engages from a fresh
    PID and creep, keeping the episode's caches."""

    @pytest.mark.parametrize("spec", GOLDEN_SUITE + [STANDSTILL_HANDBACK], ids=ds.scenario_id)
    def test_policy_runs_only_on_ticks_it_drives(self, spec, monkeypatch):
        rec = _Recorder(monkeypatch)
        driver, segments = rec.run(spec)
        takeover = {tick for tick, *_ in driver.takeovers}
        triggers = {first for first, _ in segments}
        assert segments and len(triggers) == len(driver.segments)
        assert sorted(rec.entry) == sorted(set(rec.speed) - takeover | triggers)
        assert len(rec.entry) == len(rec.speed) - len(takeover) + len(segments)
        assert rec.infers and not set(rec.infers) & (takeover - triggers)

    def test_handback_reengages_from_a_fresh_controller_state(self, monkeypatch):
        rec = _Recorder(monkeypatch)
        _, segments = rec.run(STANDSTILL_HANDBACK)
        handbacks = [(first, last + 1) for first, last in segments if last + 1 in rec.entry]
        assert len(handbacks) >= 10
        for first, tick in handbacks:
            before, after = rec.exit[first], rec.entry[tick]
            assert (after["integral"], after["still_ticks"], after["pulse_ticks_left"]) == \
                (0.0, 0, 0), tick
            assert after["pid"] is not before["pid"] and after["creep"] is not before["creep"]
            assert after["terms"] is before["terms"] and after["last"] is before["last"]
        assert any(rec.exit[first]["integral"] != 0.0 for first, _ in handbacks)
        # The expert stood the ego still through the end of the segment: a
        # creep that had kept counting would hand back most of 2.5 s.
        standstill = [tick for _, tick in handbacks
                      if all(rec.speed[t] < sim.STILL_SPEED for t in range(tick - 30, tick + 1))]
        assert standstill == [700, 760]

    def test_takeover_snapshots_equal_the_scene_at_their_tick(self, monkeypatch):
        """The trigger tick's sample holds `NeuralDriver.snap`, the later
        ones a scene encoded without the policy; both equal `encode_scene`
        of the world at the sample's tick, bit for bit."""
        real_act, want = ds._ShadowDriver.act, []

        def act(driver, w):
            snap, n = pol.encode_scene(w, driver.neural.policy.cfg), len(driver.takeovers)
            cmd = real_act(driver, w)
            if len(driver.takeovers) > n:
                want.append(snap)
            return cmd

        monkeypatch.setattr(ds._ShadowDriver, "act", act)
        raw = ds.run_shadow_collection(_tiny_policy(), GOLDEN_SUITE, ECFG, round_index=1)
        assert len(raw) == len(want)
        firsts = [i == 0 or s.segment_id != raw.samples[i - 1].segment_id
                  for i, s in enumerate(raw.samples)]
        assert sum(firsts) == len({s.segment_id for s in raw.samples}) < len(raw)
        for s, snap in zip(raw.samples, want):
            for name in ("agent_feats", "map_feats", "cmd_onehot"):
                got, expected = getattr(s, name), getattr(snap, name)
                assert got.dtype == expected.dtype and got.shape == expected.shape, name
                assert got.tobytes() == expected.tobytes(), name
