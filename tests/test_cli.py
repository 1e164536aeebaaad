import json
import os
import shutil

import numpy as np
import pytest

from drivelab import cli
from drivelab import config as cf
from drivelab import dataset as ds
from drivelab import expert as xp
from drivelab import world as sim
from drivelab.autodiff import load_checkpoint


MINI = {
    "suites": {
        "train": {"kinds": ["EmergencyBrake", "StopSign"], "seeds": [0]},
        "validation": {"kinds": ["EmergencyBrake"], "seeds": [100]},
        "test": {"kinds": ["EmergencyBrake", "StopSign"], "seeds": [200]},
    },
    "policy": {"feature_dim": 8, "k": 4, "n_agents": 8, "n_map": 16},
    "train": {"pretrain_epochs": 1, "rounds": 1, "po_epochs": 1},
    "demo_subsample": 8,
}


def write_config(tmp, out_dir, extra=None):
    cfg = json.loads(json.dumps(MINI))
    cfg["out_dir"] = str(out_dir)
    if extra:
        cf.merge(cfg, extra)
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the pipeline once through pretrain; later tests build on it."""
    tmp = tmp_path_factory.mktemp("cli")
    out = tmp / "run"
    cfg_path = write_config(tmp, out)
    for command in ("collect-demos", "build-vocab", "pretrain"):
        assert cli.main(["--config", cfg_path, command]) == 0
    return tmp, out, cfg_path


class TestConfig:
    def test_defaults_valid(self):
        cf.validate(cf.load_config())

    def test_seed_overlap_rejected(self):
        cfg = cf.load_config()
        cfg["suites"]["test"]["seeds"] = [0, 1]
        with pytest.raises(cf.ConfigError, match="share seeds"):
            cf.validate(cfg)

    def test_override_parsing(self):
        cfg = cf.load_config()
        cf.apply_overrides(cfg, ["train.rounds=3", "scenario.route_length=90.0"])
        assert cfg["train"]["rounds"] == 3
        assert cfg["scenario"]["route_length"] == 90.0

    def test_unknown_override_rejected(self):
        cfg = cf.load_config()
        with pytest.raises(cf.ConfigError, match="unknown key"):
            cf.apply_overrides(cfg, ["train.nope=1"])
        with pytest.raises(cf.ConfigError, match="form"):
            cf.apply_overrides(cfg, ["no-equals"])

    def test_unknown_kind_rejected(self):
        cfg = cf.load_config()
        cfg["suites"]["train"]["kinds"] = ["Flying"]
        with pytest.raises(cf.ConfigError, match="Flying"):
            cf.expand_suite(cfg, "train")

    def test_object_override_hashes_as_its_dotted_form(self):
        def hashed(*overrides):
            return cf.config_hash(cf.validate(cf.apply_overrides(cf.load_config(),
                                                                 list(overrides))))

        assert hashed('train={"rounds": 3, "po_lr": 1e-5}') == \
            hashed("train.rounds=3", "train.po_lr=1e-5") != hashed()
        assert hashed('train={"po_lr": 1e-6}') == hashed("train.po_lr=1e-6") == hashed()
        assert hashed("scenario={}") == hashed()

    def test_config_hash_ignores_plumbing(self):
        a = cf.load_config()
        b = cf.load_config()
        b["jobs"] = 7
        b["out_dir"] = "/elsewhere"
        assert cf.config_hash(a) == cf.config_hash(b)
        b["seed"] = 99
        assert cf.config_hash(a) != cf.config_hash(b)


class TestDispatch:
    def test_eval_before_any_training_names_producer(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tmp_path / "empty")
        code = cli.main(["--config", cfg_path, "eval"])
        err = capsys.readouterr().err
        assert code == 1
        assert "postopt" in err and "policy.ckpt" in err

    def test_pretrain_before_demos_names_producer(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tmp_path / "empty")
        code = cli.main(["--config", cfg_path, "pretrain"])
        err = capsys.readouterr().err
        assert code == 1 and "collect-demos" in err

    def test_bad_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert cli.main(["--config", str(bad), "report"]) == 1
        bad.write_text("[1]")
        assert cli.main(["--config", str(bad), "report"]) == 1
        out = tmp_path / "x"
        for value in ("jobs=abc", "jobs=2.5", "jobs=true", "demo_subsample=1.5"):
            assert cli.main(["--set", value, "--out-dir", str(out), "report"]) == 1
            assert "must be an integer >= 1" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("override, message", [
        ("seed=abc", "seed must be an integer, got 'abc'"),
        ("policy.k=abc", "policy.k must be an integer, got 'abc'"),
        ("train.rounds=abc", "train.rounds must be an integer, got 'abc'"),
        ("creep_enabled=no", "creep_enabled must be a boolean, got 'no'"),
    ])
    def test_wrongly_typed_value_exits_1(self, tmp_path, capsys, override, message):
        out = tmp_path / "x"
        cfg = cf.apply_overrides(cf.load_config(), [override])
        with pytest.raises(cf.ConfigError, match=message):
            cf.validate(cfg)
        assert cli.main(["--set", override, "--out-dir", str(out), "collect-demos"]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, message", [
        ("train.tau_label=-1.0", "TrainConfig.tau_label must be positive"),
        ("train.tau_label=0", "TrainConfig.tau_label must be positive"),
        ("train.pretrain_lr=0", "TrainConfig.pretrain_lr must be positive"),
        ("train.dagger_lr=-5e-5", "TrainConfig.dagger_lr must be positive"),
        ("train.po_lr=0", "TrainConfig.po_lr must be positive"),
        ("train.takeover_weight=-1.0", "TrainConfig.takeover_weight must be >= 0"),
        ("train.po_lr=Infinity", "TrainConfig.po_lr must be positive and finite"),
        ("train.beta=Infinity", "TrainConfig.beta must be positive and finite"),
        ("train.tau_label=Infinity", "TrainConfig.tau_label must be positive and finite"),
        ("train.takeover_weight=Infinity",
         "TrainConfig.takeover_weight must be >= 0 and finite"),
        ("train.takeover_weight=2.5", "TrainConfig.takeover_weight is a repeat count and "
                                      "must be a whole number, got 2.5"),
        ("train.takeover_weight=0.4", "TrainConfig.takeover_weight is a repeat count and "
                                      "must be a whole number, got 0.4"),
    ])
    @pytest.mark.parametrize("command", ["pretrain", "postopt"])
    def test_bad_train_value_exits_1_before_reading_artifacts(
            self, tmp_path, capsys, command, override, message):
        out = tmp_path / "x"
        assert cli.main(["--set", override, "--out-dir", str(out), command]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "missing artifact" not in err

    @pytest.mark.parametrize("override, message", [
        ("train.po_lr=0", "TrainConfig.po_lr must be positive"),
        ("policy.feature_dim=0", "PolicyConfig.feature_dim must be an integer >= 1, got 0"),
        ("policy.k=-3", "PolicyConfig.k must be an integer >= 1, got -3"),
        ("policy.n_agents=0", "PolicyConfig.n_agents must be an integer >= 1, got 0"),
        ("policy.n_map=0", "PolicyConfig.n_map must be an integer >= 1, got 0"),
        ("expert.lookahead=0", "ExpertConfig.lookahead must be positive"),
        ("expert.time_headway=NaN", "ExpertConfig.time_headway must be positive and finite"),
        ("expert.lookahead=NaN", "ExpertConfig.lookahead must be positive and finite"),
        ("expert.yield_horizon=Infinity", "ExpertConfig.yield_horizon must be positive and finite"),
        ("scenario.speed_limit=Infinity", "speed_limit inf must be finite and positive"),
        ("scenario.route_length=NaN", "route_length nan must be finite and > 20 m"),
    ])
    @pytest.mark.parametrize("command", ["collect-demos", "build-vocab", "eval", "report"])
    def test_bad_section_value_exits_1_under_every_command(
            self, tmp_path, capsys, command, override, message):
        """validate builds every config section, so each command rejects a
        value that the commands using it would, before writing anything."""
        out = tmp_path / "x"
        assert cli.main(["--set", override, "--out-dir", str(out), command]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("expert", "desired_sped"),
                                              ("scenario", "route_len")])
    def test_unknown_config_key_exits_1(self, tmp_path, capsys, section, key):
        cfg = dict(MINI, out_dir=str(tmp_path / "x"), **{section: {key: 50.0}})
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path), "--jobs", "1", "collect-demos"]) == 1
        assert f"unknown key '{section}.{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("override, message", [
        ("suites.train.seeds=[0.5, 1.9]",
         "suite 'train': seed must be an integer, got 0.5"),
        ("suites.train.seeds=[true]", "suite 'train': seed must be an integer, got True"),
        ('suites.train=[{"seed": 3}]', "suites.train must be an object, got [{'seed': 3}]"),
        ("suites.validation.seeds=[100.0]",
         "suite 'validation': seed must be an integer, got 100.0"),
        ('train={"nope": 1}', "unknown key 'train.nope'"),
        ("suites.train=5", "suites.train must be an object, got 5"),
        ("policy=7", "policy must be an object, got 7"),
        ('suites.train={"kinds": ["StopSign"], "seeds": [3], "x": 1}',
         "unknown key 'suites.train.x'"),
        ('suites.train=[{"kind": "StopSign", "seed": 3, "sed": 4}]',
         "suites.train must be an object, got [{'kind': 'StopSign', 'seed': 3, 'sed': 4}]"),
        ("suites.train.seeds=3", "suites.train.seeds must be a list, got 3"),
        ('suites.train.kinds="StopSign"', "suites.train.kinds must be a list, got 'StopSign'"),
        ("suites.train.seeds=[]", "suite 'train' has no episodes"),
        ("suites.validation.seeds=[]", "suite 'validation' has no episodes"),
        ("suites.test.kinds=[]", "suite 'test' has no episodes"),
    ])
    @pytest.mark.parametrize("command", ["report", "collect-demos"])
    def test_bad_suite_entry_exits_1(self, tmp_path, capsys, command, override, message):
        """Every setting enters by one merge rule, and a suite is a non-empty
        {kinds, seeds} object of integer seeds, so a malformed one fails
        before any command writes anything."""
        out = tmp_path / "x"
        assert cli.main(["--set", override, "--out-dir", str(out), command]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_merge_like_set(self, tmp_path, capsys):
        out = str(tmp_path / "x")
        assert cli.main(["--seed", "3", "--jobs", "2", "--out-dir", out, "report"]) == 0
        flags = capsys.readouterr().out
        assert cli.main(["--set", "seed=3", "--set", "jobs=2", "--set", f"out_dir={out}",
                         "report"]) == 0
        assert capsys.readouterr().out == flags

    def test_report_lists_rounds_in_round_order(self, tmp_path, capsys):
        out = tmp_path / "run"
        for i in (2, 10, 1):
            rdir = out / "postopt" / f"round_{i}"
            rdir.mkdir(parents=True)
            (rdir / "report.json").write_text(json.dumps(
                {"takeover_kept": i, "validation": {"mean_ds": float(i)}}))
        assert cli.main(["--out-dir", str(out), "report"]) == 0
        rounds = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("round_")]
        assert rounds == ["round_1", "round_2", "round_10"]

    @pytest.mark.parametrize("field", ["yield_horizon", "forecast_horizon"])
    def test_horizon_shorter_than_a_tick_exits_1_before_any_episode(
            self, tmp_path, capsys, field):
        """A horizon counts whole ticks, so one shorter than a tick is
        refused where it is configured: it would leave the corridor-entry
        table or the collision forecast without an instant."""
        out = tmp_path / "x"
        assert cli.main(["--set", f"expert.{field}=0.04", "--set",
                         'suites.train={"kinds":["GiveWay"],"seeds":[0]}',
                         "--out-dir", str(out), "collect-demos"]) == 1
        err = capsys.readouterr().err
        assert f"error: ExpertConfig.{field} must be at least one tick (0.05 s), got 0.04" in err
        assert not out.exists()

    def test_seed_overlap_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tmp_path / "x",
                                extra={"suites": {"test": {"seeds": [0]}}})
        assert cli.main(["--config", cfg_path, "report"]) == 1

    def test_misconfigured_expert_exits_2_with_limit(self, tmp_path, capsys,
                                                     monkeypatch):
        # an expert that floors the throttle rear-ends the braking lead
        def reckless(w, cfg):
            wp = np.stack([np.arange(1, 7) * 4.0, np.zeros(6)], axis=1)
            return xp.ExpertLabel(waypoints=wp,
                                  command=sim.ControlCommand(throttle=1.0))
        monkeypatch.setattr(ds.xp, "expert_act", reckless)
        # with demo_subsample > 1 the ticks left out drive on expert_command
        monkeypatch.setattr(ds.xp, "expert_command", lambda w, cfg: reckless(w, cfg).command)
        cfg_path = write_config(tmp_path, tmp_path / "bad", extra={
            "suites": {"train": {"kinds": ["EmergencyBrake"], "seeds": [0]}}})
        code = cli.main(["--config", cfg_path, "--jobs", "1", "collect-demos"])
        err = capsys.readouterr().err
        assert code == 2
        assert "expert misconfigured: 1/1 episodes had infractions (limit 20%)" in err

    def test_pipeline_artifacts_exist(self, pipeline):
        _, out, _ = pipeline
        assert (out / "demos.jsonl").exists()
        assert (out / "vocab.jsonl").exists()
        assert (out / "pretrained.ckpt").exists()
        hist = json.loads((out / "pretrain_history.json").read_text())
        assert set(hist) == {"trajectory", "control", "joint"}

    def test_postopt_zero_rounds_copies_checkpoint(self, pipeline):
        tmp, out, cfg_path = pipeline
        assert cli.main(["--config", cfg_path, "--set", "train.rounds=0", "postopt"]) == 0
        assert (out / "postopt" / "policy.ckpt").read_bytes() == \
            (out / "pretrained.ckpt").read_bytes()

    def test_postopt_negative_rounds_exits_1_writing_nothing(self, pipeline, capsys):
        tmp, out, cfg_path = pipeline
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert cli.main(["--config", cfg_path, "--set", "train.rounds=-1", "postopt"]) == 1
        assert "error: TrainConfig.rounds must be >= 0" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("fault, code, printed", [
        (ZeroDivisionError, 2, "runtime failure: ZeroDivisionError: "),
        (ValueError, 1, "error: "),
    ])
    def test_postopt_failure_prints_its_place(self, pipeline, tmp_path, capsys, monkeypatch,
                                              fault, code, printed):
        """A failure mid-`postopt` keeps its exit code (1 for a ValueError, 2
        for any other) and prints the whole located message."""
        _, out, cfg_path = pipeline
        real = sim.advance_world

        def advance(w, cmd):
            if w.tick == 3:
                raise fault("world fault")
            real(w, cmd)

        monkeypatch.setattr(sim, "advance_world", advance)
        run = tmp_path / "run"     # postopt's inputs only, whatever ran before
        run.mkdir()
        for name in ("demos.jsonl", "vocab.jsonl", "pretrained.ckpt"):
            shutil.copy(out / name, run / name)
        assert cli.main(["--config", cfg_path, "--out-dir", str(run), "--jobs", "1",
                         "postopt"]) == code
        assert capsys.readouterr().err == \
            f"{printed}round 1 shadow: EmergencyBrake:0 tick 3: world fault\n"
        assert not (run / "postopt" / "policy.ckpt").exists()

    @pytest.mark.parametrize("command, name, edit, message", [
        ("build-vocab", "demos.jsonl", lambda rec: 5, "demos.jsonl:2: malformed sample record"),
        ("build-vocab", "demos.jsonl", lambda rec: [1, 2], "demos.jsonl:2: malformed sample record"),
        ("build-vocab", "demos.jsonl", lambda rec: {**rec, "agent_feats": [{"x": 1.0}]},
         "demos.jsonl:2: malformed sample record"),
        ("build-vocab", "demos.jsonl", lambda rec: {**rec, "time": None},
         "demos.jsonl:2: malformed sample record (time: None is not a finite number)"),
        ("build-vocab", "demos.jsonl", lambda rec: {**rec, "traj_waypoints": [[1.0, 2.0]]},
         "demos.jsonl:2: malformed sample record (traj_waypoints: shape (1, 2) is not (6, 2))"),
        ("build-vocab", "demos.jsonl", lambda rec: {**rec, "ctrl_indices": [7, 0, 0]},
         "demos.jsonl:2: malformed sample record (ctrl_indices: (7, 0, 0) is outside"),
        ("build-vocab", "demos.jsonl", lambda rec: {**rec, "cmd_onehot": [2.0] + [0] * 6},
         "demos.jsonl:2: malformed sample record (cmd_onehot: [2.0, 0.0, 0.0, 0.0, 0.0, 0.0, "
         "0.0] is not one-hot"),
        ("pretrain", "vocab.jsonl", lambda rec: 5, "vocab.jsonl:2: malformed vocabulary line"),
        ("pretrain", "vocab.jsonl", lambda rec: {**rec, "waypoints": [{"x": 1.0}] * 12},
         "vocab.jsonl:2: malformed vocabulary line"),
        ("pretrain", "vocab.jsonl", lambda rec: {**rec, "waypoints": [True] + [1.5] * 11},
         "vocab.jsonl:2: malformed vocabulary line (waypoints: True is not a finite number)"),
        ("pretrain", "vocab.jsonl", lambda rec: {**rec, "waypoints": [float("nan")] * 12},
         "vocab.jsonl:2: malformed vocabulary line (waypoints: nan is not a finite number)"),
    ], ids=["demos-int", "demos-list", "demos-object", "demos-null-time",
            "demos-one-waypoint", "demos-control-out-of-group", "demos-not-one-hot",
            "vocab-int", "vocab-object", "vocab-bool", "vocab-nan"])
    def test_a_malformed_record_exits_1(self, pipeline, tmp_path, capsys,
                                        command, name, edit, message):
        """A line of valid JSON that is not a record, a record field outside
        its shape or domain, or a vocabulary center that is not finite, is
        an input error naming the file."""
        _, out, cfg_path = pipeline
        run = tmp_path / "run"
        run.mkdir()
        for artifact in ("demos.jsonl", "vocab.jsonl"):
            shutil.copy(out / artifact, run / artifact)
        lines = (run / name).read_text().splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        (run / name).write_text("\n".join(lines) + "\n")
        assert cli.main(["--config", cfg_path, "--out-dir", str(run), command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err

    def test_eval_and_report(self, pipeline, capsys):
        tmp, out, cfg_path = pipeline
        assert cli.main(["--config", cfg_path, "eval",
                         "--checkpoint", str(out / "pretrained.ckpt")]) == 0
        rep = json.loads((out / "eval_report.json").read_text())
        assert rep["episodes"] == 2
        assert cli.main(["--config", cfg_path, "report"]) == 0
        text = capsys.readouterr().out
        assert "config hash" in text

    def test_rerun_reproduces_identical_outputs(self, pipeline, tmp_path):
        tmp, out, cfg_path = pipeline
        out2 = tmp_path / "rerun"
        cfg2 = write_config(tmp_path, out2)
        for command in ("collect-demos", "build-vocab", "pretrain"):
            assert cli.main(["--config", cfg2, command]) == 0
        for name in ("demos.jsonl", "vocab.jsonl", "pretrained.ckpt"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_jobs_parallel_matches_serial(self, pipeline, tmp_path):
        tmp, out, cfg_path = pipeline
        out2 = tmp_path / "par"
        cfg2 = write_config(tmp_path, out2)
        assert cli.main(["--config", cfg2, "--jobs", "4", "collect-demos"]) == 0
        assert (out / "demos.jsonl").read_bytes() == \
            (out2 / "demos.jsonl").read_bytes()

    def test_help_lists_all_commands(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        text = capsys.readouterr().out
        for name in ("collect-demos", "build-vocab", "pretrain",
                     "postopt", "eval", "report"):
            assert name in text
