import json
import os

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
        cf._deep_update(cfg, extra)
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

    def test_explicit_suite_lists(self):
        cfg = cf.load_config()
        cfg["suites"]["train"] = [{"kind": "StopSign", "seed": 3}]
        suite = cf.expand_suite(cfg, "train")
        assert len(suite) == 1 and suite[0].kind == "StopSign"

    def test_unknown_kind_rejected(self):
        cfg = cf.load_config()
        cfg["suites"]["train"]["kinds"] = ["Flying"]
        with pytest.raises(cf.ConfigError, match="Flying"):
            cf.expand_suite(cfg, "train")

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
    ])
    @pytest.mark.parametrize("command", ["pretrain", "postopt"])
    def test_bad_train_value_exits_1_before_reading_artifacts(
            self, tmp_path, capsys, command, override, message):
        out = tmp_path / "x"
        assert cli.main(["--set", override, "--out-dir", str(out), command]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "missing artifact" not in err

    @pytest.mark.parametrize("section, key", [("expert", "desired_sped"),
                                              ("scenario", "route_len")])
    def test_unknown_config_key_exits_1(self, tmp_path, capsys, section, key):
        cfg = dict(MINI, out_dir=str(tmp_path / "x"), **{section: {key: 50.0}})
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path), "--jobs", "1", "collect-demos"]) == 1
        assert f"unknown key '{section}.{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_seed_overlap_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tmp_path / "x",
                                extra={"suites": {"test": {"seeds": [0]}}})
        assert cli.main(["--config", cfg_path, "report"]) == 1

    def test_misconfigured_expert_exits_2_with_limit(self, tmp_path, capsys,
                                                     monkeypatch):
        # an expert that floors the throttle rear-ends the braking lead
        def reckless(w, cfg, control_vocab=None):
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
        assert cli.main(["--config", cfg_path, "postopt", "--rounds", "0"]) == 0
        assert (out / "postopt" / "policy.ckpt").read_bytes() == \
            (out / "pretrained.ckpt").read_bytes()

    def test_postopt_negative_rounds_exits_1_writing_nothing(self, pipeline, capsys):
        tmp, out, cfg_path = pipeline
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert cli.main(["--config", cfg_path, "postopt", "--rounds", "-1"]) == 1
        assert "error: TrainConfig.rounds must be >= 0" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

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
