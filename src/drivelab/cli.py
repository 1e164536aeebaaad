"""Command-line pipeline driver.

Subcommands mirror the pipeline phases: collect-demos, build-vocab, pretrain,
postopt, eval, report. Every artifact lands under the configured output
directory; later commands locate earlier outputs by path and fail with the
producing command's name when one is missing.
"""

import argparse
import json
import os
import shutil
import sys

import numpy as np

from . import dataset as ds
from . import metrics as bench
from . import training as tr
from .config import (ConfigError, apply_overrides, config_hash, expand_suite, expert_config,
                     file_hash, load_config, merge, policy_config, train_config, validate)
from .policy import Policy
from .vocab import ControlVocabulary, TrajectoryVocabulary, build_vocabulary


class MissingArtifactError(ValueError):
    pass


def _path(cfg, key):
    return os.path.join(cfg["out_dir"], cfg["paths"][key])


def _require(path, producer):
    if not os.path.exists(path):
        raise MissingArtifactError(
            f"missing artifact {path}; run `drivelab {producer}` first")
    return path


def _load_policy(cfg, ckpt_path):
    vocab = TrajectoryVocabulary.load(_require(_path(cfg, "vocab"), "build-vocab"))
    policy = Policy(policy_config(cfg), vocab, ControlVocabulary())
    policy.load(ckpt_path)
    return policy


# -- subcommands --------------------------------------------------------------


def cmd_collect_demos(cfg, args):
    out = ds.collect_demos(expand_suite(cfg, "train"), expert_config(cfg), policy_config(cfg),
                           ControlVocabulary(), subsample=cfg["demo_subsample"],
                           jobs=cfg["jobs"])
    ds.persist(out, _path(cfg, "demos"))
    print(f"collected {len(out)} demonstration samples "
          f"({out.manifest['episodes_discarded']} episodes discarded) -> {_path(cfg, 'demos')}")


def cmd_build_vocab(cfg, args):
    demos = ds.load(_require(_path(cfg, "demos"), "collect-demos"))
    trajs = np.stack([s.traj_waypoints for s in demos.samples])
    vocab = build_vocabulary(trajs, k=cfg["policy"]["k"], seed=cfg["seed"])
    vocab.save(_path(cfg, "vocab"))
    print(f"built {vocab.k}-entry trajectory vocabulary "
          f"(hash {vocab.hash()}) -> {_path(cfg, 'vocab')}")


def cmd_pretrain(cfg, args):
    tcfg = train_config(cfg)
    demos = ds.load(_require(_path(cfg, "demos"), "collect-demos"))
    vocab = TrajectoryVocabulary.load(_require(_path(cfg, "vocab"), "build-vocab"))
    policy = Policy(policy_config(cfg), vocab, ControlVocabulary())
    history = tr.pretrain(policy, demos, tcfg, progress=lambda m: print(m))
    policy.save(_path(cfg, "pretrained"),
                extra_meta={"config_hash": config_hash(cfg)})
    with open(_path(cfg, "pretrain_history"), "w") as f:
        json.dump(history, f, indent=2)
    print(f"pretrained checkpoint -> {_path(cfg, 'pretrained')}")


def cmd_postopt(cfg, args):
    tcfg = train_config(cfg)
    ckpt = _require(_path(cfg, "pretrained"), "pretrain")
    final = _path(cfg, "final")
    os.makedirs(os.path.dirname(final), exist_ok=True)
    if tcfg.rounds == 0:
        shutil.copyfile(ckpt, final)
        print(f"0 rounds requested: checkpoint copied unchanged -> {final}")
        return
    policy = _load_policy(cfg, ckpt)
    demos = ds.load(_require(_path(cfg, "demos"), "collect-demos"))
    suite = expand_suite(cfg, "train")
    val_suite = expand_suite(cfg, "validation")

    def evaluate(pol):
        report, _ = bench.evaluate_suite(pol, val_suite, creep_enabled=cfg["creep_enabled"],
                                         jobs=cfg["jobs"])
        return {"mean_ds": report.mean_ds, "sr": report.sr}

    out_dir = os.path.join(cfg["out_dir"], cfg["paths"]["postopt_dir"])
    policy, reports = tr.post_optimize(policy, demos, suite, expert_config(cfg),
                                       tcfg, out_dir, evaluate=evaluate,
                                       progress=lambda m: print(m), jobs=cfg["jobs"])
    policy.save(final, extra_meta={"config_hash": config_hash(cfg)})
    bench.write_trend_csv(reports, _path(cfg, "trend"))
    print(f"post-optimized checkpoint -> {final}")


def cmd_eval(cfg, args):
    ckpt = args.checkpoint or _path(cfg, "final")
    producer = "postopt" if args.checkpoint is None else "pretrain"
    policy = _load_policy(cfg, _require(ckpt, producer))
    report, _ = bench.evaluate_suite(policy, expand_suite(cfg, "test"),
                                     creep_enabled=cfg["creep_enabled"], jobs=cfg["jobs"])
    report.config_hash = config_hash(cfg)
    report.checkpoint_hash = file_hash(ckpt)
    with open(_path(cfg, "eval_report"), "w") as f:
        f.write(report.to_json() + "\n")
    with open(_path(cfg, "eval_table"), "w") as f:
        f.write(report.to_text() + "\n")
    print(report.to_text())


def cmd_report(cfg, args):
    print(f"config hash: {config_hash(cfg)}")
    for key in ("demos", "vocab", "pretrained", "final", "eval_report"):
        path = _path(cfg, key)
        if os.path.exists(path):
            print(f"{key:<12}{file_hash(path)}  {path}")
        else:
            print(f"{key:<12}{'(absent)':<18}{path}")
    table = _path(cfg, "eval_table")
    if os.path.exists(table):
        print()
        with open(table) as f:
            print(f.read().rstrip())
    postopt_dir = os.path.join(cfg["out_dir"], cfg["paths"]["postopt_dir"])
    if os.path.isdir(postopt_dir):
        for name in sorted(os.listdir(postopt_dir), key=lambda n: (len(n), n)):
            rpath = os.path.join(postopt_dir, name, "report.json")
            if os.path.exists(rpath):
                with open(rpath) as f:
                    rep = json.load(f)
                val = rep.get("validation", {})
                print(f"{name}: kept {rep.get('takeover_kept')} takeover samples, "
                      f"validation DS {val.get('mean_ds', float('nan')):.2f}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drivelab",
        description="Closed-loop driving laboratory: imitation pre-training, "
                    "takeover collection, and preference post-optimization.")
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry (dotted path, JSON value)")
    parser.add_argument("--seed", type=int, help="global seed override")
    parser.add_argument("--jobs", type=int, help="parallel episode workers")
    parser.add_argument("--out-dir", help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, doc in (
            ("collect-demos", cmd_collect_demos, "run the expert over the training suite"),
            ("build-vocab", cmd_build_vocab, "cluster demonstrations into the trajectory vocabulary"),
            ("pretrain", cmd_pretrain, "staged imitation pre-training"),
            ("postopt", cmd_postopt, "multi-round takeover + preference optimization loop"),
            ("eval", cmd_eval, "closed-loop evaluation on the test suite"),
            ("report", cmd_report, "summarize artifacts and their hashes")):
        p = sub.add_parser(name, help=doc)
        p.set_defaults(func=fn)
        if name == "eval":
            p.add_argument("--checkpoint", default=None,
                           help="checkpoint to evaluate (default: the post-optimized one)")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.set)
        flags = {k: getattr(args, k) for k in ("seed", "jobs", "out_dir")}
        merge(cfg, {k: v for k, v in flags.items() if v is not None})
        validate(cfg)
        os.makedirs(cfg["out_dir"], exist_ok=True)
        args.func(cfg, args)
        return 0
    except (ConfigError, MissingArtifactError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime failures exit 2
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
