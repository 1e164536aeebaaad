"""Run configuration: a single JSON file with defaults, dotted-key overrides,
suite expansion, and content hashing for provenance."""

import copy
import hashlib
import json
from dataclasses import asdict

from . import world as sim
from .expert import ExpertConfig
from .policy import PolicyConfig
from .training import TrainConfig


class ConfigError(ValueError):
    """Invalid configuration contents."""


def _defaults(config_class, *exclude):
    """A config section: the dataclass defaults, less the fields set from
    the top-level "seed"."""
    return {k: v for k, v in asdict(config_class()).items() if k not in exclude}


DEFAULT_CONFIG = {
    "seed": 0,
    "out_dir": "runs/default",
    "jobs": 1,
    "paths": {
        "demos": "demos.jsonl",
        "vocab": "vocab.jsonl",
        "pretrained": "pretrained.ckpt",
        "pretrain_history": "pretrain_history.json",
        "postopt_dir": "postopt",
        "final": "postopt/policy.ckpt",
        "takeover": "takeover_probe.jsonl",
        "eval_report": "eval_report.json",
        "eval_table": "eval_report.txt",
        "trend": "trend.csv",
    },
    "suites": {
        "train": {"kinds": list(sim.SCENARIO_KINDS), "seeds": [0, 1, 2, 3]},
        "validation": {"kinds": list(sim.SCENARIO_KINDS), "seeds": [100, 101]},
        "test": {"kinds": list(sim.SCENARIO_KINDS), "seeds": [200, 201, 202, 203, 204]},
    },
    "policy": _defaults(PolicyConfig, "init_seed"),
    "expert": _defaults(ExpertConfig),
    "train": _defaults(TrainConfig, "seed"),
    "demo_subsample": 1,        # keep every n-th demonstration frame
    "creep_enabled": True,
    "scenario": {"route_length": 120.0, "speed_limit": 8.0},
}


def load_config(path=None):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as f:
                user = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})")
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: not a JSON object")
        _deep_update(cfg, user)
    return cfg


def _check_key(node, key, path):
    """The rule for every key a user sets, from a config file or --set: it
    must name an entry of the defaults. `path` is its dotted key path."""
    if not isinstance(node, dict) or key not in node:
        raise ConfigError(f"unknown key {path!r}")


def _deep_update(base, extra, prefix=""):
    for k, v in extra.items():
        _check_key(base, k, prefix + k)
        if isinstance(v, dict) and isinstance(base[k], dict):
            _deep_update(base[k], v, f"{prefix}{k}.")
        else:
            base[k] = v


def apply_overrides(cfg, overrides):
    """Apply --set key.path=value pairs; values parse as JSON, falling back
    to plain strings."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            _check_key(node, p, key)
            node = node[p]
        _check_key(node, parts[-1], key)
        node[parts[-1]] = value
    return cfg


def expand_suite(cfg, name):
    """A suite entry is either {kinds, seeds} (full product) or an explicit
    list of {kind, seed} records."""
    entry = cfg["suites"].get(name)
    if entry is None:
        raise ConfigError(f"no suite named {name!r}")
    sc = cfg["scenario"]
    if isinstance(entry, list):
        items = [(e["kind"], int(e["seed"])) for e in entry]
    else:
        items = [(k, int(s)) for k in entry["kinds"] for s in entry["seeds"]]
    for kind, _ in items:
        if kind not in sim.SCENARIO_KINDS:
            raise ConfigError(f"suite {name!r}: unknown scenario kind {kind!r}")
    return [sim.ScenarioSpec(kind=k, seed=s, route_length=sc["route_length"],
                             speed_limit=sc["speed_limit"]) for k, s in items]


def validate(cfg):
    train_seeds = {s.seed for s in expand_suite(cfg, "train")}
    test_seeds = {s.seed for s in expand_suite(cfg, "test")}
    overlap = train_seeds & test_seeds
    if overlap:
        raise ConfigError(f"train and test suites share seeds {sorted(overlap)}")
    if cfg["jobs"] < 1:
        raise ConfigError("jobs must be >= 1")
    if cfg["demo_subsample"] < 1:
        raise ConfigError("demo_subsample must be >= 1")
    return cfg


def config_hash(cfg):
    """Hash of the result-determining config entries. Plumbing knobs that
    cannot change any artifact's content (worker count, output location) are
    excluded so reruns compare equal."""
    semantic = {k: v for k, v in cfg.items() if k not in ("jobs", "out_dir", "paths")}
    return hashlib.sha256(
        json.dumps(semantic, sort_keys=True).encode()).hexdigest()[:16]


def file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]
