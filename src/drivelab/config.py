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
    "scenario": {"route_length": sim.ROUTE_LENGTH, "speed_limit": sim.SPEED_LIMIT},
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
        merge(cfg, user)
    return cfg


def merge(base, extra, prefix=""):
    """The one rule by which a setting enters a config, from a config file,
    --set or a CLI flag: each key must name an entry of the defaults; where
    the default is a section, the value must be an object and is merged key
    by key; any other value replaces the default."""
    for k, v in extra.items():
        path = prefix + k
        if k not in base:
            raise ConfigError(f"unknown key {path!r}")
        if isinstance(base[k], dict):
            if not isinstance(v, dict):
                raise ConfigError(f"{path} must be an object, got {v!r}")
            merge(base[k], v, path + ".")
        else:
            base[k] = v


def apply_overrides(cfg, overrides):
    """Merge --set key.path=value pairs, each as the object {key: {path:
    value}}; values parse as JSON, falling back to plain strings."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):
            value = {part: value}
        merge(cfg, value)
    return cfg


def expand_suite(cfg, name):
    """A suite is {kinds, seeds}, run as their full product: each kind names
    a scenario and each seed is an integer."""
    entry, sc = cfg["suites"][name], cfg["scenario"]
    for kind in entry["kinds"]:
        if kind not in sim.SCENARIO_KINDS:
            raise ConfigError(f"suite {name!r}: unknown scenario kind {kind!r}")
    for seed in entry["seeds"]:
        if type(seed) is not int:
            raise ConfigError(f"suite {name!r}: seed must be an integer, got {seed!r}")
    if not entry["kinds"] or not entry["seeds"]:
        raise ConfigError(f"suite {name!r} has no episodes")
    return [sim.ScenarioSpec(kind=k, seed=s, route_length=sc["route_length"],
                             speed_limit=sc["speed_limit"])
            for k in entry["kinds"] for s in entry["seeds"]]


def policy_config(cfg):
    return PolicyConfig(init_seed=cfg["seed"], **cfg["policy"])


def expert_config(cfg):
    return ExpertConfig(**cfg["expert"])


def train_config(cfg):
    return TrainConfig(seed=cfg["seed"], **cfg["train"])


def validate(cfg):
    """Check a config before any command runs: types, suites, and every
    section that builds a config class (which checks its own values), so
    each command rejects what any command would."""
    _check_types(cfg, DEFAULT_CONFIG)
    train_seeds = {s.seed for s in expand_suite(cfg, "train")}
    expand_suite(cfg, "validation")
    test_seeds = {s.seed for s in expand_suite(cfg, "test")}
    overlap = train_seeds & test_seeds
    if overlap:
        raise ConfigError(f"train and test suites share seeds {sorted(overlap)}")
    for build in (policy_config, expert_config, train_config):
        build(cfg)
    return cfg


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list"}
_AT_LEAST_ONE = ("jobs", "demo_subsample")     # a worker count and a stride


def _check_types(node, defaults, prefix=""):
    """The rule for every entry that is not a section: it has the type of
    its default. An int counts for a float; a bool counts for neither."""
    for key, value in node.items():
        default, path = defaults.get(key), prefix + key
        if isinstance(default, dict) and isinstance(value, dict):
            _check_types(value, default, path + ".")
        elif type(default) in _TYPE_NAMES:
            want = type(default)
            ok = type(value) is want or (want is float and type(value) is int)
            if not ok or (path in _AT_LEAST_ONE and value < 1):
                bound = " >= 1" if path in _AT_LEAST_ONE else ""
                raise ConfigError(f"{path} must be {_TYPE_NAMES[want]}{bound}, got {value!r}")


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
