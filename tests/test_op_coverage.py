"""The autodiff engine holds only the ops the pipeline calls, each defined once.

Every method of the classes in `drivelab.autodiff` (`__init__` excepted,
dunders included) and every function defined there is wrapped at each
module that looks it up. A tiny pretrain, DAgger epoch, margin pass,
preference epoch, inference, checkpoint round trip and the pickle round
trip that sends the policy to `--jobs` workers then run, and any op none of
them called fails the test. A Tensor method with the name of a module-level
function would be a second definition of that op, and fails the second test.
"""

import functools
import inspect
import pickle
import sys

import numpy as np

import drivelab.cli  # noqa: F401 - imports every module of the package
from drivelab import autodiff as ad
from drivelab import dataset as ds
from drivelab import policy as pol
from drivelab import training as tr
from drivelab import vocab


def _counting(key, fn, called):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        called.add(key)
        return fn(*args, **kwargs)
    return wrapper


def _wrap_ops(monkeypatch, called):
    ops = set()
    for cls_name, cls in vars(ad).items():
        if not (inspect.isclass(cls) and cls.__module__ == ad.__name__):
            continue
        for name, member in vars(cls).items():
            key = f"{cls_name}.{name}"
            if inspect.isfunction(member) and name != "__init__":
                monkeypatch.setattr(cls, name, _counting(key, member, called))
            elif isinstance(member, property):
                monkeypatch.setattr(cls, name, property(_counting(key, member.fget, called)))
            else:
                continue
            ops.add(key)
    functions = {fn: name for name, fn in vars(ad).items()
                 if inspect.isfunction(fn) and fn.__module__ == ad.__name__}
    modules = [m for n, m in sys.modules.items() if n.startswith("drivelab.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in functions:
                key = functions[value]
                monkeypatch.setattr(module, attr, _counting(key, value, called))
                ops.add(key)
    return ops


def _sample(rng, cls=ds.DemoSample, **extra):
    return cls(agent_feats=rng.normal(size=(2, pol.AGENT_FEATURES)),
               map_feats=rng.normal(size=(4, pol.MAP_FEATURES)),
               cmd_onehot=np.eye(7)[3], traj_waypoints=rng.normal(0, 3.0, size=(6, 2)),
               ctrl_indices=(int(rng.integers(5)), int(rng.integers(2)),
                             int(rng.integers(9))),
               scenario_id="StopSign:0", time=0.0, **extra)


def test_every_autodiff_op_is_used(monkeypatch, tmp_path):
    called = set()
    ops = _wrap_ops(monkeypatch, called)
    rng = np.random.default_rng(0)
    policy = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4),
                        vocab.TrajectoryVocabulary(rng.normal(0, 3.0, size=(4, 6, 2))),
                        vocab.ControlVocabulary())
    demo = ds.Dataset([_sample(rng) for _ in range(4)], kind="demo")
    takeover = ds.Dataset(
        [_sample(rng, ds.TakeoverSample, segment_id=f"s{i}", round_index=1, ego_speed=3.0)
         for i in range(2)], kind="takeover")
    cfg = tr.TrainConfig(pretrain_epochs=1, batch_size=2, seed=0)

    tr.pretrain(policy, demo, cfg)
    tr.dagger_epoch(policy, ds.MergedDataset(demo, [takeover], cfg.takeover_weight), cfg,
                    np.random.default_rng(1))
    tr.mean_margin(policy, takeover.samples, cfg)
    tr.po_epoch(policy, takeover.samples, cfg, ad.Adam(policy.params, lr=cfg.po_lr))
    policy.infer(takeover.samples[0], {})
    policy.save(tmp_path / "p.ckpt")
    policy.load(tmp_path / "p.ckpt")
    pickle.loads(pickle.dumps(policy))

    unused = sorted(ops - called)
    assert not unused, f"autodiff ops the pipeline never calls: {unused}"


def test_no_tensor_method_repeats_a_module_op():
    functions = {name for name, fn in vars(ad).items()
                 if inspect.isfunction(fn) and fn.__module__ == ad.__name__}
    both = sorted(functions & set(dir(ad.Tensor)))
    assert not both, f"Tensor attributes named like autodiff functions: {both}"
