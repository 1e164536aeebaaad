"""No code lives in `src/drivelab` unless the package itself refers to it.

Every top-level function, class, method (dunders excepted) and module
constant must be referenced somewhere in the package besides its own
definition: as a loaded name, an attribute, or an imported name.

No state is written that nothing reads, and no parameter has one value:

- every dataclass field declared in the package, and every `self.name`
  a package class assigns, is read by attribute name (`x.name` loaded, or
  `getattr(x, "name")`); constructor keywords, assignments and generic
  `fields()`/`vars()` walks, like `dataset.persist`'s, do not count;
- every defaulted parameter of a package function or method has a call
  that passes it a value other than its default (a class call counts for
  `__init__`, `partial(f, ...)` as a call of `f`).

Readers are searched in `src/drivelab`, `demos/`, `perfbench/` and
`tests/`. The tests count because some package code exists for them:
`tests/test_policy.py` and `tests/test_metrics.py` compare `infer`'s
`PolicyOutput.d_traj` and `d_ctrl` bit for bit with `predict`, the only
check of `NeuralDriver`'s caches. Callers are searched in `src/drivelab`,
`demos/` and `perfbench/` only: a value that only a test passes is a
module constant the test patches. Two defaults are exempt: `cli.main`'s
`argv`, the CLI's entry seam, and `dataset.load`'s `expect_vocab_hash`,
an input check the pipeline does not call yet.

Matching is by bare name, as in the reference check, so a dead field or
attribute that shares its name with a live one, or a parameter of a method
that shares its name with another, can pass unseen.

The package also has one episode loop: `metrics.run_episode` is the only
function that builds or steps a world; one rule that engages the
closed-loop driver: `metrics.NeuralDriver` builds the only PID tracker and
safety creep, at an episode's start and at a handback; one box test:
`world.rects_collide` decides both a forecast collision and a logged
contact; one rule for a failure's place: no `except` clause singles
out `NonFiniteError`; and one home for each frame change: `world.to_ego`
writes the only world-to-ego rotation and `world.left_of` the only offset
along a heading's normal, besides `world.rects_collide`'s box axes; one
rollout: `world.step_kinematics` moves the ego in `advance_world` and
the virtual ego in `expert._rollout` only, and `expert_command` and
`expert_act` both run that rollout; and one corridor-entry query:
`expert._Forecast` alone calls `Route.clear_of` and `Route.project_many`,
and `expert._rollout` alone calls its `first_entry`. A `Policy` holds its
parameters and its network, and nothing a call changes. A setting enters a run config one way, through `config.merge`.
"""

import ast
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "drivelab"
CALLERS = (PACKAGE, REPO / "demos", REPO / "perfbench")
READERS = CALLERS + (REPO / "tests",)
EXEMPT_DEFAULTS = ["load(expect_vocab_hash)", "main(argv)"]


def _definitions(module, tree):
    """(qualified name, bare name) of each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield f"{module}.{t.id}", t.id


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _trees():
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def unreferenced_names():
    trees = _trees()
    used = {name for tree in trees.values() for name in _references(tree)}
    return sorted(qual for module, tree in trees.items()
                  for qual, name in _definitions(module, tree) if name not in used)


def test_every_definition_is_referenced():
    dead = unreferenced_names()
    assert not dead, f"defined in src/drivelab but never referenced there: {dead}"


def call_sites(name):
    """(module, enclosing top-level function or class) of every call in the
    package to a function named `name`, plain or as an attribute."""
    sites = []
    for module, tree in _trees().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _callee(node.func) == name:
                    sites.append((module, getattr(top, "name", None)))
    return sites


def test_one_episode_loop():
    for name in ("reset", "advance_world"):
        assert call_sites(name) == [("metrics", "run_episode")], name


def test_one_way_into_a_config():
    """A setting enters a run config, from a config file, `--set` or a CLI
    flag, only through `config.merge`: it holds the only subscript
    assignment in `config.py` and `cli.py`."""
    trees = _trees()
    sites = [(module, getattr(top, "name", None)) for module in ("config", "cli")
             for top in trees[module].body for t in _assignment_targets(top)
             if isinstance(t, ast.Subscript)]
    assert sites == [("config", "merge")], sites


def test_one_inference_site():
    """Only the closed-loop driver runs `infer`: stored samples go to the
    network in batches, through `forward`."""
    assert call_sites("infer") == [("metrics", "NeuralDriver")]


def test_one_rule_engages_the_driver():
    """A new episode and a handback give the closed-loop driver its
    controller state by one rule, `NeuralDriver.engage`: it builds the only
    PID tracker and safety creep, and shadow collection calls it at
    handback."""
    for name in ("PidTracker", "SafetyCreep"):
        assert call_sites(name) == [("metrics", "NeuralDriver")], name
    assert call_sites("engage") == [("dataset", "_ShadowDriver"), ("metrics", "NeuralDriver")]


def test_one_box_test():
    """The takeover trigger's collision forecast and the infraction log
    share one overlap test for two boxes."""
    assert call_sites("rects_collide") == [("expert", "forecast_collision"),
                                           ("world", "detect_collisions")]


def test_one_rollout():
    """The bicycle model steps the world's ego and the expert's virtual ego
    and nothing else, and the expert's command is step 0 of the same
    rollout that plans its trajectory, so the two cannot drift apart."""
    assert call_sites("step_kinematics") == [("expert", "_rollout"),
                                             ("world", "advance_world")]
    assert call_sites("_rollout") == [("expert", "expert_command"), ("expert", "expert_act")]


def test_one_corridor_entry_query():
    """Where an actor's straight-line motion enters the lane corridor is
    decided in one place: only `expert._Forecast` certifies a clear actor
    (`Route.clear_of`) or projects its table (`Route.project_many`), and
    only `expert._rollout` asks it, through `first_entry`."""
    for name in ("clear_of", "project_many"):
        assert call_sites(name) == [("expert", "_Forecast")], name
    assert call_sites("first_entry") == [("expert", "_rollout")]


def test_one_tick_record():
    """One site records what a tick did: `advance_world` builds the only
    Frame, and the trace of Frames is the episode's only infraction log."""
    assert call_sites("Frame") == [("world", "advance_world")]


def test_policy_keeps_no_per_call_state():
    """After `forward`, `predict` and `infer`, a Policy has exactly the
    attributes its `__init__` set: the closed-loop caches belong to the
    `metrics.NeuralDriver` that runs the episode."""
    from drivelab import policy as pol, world as sim
    from drivelab.vocab import TrajectoryVocabulary
    p = pol.Policy(pol.PolicyConfig(feature_dim=8, k=4), TrajectoryVocabulary(
        np.random.default_rng(0).normal(0, 3.0, size=(4, 6, 2))))
    snap = pol.encode_scene(sim.reset(sim.ScenarioSpec("EmergencyBrake", 0)), p.cfg)
    p.forward([snap])
    p.predict([snap])
    p.infer(snap, {})
    assert sorted(vars(p)) == ["_posenc", "cfg", "ctrl_vocab", "params", "traj_vocab"]


def test_tensors_are_built_only_in_autodiff():
    """Inputs, targets and masks are plain arrays, constants that join no
    graph: only the engine's own ops build a Tensor."""
    sites = call_sites("Tensor")
    assert sites and all(module == "autodiff" for module, _ in sites), sites


def test_no_handler_singles_out_nonfinite_errors():
    """A failure's place is added by `metrics.located` for every exception
    alike, so no `except` clause in the package names `NonFiniteError`."""
    handlers = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node.type) if isinstance(n, (ast.Name, ast.Attribute))}
                if "NonFiniteError" in names:
                    handlers.append(f"{module}:{node.lineno}")
    assert not handlers, f"except clauses naming NonFiniteError: {handlers}"


def _projects_the_ego(call):
    """A call `<route>.project(<...>.ego.x, ...)` or `<route>.project(ego.x, ...)`."""
    f = call.func
    if not (isinstance(f, ast.Attribute) and f.attr == "project" and call.args):
        return False
    x = call.args[0]
    if not (isinstance(x, ast.Attribute) and x.attr == "x"):
        return False
    owner = x.value
    return (isinstance(owner, ast.Name) and owner.id == "ego") or (
        isinstance(owner, ast.Attribute) and owner.attr == "ego")


def _members():
    """(qualified name, node) of each top-level statement of the package,
    a class's statements taken one by one."""
    for module, tree in _trees().items():
        for top in tree.body:
            is_class = isinstance(top, ast.ClassDef)
            for member in top.body if is_class else [top]:
                name = f"{top.name}.{getattr(member, 'name', '')}" if is_class \
                    else getattr(top, "name", "")
                yield f"{module}.{name}", member


def test_one_ego_projection():
    """`World.ego_projection` is the only code that projects the ego's
    position onto the route; every other reader of the ego's arc length or
    lateral offset shares its one projection per ego state."""
    sites = [name for name, member in _members() for node in ast.walk(member)
             if isinstance(node, ast.Call) and _projects_the_ego(node)]
    assert sites == ["world.World.ego_projection"], sites


NO_TERM = (frozenset(), False)


def _trig_term(node, names):
    """(kinds, negated) of an expression as a sine or cosine term: `kinds`
    holds "sin" and "cos" for each such call, or name bound to one, among
    its factors (a quotient's numerator only), and `negated` whether an odd
    number of minus signs applies. Any other expression is NO_TERM."""
    if isinstance(node, ast.Call) and _callee(node.func) in ("sin", "cos"):
        return frozenset([_callee(node.func)]), False
    if isinstance(node, ast.Name):
        return names.get(node.id, NO_TERM)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        kinds, negated = _trig_term(node.operand, names)
        return kinds, not negated
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        (left, neg_left), (right, neg_right) = (_trig_term(node.left, names),
                                                _trig_term(node.right, names))
        return (left | right if isinstance(node.op, ast.Mult) else left), neg_left != neg_right
    return NO_TERM


def _trig_names(member):
    """Name -> term of each name that `member` binds to a sine or cosine
    term, tuple assignments element by element, in source order."""
    names = {}
    assigns = sorted((n for n in ast.walk(member) if isinstance(n, ast.Assign)),
                     key=lambda n: (n.lineno, n.col_offset))
    for node in assigns:
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for t, value in pairs:
                if isinstance(t, ast.Name):
                    term = _trig_term(value, names)
                    if term[0]:
                        names[t.id] = term
    return names


def _changes_frame(node, names):
    """Whether `node` is a sum or difference, or an augmented one, that
    rotates a point or offsets it along a heading's normal: it subtracts or
    adds a negated sine or cosine term (`x - sin(h) * d`, `-s * dx + ...`),
    or it adds a sine term to a cosine term (`c * dx + s * dy`). A step
    along the heading itself, `x + cos(h) * d`, is none."""
    if isinstance(node, ast.BinOp):
        left, op, right = node.left, node.op, node.right
    elif isinstance(node, ast.AugAssign):
        left, op, right = node.target, node.op, node.value
    else:
        return False
    if not isinstance(op, (ast.Add, ast.Sub)):
        return False
    (kinds_l, neg_l), (kinds_r, neg_r) = _trig_term(left, names), _trig_term(right, names)
    neg_r = neg_r != isinstance(op, ast.Sub)
    return bool((kinds_l and neg_l) or (kinds_r and neg_r)
                or (kinds_l and kinds_r and kinds_l != kinds_r))


def test_one_home_for_each_frame_change():
    """`world.to_ego` is the only code that rotates a world point into a
    body's frame and `world.left_of` the only code that offsets a point
    along a heading's normal; `world.rects_collide` projects onto its two
    boxes' axes in closed form. Every other frame change calls the two, so
    the frame convention is one module's decision."""
    sites = set()
    for name, member in _members():
        names = _trig_names(member)
        if any(_changes_frame(node, names) for node in ast.walk(member)):
            sites.add(name)
    assert sorted(sites) == ["world.left_of", "world.rects_collide", "world.to_ego"], sites


def _assignment_targets(node):
    """Every plain, augmented or annotated assignment target in `node`,
    tuples and starred targets unpacked."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = [sub.target]
        else:
            continue
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets.extend(t.elts)
            elif isinstance(t, ast.Starred):
                targets.append(t.value)
            else:
                yield t


def _data_assignments(node):
    """Line numbers of the assignments to a `.data` attribute in `node`:
    assignment targets and `setattr(x, "data", ...)`."""
    for t in _assignment_targets(node):
        if isinstance(t, ast.Attribute) and t.attr == "data":
            yield t.lineno
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "setattr" and len(sub.args) > 1
                and isinstance(sub.args[1], ast.Constant) and sub.args[1].value == "data"):
            yield sub.lineno


def test_parameter_values_are_never_rebound():
    """A parameter's `data` is a fixed view of its store's value buffer, so
    nothing outside `ParameterStore` and `Tensor.__init__` may assign a
    `.data` attribute; values change by writes into the view."""
    sites = []
    for module, tree in _trees().items():
        for top in tree.body:
            if module == "autodiff" and isinstance(top, ast.ClassDef):
                if top.name == "ParameterStore":
                    continue
                if top.name == "Tensor":
                    top = ast.Module(body=[n for n in top.body if getattr(n, "name", None)
                                           != "__init__"], type_ignores=[])
            sites += [f"{module}.py:{line}" for line in _data_assignments(top)]
    assert not sites, f"assignments to .data outside ParameterStore: {sites}"


def _trees_in(dirs):
    return [ast.parse(p.read_text(), filename=str(p))
            for d in dirs for p in sorted(d.glob("*.py"))]


def _attribute_reads(trees):
    """Every name read as an attribute: `x.name` in a load context, or
    `getattr(x, "name", ...)` with a constant name."""
    reads = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                reads.add(node.args[1].value)
    return reads


def _is_dataclass(cls):
    return any(_callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def _classes():
    return [top for tree in _trees().values() for top in tree.body
            if isinstance(top, ast.ClassDef)]


def _dataclass_fields():
    """(Class.field, field) of every field a src/drivelab dataclass declares."""
    for cls in _classes():
        if _is_dataclass(cls):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{cls.name}.{item.target.id}", item.target.id


def _self_attributes():
    """(Class.attr, attr) of every `self.attr` a src/drivelab class assigns."""
    for cls in _classes():
        names = {t.attr for t in _assignment_targets(cls) if isinstance(t, ast.Attribute)
                 and isinstance(t.value, ast.Name) and t.value.id == "self"}
        yield from ((f"{cls.name}.{name}", name) for name in names)


def unread(definitions):
    """The qualified names of `definitions` that no reader reads."""
    reads = _attribute_reads(_trees_in(READERS))
    return sorted(qual for qual, name in definitions if name not in reads)


def _defaulted_parameters():
    """(label, callee name, call position or None, parameter, default) of
    every defaulted parameter of a src/drivelab function or method. A class
    call is a call of its `__init__`; a method's position skips its first
    parameter."""
    for tree in _trees().values():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                members = [(top.name, top.name, top, 0)]
            elif isinstance(top, ast.ClassDef):
                members = [(f"{top.name}.{f.name}",
                            top.name if f.name == "__init__" else f.name, f, 1)
                           for f in top.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for label, callee, f, skip in members:
                positional = f.args.posonlyargs + f.args.args
                first = len(positional) - len(f.args.defaults)
                for i, (arg, default) in enumerate(zip(positional[first:], f.args.defaults)):
                    yield label, callee, first + i - skip, arg.arg, default
                for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                    if default is not None:
                        yield label, callee, None, arg.arg, default


def _callee(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(trees):
    """callee name -> [(positional args, keywords)] of every call in `trees`;
    `partial(f, ...)` is a call of `f`."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if _callee(func) == "partial" and args:
                func, args = args[0], args[1:]
            calls.setdefault(_callee(func), []).append((args, node.keywords))
    return calls


def _same_value(a, b):
    try:
        return ast.literal_eval(a) == ast.literal_eval(b)
    except ValueError:
        return ast.dump(a) == ast.dump(b)


def _passes_other(args, keywords, position, name, default):
    """Whether a call gives the parameter a value other than its default;
    a starred argument or `**` mapping that may reach it counts."""
    for kw in keywords:
        if kw.arg is None or (kw.arg == name and not _same_value(kw.value, default)):
            return True
    if position is None:
        return False
    for i, a in enumerate(args[:position + 1]):
        if isinstance(a, ast.Starred):
            return True
        if i == position:
            return not _same_value(a, default)
    return False


def defaults_never_overridden():
    calls = _calls(_trees_in(CALLERS))
    return sorted(f"{label}({name})"
                  for label, callee, position, name, default in _defaulted_parameters()
                  if not any(_passes_other(args, kws, position, name, default)
                             for args, kws in calls.get(callee, [])))


def test_every_dataclass_field_is_read():
    dead = unread(_dataclass_fields())
    assert not dead, f"dataclass fields never read by attribute name: {dead}"


def test_every_attribute_is_read():
    dead = unread(_self_attributes())
    assert not dead, f"attributes assigned on self but never read: {dead}"


def test_every_default_is_overridden():
    # An exemption that a caller has made needless fails here too.
    dead = defaults_never_overridden()
    assert dead == EXEMPT_DEFAULTS, \
        f"defaulted parameters no call outside tests gives another value: {dead}"
