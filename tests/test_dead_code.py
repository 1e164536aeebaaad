"""No code lives in `src/drivelab` unless the package itself refers to it.

Every top-level function, class, method (dunders excepted) and module
constant must be referenced somewhere in the package besides its own
definition: as a loaded name, an attribute, or an imported name.

The package also has one episode loop: `metrics.run_episode` is the only
function that builds or steps a world.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drivelab"


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
                if isinstance(node, ast.Call):
                    f = node.func
                    if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                        sites.append((module, getattr(top, "name", None)))
    return sites


def test_one_episode_loop():
    for name in ("reset", "advance_world"):
        assert call_sites(name) == [("metrics", "run_episode")], name


def test_one_inference_site():
    """Only the closed-loop driver runs `infer`: stored samples go to the
    network in batches, through `forward`."""
    assert call_sites("infer") == [("metrics", "NeuralDriver")]


def test_tensors_are_built_only_in_autodiff():
    """Inputs, targets and masks are plain arrays, constants that join no
    graph: only the engine's own ops build a Tensor."""
    sites = call_sites("Tensor")
    assert sites and all(module == "autodiff" for module, _ in sites), sites


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


def test_one_ego_projection():
    """`World.ego_projection` is the only code that projects the ego's
    position onto the route; every other reader of the ego's arc length or
    lateral offset shares its one projection per ego state."""
    sites = []
    for module, tree in _trees().items():
        for top in tree.body:
            is_class = isinstance(top, ast.ClassDef)
            for member in top.body if is_class else [top]:
                name = f"{top.name}.{getattr(member, 'name', '')}" if is_class \
                    else getattr(top, "name", "")
                sites += [f"{module}.{name}" for node in ast.walk(member)
                          if isinstance(node, ast.Call) and _projects_the_ego(node)]
    assert sites == ["world.World.ego_projection"], sites


def _data_assignments(node):
    """Line numbers of the assignments to a `.data` attribute in `node`:
    plain, augmented or annotated targets (tuples unpacked) and
    `setattr(x, "data", ...)`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = [sub.target]
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
              and sub.func.id == "setattr" and len(sub.args) > 1
              and isinstance(sub.args[1], ast.Constant) and sub.args[1].value == "data"):
            yield sub.lineno
            continue
        else:
            continue
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets.extend(t.elts)
            elif isinstance(t, ast.Starred):
                targets.append(t.value)
            elif isinstance(t, ast.Attribute) and t.attr == "data":
                yield t.lineno


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
