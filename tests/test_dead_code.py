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
