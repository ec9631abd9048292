"""No module-level private name in `src/cgdyn` outlives its last use."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cgdyn"


def _defined(tree):
    """The private names that a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.endswith("__"))


def _referenced(tree):
    """Every name that a module reads: bare, as an attribute or as an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_module_name_is_referenced_in_src():
    # a helper whose last caller was deleted stays behind unseen: its own tests
    # still pass. Every module-level _name must be read somewhere in src/
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert "evolve.py" in trees
    used = {name for tree in trees.values() for name in _referenced(tree)}
    unused = [f"{module}: {name}" for module, tree in trees.items() for name in _defined(tree) if name not in used]
    assert not unused, f"private names defined but never referenced in src/: {unused}"
