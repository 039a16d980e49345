"""Every public top-level function and class of netlab has a caller.

A public name counts as reached when it is used as an identifier in
``cli.py``, in the acceptance criteria, or in netlab code outside its own
definition.  Imports alone do not count: a name that is imported but never
called is still unreached.  Unit tests do not count either, so a name only
its own unit tests exercise fails this check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "netlab"


def _used_names(tree, skip=None):
    """Identifiers used in ``tree`` as names or attributes, leaving out the
    nodes under ``skip``."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def unreached_public_names():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    used = {name: _used_names(tree) for name, tree in modules.items()}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    unreached = []
    for name, tree in modules.items():
        others = _used_names(acceptance).union(
            *(names for other, names in used.items() if other != name))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in others
                    and node.name not in _used_names(tree, skip=node)):
                unreached.append(f"{name}.{node.name}")
    return unreached


def test_every_public_name_has_a_caller():
    assert unreached_public_names() == []
