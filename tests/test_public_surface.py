"""Every public name and every public parameter of netlab has a use.

A public top-level function or class counts as reached when it is used as
an identifier in ``cli.py``, in the acceptance criteria, or in netlab code
outside its own definition.  Imports alone do not count: a name that is
imported but never called is still unreached.  Unit tests do not count
either, so a name only its own unit tests exercise fails this check.

Every parameter of a public function or public method is read in its body.
Every defaulted parameter of a public function, or of the ``__init__`` of a
public class that is not a dataclass, is passed by at least one call,
matched by name, in the package, the tests or the benchmark.  Here unit
tests do count: some regimes, such as a node budget or a level cap running
out, are reachable only through them.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "netlab"
CALLERS = (PACKAGE, ROOT / "tests", ROOT / "perfbench")


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


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
    modules = _modules()
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


def _is_public(name):
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _is_dataclass(cls):
    return any("dataclass" in _used_names(deco) for deco in cls.decorator_list)


def _public_defs(tree):
    """(name, def, its class or None) of each public top-level function and
    each public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _is_public(node.name):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _is_public(item.name):
                    yield f"{node.name}.{item.name}", item, node


def _parameters(fn, cls):
    """The parameters of ``fn`` in order, without a method's self."""
    a = fn.args
    params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
    params = [p.arg for p in params if p is not None]
    static = "staticmethod" in {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}
    return params[1:] if cls is not None and not static else params


def unread_parameters():
    unread = []
    for module, tree in _modules().items():
        for name, fn, cls in _public_defs(tree):
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{module}.{name}({p})" for p in _parameters(fn, cls)
                       if p not in read]
    return unread


def _calls():
    """Callee name -> (positional count, keyword names) of every call in the
    package, the tests and the benchmark.  A starred argument may fill every
    later position, so it counts as all of them."""
    calls = defaultdict(list)
    for path in sorted(p for d in CALLERS for p in d.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            calls[name].append((float("inf") if starred else len(node.args),
                                {k.arg for k in node.keywords}))
    return calls


def _defaulted(fn, cls):
    """(name, positional index or None) of each defaulted parameter."""
    a = fn.args
    positional = [p.arg for p in (*a.posonlyargs, *a.args)][0 if cls is None else 1:]
    first = len(positional) - len(a.defaults)
    out = [(p, i) for i, p in enumerate(positional) if i >= first]
    out += [(p.arg, None) for p, default in zip(a.kwonlyargs, a.kw_defaults)
            if default is not None]
    return out


def unset_defaults():
    calls = _calls()
    unset = []
    for module, tree in _modules().items():
        for name, fn, cls in _public_defs(tree):
            if cls is None:
                callee = name
            elif fn.name == "__init__" and not _is_dataclass(cls):
                callee = cls.name
            else:
                continue
            for param, index in _defaulted(fn, cls):
                if not any(param in keywords or index is not None and count > index
                           for count, keywords in calls[callee]):
                    unset.append(f"{module}.{callee}({param})")
    return unset


def test_every_public_name_has_a_caller():
    assert unreached_public_names() == []


def test_every_public_parameter_is_read():
    assert unread_parameters() == []


def test_every_default_is_set_by_some_call():
    assert unset_defaults() == []
