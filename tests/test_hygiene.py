"""Static hygiene of the package: no module imports a name it never uses or
a private name of another package module, every private function is
referenced somewhere in the package, and every function the benchmark's
tracer wraps by name exists."""

import ast
import importlib
import pathlib

import pytest

import yoccoz

MODULES = sorted(pathlib.Path(yoccoz.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _private_imports(tree: ast.Module) -> list[str]:
    """_x names (dunders excluded) imported from package modules, relative or
    through ``yoccoz``."""
    return [f"{'.' * node.level}{node.module or ''}.{alias.name} (line {node.lineno})"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "yoccoz")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _private_imports(tree) == []


def _private_defs(tree: ast.Module) -> list[tuple[str, int]]:
    """Module- and class-level functions named _x (dunders excluded)."""
    scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
    return [(node.name, node.lineno) for scope in scopes for node in scope.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def _references(tree: ast.Module) -> set[str]:
    """Every name the module reads: bare names, attributes and imported names."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_no_dead_private_functions():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    used = set().union(*(_references(tree) for tree in trees.values()))
    dead = [f"{name}:{line} {fn}" for name, tree in trees.items()
            for fn, line in _private_defs(tree) if fn not in used]
    assert dead == []


def _tracer_targets() -> list[tuple[str, str, str, str]]:
    """The TARGETS list of perfbench/tracer.py, read as a literal (the module
    is not run)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets))


@pytest.mark.parametrize("target", _tracer_targets(), ids=lambda t: t[0])
def test_tracer_targets_resolve(target):
    """Tracer.install wraps yoccoz.<module>.<attr>, or Class.__dict__[method],
    and fails when one is gone: `perfbench/run.py --trace 1` would break."""
    _, module, attr, _ = target
    owner = importlib.import_module(f"yoccoz.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__.get(meth)), attr
    else:
        assert callable(getattr(owner, attr, None)), attr
