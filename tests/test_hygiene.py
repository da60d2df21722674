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


# Calls that open or create a file for writing: `open`/`fdopen` with a mode
# that writes, `os.open` with a flag that writes, and the helpers that create
# or write a file in one call.
_WRITE_MODE = set("wax+")
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}
_WRITE_HELPERS = {"write_text", "write_bytes", "mkstemp", "NamedTemporaryFile",
                  "TemporaryFile", "SpooledTemporaryFile"}


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in _WRITE_HELPERS:
        return True
    if (name == "open" and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name) and func.value.id == "os"):
        return any(isinstance(node, ast.Attribute) and node.attr in _WRITE_FLAGS
                   for arg in call.args[1:2] for node in ast.walk(arg))
    if name not in ("open", "fdopen"):
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[1] if len(call.args) > 1 else None)
    if mode is None:
        return False
    # a mode that is not a literal string might write
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not _WRITE_MODE & set(mode.value))


def _file_writers() -> set[tuple[str, str]]:
    """(module, enclosing function) of every call that opens a file for
    writing; module-level calls are named "<module>"."""
    writers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(node.name, node) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        inside = {id(call): name for name, fn in scopes for call in ast.walk(fn)}
        writers.update((path.name, inside.get(id(node), "<module>")) for node in ast.walk(tree)
                       if isinstance(node, ast.Call) and _opens_for_writing(node))
    return writers


def test_report_files_have_one_writer():
    """Only `cli._write` (every --out and --report, rewritten in place) and
    `cli._write_json_atomic` (the trace cache, published by rename) open a
    file for writing, so the way a report file is written stays in one place."""
    assert _file_writers() == {("cli.py", "_write"), ("cli.py", "_write_json_atomic")}
