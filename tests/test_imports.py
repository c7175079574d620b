"""Every name a library module, test or demo imports is used in it, every private
name it defines is read elsewhere in the library, and every name the
benchmark traces exists."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import nemem

_PACKAGE = sorted(pathlib.Path(nemem.__file__).parent.glob("*.py"))
_MODULES = [p for p in _PACKAGE if p.name != "__init__.py"]
# The tests and the demos (not the benchmark, which has its own checks).
_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SCRIPTS = sorted(_ROOT.glob("tests/*.py")) + sorted(_ROOT.glob("demos/*.py"))


@pytest.mark.parametrize(
    "path", _MODULES + _SCRIPTS, ids=lambda p: p.name if p in _MODULES else f"{p.parent.name}/{p.name}"
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"imported and never used (name: line): {unused}"


def _top_level_uses(path):
    # For each top-level statement: the names it defines, and the names it
    # reads (variables, attributes and names imported from a module).
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            defined = []
        used = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                used.update(alias.name for alias in sub.names)
        out.append((defined, used))
    return out


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_private_name_has_a_consumer_in_the_library(path):
    # Every private top-level function, class and constant of a library
    # module is read somewhere in the package other than in its own
    # definition: code that only tests keep alive is dead code.
    uses = {p: _top_level_uses(p) for p in _PACKAGE}
    dead = []
    for k, (defined, _) in enumerate(uses[path]):
        for name in defined:
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(
                name in used
                for p, statements in uses.items()
                for m, (_, used) in enumerate(statements)
                if (p, m) != (path, k)
            ):
                dead.append(name)
    assert not dead, f"private names with no consumer in the library: {dead}"


def test_every_traced_name_is_a_library_callable():
    # perfbench/spans.py traces these names and its own tests fail on a
    # missing one; this checks them with the library's tests.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for traced in spans.TRACED:
        module, name = traced.split(".")
        if not callable(getattr(importlib.import_module(f"nemem.{module}"), name, None)):
            missing.append(traced)
    assert not missing, f"traced names that are not callables of nemem: {missing}"
