import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sphcover

MODULES = ["sphcover"] + [
    f"sphcover.{info.name}" for info in pkgutil.iter_modules(sphcover.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_no_function_body_imports():
    """Each module imports what it uses once, at its top: no function body
    in the package holds an ``import`` or ``from ... import`` statement."""
    hits = set()
    for path in sorted(Path(sphcover.__file__).parent.rglob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hits.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert sorted(hits) == []


def _builder_callers(tree, scope: str):
    """The scope of every call of ``symmetry_cone`` or ``polar_hrep`` under
    ``tree``: its module, then each enclosing class or function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name in ("symmetry_cone", "polar_hrep"):
                yield scope
        named = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        inner = f"{scope}.{node.name}" if isinstance(node, named) else scope
        yield from _builder_callers(node, inner)


def test_one_builder_of_the_dd_system():
    """The system that the engine enumerates and the oracle brute-forces is
    built in one place: inside the package only ``covering.polar_system``
    calls ``symmetry_cone`` or ``polar_hrep``."""
    callers = set()
    for path in sorted(Path(sphcover.__file__).parent.rglob("*.py")):
        callers.update(_builder_callers(ast.parse(path.read_text()), path.stem))
    assert callers == {"covering.polar_system"}
