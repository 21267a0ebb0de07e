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
