import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dyadlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(dyadlab.__path__))
PACKAGE = Path(dyadlab.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
# the package __init__ imports names only to re-export them
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + \
    sorted(TESTS.glob("*.py"))


def test_modules_found():
    assert {"grid", "harness", "martingale", "measure", "operator"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deletion that leaves its name in __all__ fails here
    module = importlib.import_module(f"dyadlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _unused_imports(path: Path) -> list:
    """Names a module imports and never reads; ``# noqa: F401`` marks a
    deliberate side-effect import."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name, line in bound.items()
                  if name not in used and "noqa: F401" not in lines[line - 1])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
