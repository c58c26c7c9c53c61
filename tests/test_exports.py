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


def _private_reads(path: Path) -> list:
    """``alias._name`` reads where ``alias`` is bound to a dyadlab module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dyadlab":
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name in MODULES)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("dyadlab."))
    return sorted(f"{node.lineno}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and node.attr.startswith("_"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.parent == PACKAGE],
                         ids=lambda p: p.name)
def test_no_private_reads_across_modules(path):
    # a module that needs another module's private helper should use its
    # public API, or the helper should become public
    assert _private_reads(path) == []


# public names that nothing in the package reads, with the reason each stays
UNREAD_EXPORTS = {
    **dict.fromkeys(("badness_scan", "boundary_distance", "rmf_maximal"),
                    "a reference that tests compare the array code against"),
    "rademacher_bound": "kept for the operator-valued kernels (ROADMAP)",
    **dict.fromkeys(("loads_system", "loads_accretive"),
                    "replays the files that `dyadlab gen` writes"),
    **dict.fromkeys(("battery_params", "theta", "ball_mass"), "a fixture or a definition"),
    "phi": "the one-cube case of frame_block, the paper's phi_{Q,i} of one cube",
}


def test_every_export_has_a_reader():
    # a public name that only tests read goes, or says above why it stays; a
    # top-level def or class reading its own name does not count
    reads = set()
    for path in (p for p in SOURCES if p.parent == PACKAGE):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            reads |= {node.id if isinstance(node, ast.Name) else node.attr
                      for node in ast.walk(top) if isinstance(node, ast.Attribute)
                      or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                      } - {getattr(top, "name", None)}
    exports = {n for m in MODULES
               for n in getattr(importlib.import_module(f"dyadlab.{m}"), "__all__", ())}
    assert sorted(exports - reads - set(UNREAD_EXPORTS)) == []
    assert set(UNREAD_EXPORTS) <= exports
