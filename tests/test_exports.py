import importlib
import pkgutil

import pytest

import dyadlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(dyadlab.__path__))


def test_modules_found():
    assert {"grid", "harness", "martingale", "measure", "operator"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deletion that leaves its name in __all__ fails here
    module = importlib.import_module(f"dyadlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
