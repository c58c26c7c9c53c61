"""The per-layer tracer in bench/ names dyadlab functions by string; a rename
in the package must fail here rather than at ``bench/run.py --trace 1``."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import dyadlab.harness  # noqa: F401  (imports every module the tracer wraps)

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("_layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the file executes
    sys.modules[spec.name] = module
    # read-only: leave no bytecode cache under bench/
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


layertrace = _load_layertrace()


@pytest.mark.parametrize("name, mod_name, attr",
                         [t[:3] for t in layertrace.TARGETS] + [
                             (layertrace.ROOT, "harness", "run_suite")])
def test_trace_target_resolves(name, mod_name, attr):
    module = importlib.import_module(f"dyadlab.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer wraps the method found on the class itself
        assert callable(vars(getattr(module, cls_name)).get(meth)), name
    else:
        assert callable(getattr(module, attr, None)), name


def test_tracer_installs_and_restores():
    import dyadlab.grid as grid
    import dyadlab.operator as operator
    locate = grid.locate
    classify = vars(operator.PairClassifier)["classify"]
    with layertrace.Tracer():
        assert grid.locate is not locate
        assert vars(operator.PairClassifier)["classify"] is not classify
    assert grid.locate is locate
    assert vars(operator.PairClassifier)["classify"] is classify
