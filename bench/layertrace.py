"""Outside-in span tracer for the dyadlab layers.

The tracer replaces chosen public functions and methods of the ``dyadlab``
modules with timing wrappers for the duration of a ``with`` block and puts
the originals back afterwards; nothing under ``src/`` is edited.  A module
function is replaced under every name that refers to it in any ``dyadlab``
module, because modules import each other's functions by name (``fixtures``
calls ``locate``, not ``grid.locate``).  A class is traced through its
``__init__``, a method on its class, so every caller sees the wrapper.

Each span records inclusive time (``busy_s``) and self time (``self_s``:
inclusive time minus the inclusive time of wrapped spans opened inside it).
The root span wraps the traced ``run_suite`` call, so its self time is the
part of the wall clock that no wrapped layer claims; the self times of all
spans then sum to the root's wall time.  Counters are read from arguments
and return values only.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# bytes of one float64
_F8 = 8


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_randomized_norm(stats, args, kwargs, result):
    mu = _arg(args, kwargs, 0, "mu")
    stats.add("exact", 1.0 if result.method == "exact" else 0.0)
    stats.add("patterns", result.trials)
    stats.add("pattern_atoms", result.trials * mu.atom_count)


def _count_classify(stats, args, kwargs, result):
    stats.add("bad", 1.0 if result.name == "BAD" else 0.0)


def _count_bilinear(stats, args, kwargs, result):
    # <g, Tf> = sum_j (w * g_j) @ action @ f_j, one dense n x n pass per column
    op, g = args[0], _arg(args, kwargs, 1, "g")
    n = op.action.shape[0]
    cols = 1 if g.ndim == 1 else g.shape[1]
    stats.add("flop", cols * (2.0 * n * n + 3.0 * n))
    stats.add("byte", cols * _F8 * (n * n + 3.0 * n))


def _count_trials(stats, args, kwargs, result):
    stats.add("trials", _arg(args, kwargs, 4, "trials"))


def _count_decay(stats, args, kwargs, result):
    stats.add("checked", result.checked)


# (span name, module, attribute, counter hook); "Class.method" attributes
# wrap the method on the class
TARGETS = (
    ("fixtures.battery_measure", "fixtures", "battery_measure", None),
    ("fixtures.build_fixture_pair", "fixtures", "build_fixture_pair", None),
    ("measure.growth_check", "measure", "growth_check", None),
    ("grid.locate", "grid", "locate", None),
    ("grid.bad_probability_mc", "grid", "bad_probability_mc", _count_trials),
    ("accretive.generate_accretive", "accretive", "generate_accretive", None),
    ("accretive.build_layers", "accretive", "build_layers", None),
    ("accretive.verify_accretive", "accretive", "verify_accretive", None),
    ("martingale.MartingaleContext", "martingale", "MartingaleContext.__init__", None),
    ("randnorms.randomized_norm", "randnorms", "randomized_norm",
     _count_randomized_norm),
    ("randnorms.rmf_norm", "randnorms", "rmf_norm", None),
    ("randnorms.decoupling_check", "randnorms", "decoupling_check", None),
    ("randnorms.carleson_norm", "randnorms", "carleson_norm", None),
    ("operator.DiscreteOperator", "operator", "DiscreteOperator.__init__", None),
    ("operator.classify", "operator", "PairClassifier.classify", _count_classify),
    ("operator.bilinear", "operator", "DiscreteOperator.bilinear", _count_bilinear),
    ("operator.pairing_decomposition", "operator", "pairing_decomposition", None),
    ("operator.decay_bound_check", "operator", "decay_bound_check", _count_decay),
    ("operator.paraproduct_smap", "operator", "paraproduct_smap", None),
    ("operator.boundary_probability", "operator", "boundary_probability",
     _count_trials),
)

ROOT = "harness.run_suite"

# spans that also count the calls of another span made while they are open
INNER = {"operator.decay_bound_check": "operator.classify"}


class Tracer:
    """Context manager that installs the span wrappers and collects stats."""

    def __init__(self):
        self.stats: Dict[str, SpanStats] = {}
        self._stack: List[List[float]] = []   # per open span: [child seconds]
        self._undo: List[tuple] = []

    # -- span bookkeeping --------------------------------------------------
    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        stats = self.stats.setdefault(name, SpanStats())
        inner = INNER.get(name)
        inner_stats = self.stats.setdefault(inner, SpanStats()) if inner else None
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            inner_before = inner_stats.calls if inner_stats else 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.busy_s += elapsed
                stats.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if inner_stats:
                    stats.add("inner_calls", inner_stats.calls - inner_before)
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result

        return traced

    # -- install / remove --------------------------------------------------
    def __enter__(self) -> "Tracer":
        modules = {k.split(".", 1)[1]: m for k, m in sys.modules.items()
                   if k.startswith("dyadlab.") and m is not None}
        for name, mod_name, attr, hook in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)
        harness = modules["harness"]
        self._patch(harness, "run_suite", self._wrap(ROOT, harness.run_suite, None))
        return self

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
