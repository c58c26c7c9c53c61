"""The benchmark workloads and the process environment they run in.

Every workload is one fixed ``ExperimentConfig`` over the battery measure;
the benchmark's ``--seed`` becomes the config's root seed (the reference
seed is 7, the held-out seed 11).  A run calls ``run_suite`` on it again and
again from one thread, each call starting when the previous one returned:
a closed loop with one client, the way ``dyadlab run`` is used.

Why these three:

* ``pairs-d1-n128`` -- dimension 1, Hilbert kernel, 128 atoms, suites
  matrix, paraproduct, comparable and ledger.  Pair classification and the
  block pairing of the ledger do most of the work here; no randomized norm
  is evaluated and almost no Monte Carlo runs.

  It is left out of BENCHMARK.json as unsteady (see ``DROPPED``) and stays
  here for the golden table, for traced runs and for manual timing; the
  same layers are timed on ``full-d2-n64``.
* ``norms-d1-n512`` -- dimension 1, 512 atoms, the six suites identities,
  layers, badcubes, sqfn, carleson and decoupling.  The randomized norms do
  most of the work, through both sampler paths (exact sign enumeration and
  Monte Carlo); fixture construction is a visible share and no pair is
  classified.  It builds the largest arrays, so it drives peak memory.
* ``full-d2-n64`` -- dimension 2, Riesz kernel, 64 atoms, all ten suites:
  the whole ``dyadlab run`` in the plane.  The same layers run on cubes with
  four children, 2-D neighbour sets and small exact sign families, and the
  Monte-Carlo badness kernel is the largest cost.  A gain for 1-D or large-n
  inputs that costs 2-D or small-n inputs shows here.

  It uses ``riesz`` because ``hilbert`` is defined in one dimension only
  (the tests pair dimension 2 with ``riesz`` too).  ``dyadlab run`` at
  dimension 2 with the default ``hilbert`` kernel fails
  ``matrix/kernel-bounds`` (seen at n = 32): that is a known
  config-validation defect of the program, left open; this benchmark neither
  relies on nor hides it.
"""
from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# sha256 of each workload's canonical report.json, by seed
GOLDEN = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEEDS = (7, 11)

# one BLAS/OpenMP thread: the plain single-threaded baseline
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# changes the Monte-Carlo work without changing config_hash
TRIALS_VAR = "DYADLAB_TRIALS"

WORKLOADS = {
    "pairs-d1-n128": dict(dimension=1, kernel="hilbert", atom_count=128,
                          suites=("matrix", "paraproduct", "comparable", "ledger")),
    "norms-d1-n512": dict(dimension=1, atom_count=512,
                          suites=("identities", "layers", "badcubes", "sqfn",
                                  "carleson", "decoupling")),
    "full-d2-n64": dict(dimension=2, kernel="riesz", atom_count=64),
}

# workloads kept out of BENCHMARK.json, with the reason
DROPPED = {
    "pairs-d1-n128": "unsteady: one 20-35 s call fits in a run on a 2-core host, "
                     "and its ten-seed run_s spread (q3 - q1) / median reached "
                     "0.254, above the largest bound allowed (0.25)",
}


def pin_environment() -> None:
    """Fix the variables that change speed or results; call before numpy loads.

    Also puts this checkout's ``src`` first on the import path, so the
    benchmark measures the code next to it and fails where there is none.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_environment must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop(TRIALS_VAR, None)
    os.environ["PYTHONPATH"] = str(SRC)
    if not (SRC / "dyadlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dyadlab sources under {SRC}")
    sys.path.insert(0, str(SRC))


def report_sha(report) -> str:
    """sha256 of the canonical report.json bytes ``emit_report`` writes."""
    return hashlib.sha256(report.canonical_json().encode("utf-8")).hexdigest()


def make_config(workload: str, seed: int):
    from dyadlab.harness import ExperimentConfig
    return ExperimentConfig(seed=seed, **WORKLOADS[workload])


def build_inputs(workload: str, seed: int):
    """Build the measure, fixture pairs and operator the workload's suites use.

    The pair keys, seeds and arguments are the ones ``run_suite`` derives
    for each (r, grids) request of these suites, so this is the set-up work
    a run repeats before its checks start.
    """
    from dyadlab import fixtures as fx
    from dyadlab import operator as czop
    from dyadlab._seeds import derive_seed

    cfg = make_config(workload, seed)
    mu = fx.battery_measure(derive_seed(cfg.seed, "measure"), cfg.dimension,
                            cfg.atom_count, d=cfg.growth_exponent)
    keys = set()
    if {"identities", "layers", "sqfn", "carleson", "decoupling"} & set(cfg.suites):
        keys.add((None, "random"))
    if {"matrix", "paraproduct", "comparable"} & set(cfg.suites):
        keys.add((None, "standard"))
    if "ledger" in cfg.suites:
        keys |= {(2, "standard"), (4, "standard"), (6, "standard"), (None, "random")}
    pairs = [fx.build_fixture_pair(derive_seed(cfg.seed, f"pair:{key}") % (2 ** 31),
                                   mu, cfg.params(key[0]), cfg.delta,
                                   cfg.accretive_style, grids=key[1],
                                   window=cfg.window)
             for key in sorted(keys, key=repr)]
    op = czop.DiscreteOperator(czop.kernel_by_name(cfg.kernel, cfg.growth_exponent), mu)
    return mu, pairs, op
