"""Config-driven experiment runner over the verification suites.

A run is reproducible from a single root seed: every module seed is derived
by labeled hashing, Monte-Carlo loops consume their own derived streams, and
the canonical report JSON (which excludes wall-clock timings) is
bit-identical across runs of the same config.  Each check row carries a
stable anchor string naming the verified property, the measured value, the
bound it was held against, and the Monte-Carlo standard error when one
applies.
"""
from __future__ import annotations

import csv
import json
import hashlib
import math
import os
import time
import traceback
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

try:
    import resource
except ImportError:             # no getrusage on Windows
    resource = None

from dyadlab._seeds import derive_seed, rng_for
from dyadlab import accretive as acc
from dyadlab import fixtures as fx
from dyadlab import grid as gr
from dyadlab import martingale as mg
from dyadlab import measure as ms
from dyadlab import operator as czop
from dyadlab import randnorms as rn

__all__ = [
    "ExperimentConfig",
    "CheckRow",
    "SuiteReport",
    "run_suite",
    "emit_report",
    "ALL_SUITES",
]

ALL_SUITES = ("identities", "layers", "badcubes", "sqfn", "carleson",
              "decoupling", "matrix", "paraproduct", "comparable", "ledger")

# the documented coverage table: a full run emits exactly these anchors
COVERAGE_ANCHORS = frozenset({
    "reconstruction.telescoping",
    "adapted.projection-square", "adapted.local-projection-square",
    "adapted.adjoint-duality", "adapted.equal-set-average", "adapted.tower",
    "adapted.adjoint-is-transpose",
    "frame.child-expansion", "frame.mean-zero", "frame.sup-bound",
    "frame.l1-bound", "frame.support",
    "defect.sup-bound", "defect.conditional-mean-zero", "defect.support",
    "expectation.tower", "expectation.telescoping", "expectation.bottom-isolation",
    "accretive.constraints",
    "layers.ancestor-floor", "layers.disjoint-nested", "layers.mass-decay",
    "layers.overlap-l1", "layers.bottom-stabilized",
    "badcubes.probability-envelope",
    "sqfn.adapted-diff", "sqfn.adapted-adjoint", "sqfn.classical-diff",
    "sqfn.transition-expectation", "sqfn.stein-projection",
    "sqfn.norm-equivalence-upper", "sqfn.norm-equivalence-lower",
    "sqfn.rmf-bound", "sqfn.contraction-principle", "sqfn.khintchine-sandwich",
    "sqfn.improved-contraction",
    "carleson.transition-car1", "carleson.embedding",
    "carleson.multiplier-embedding", "carleson.p-monotonicity",
    "decoupling.tangent", "decoupling.constant-blocks",
    "decoupling.kernel-average",
    "kernel.size-smoothness",
    "matrix.decay-bounds", "matrix.decay-coverage", "matrix.distance-slope",
    "operator.transpose-duality", "operator.testing-bound",
    "paraproduct.smap-monotone", "paraproduct.smap-characterization",
    "paraproduct.duality", "paraproduct.zero-input",
    "comparable.partition", "comparable.five-term-identity",
    "collar.probability-envelope", "collar.linear-in-eta",
    "ledger.exact-identity", "ledger.bad-fraction-vs-r",
    "ledger.exact-identity-random",
})

# =============================================================================
# Config
# =============================================================================

@dataclass
class ExperimentConfig:
    seed: int = 7
    dimension: int = 1
    growth_exponent: float = fx.BATTERY_D
    atom_count: int = 32
    measure_profile: str = "battery"      # battery | file | one of measure.PROFILES
    measure_file: Optional[str] = None
    kernel: str = "hilbert"
    lattice_m: int = 2
    lattice_rho: float = 2.0
    p: float = 2.0
    delta: float = 0.5
    accretive_style: str = "signed-perturbation"
    gamma: float = fx.BATTERY_GAMMA
    r: int = 4
    alpha: float = 1.0
    window: Optional[Tuple[int, int]] = None
    mc_trials: int = 100_000
    n_exact: int = 14
    sampler_trials: int = 4096
    eta: float = 0.05
    t_exponent: Optional[float] = None
    ratio_cap: float = 1e3
    suites: Tuple[str, ...] = ALL_SUITES

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise ValueError("p must lie in (1, inf)")
        # validates the shift-geometry and lattice constraints at load time
        gr.DyadicParams(gamma=self.gamma, r=self.r, alpha=self.alpha,
                        d=self.growth_exponent)
        self.lattice()
        # names that would otherwise fail only inside a suite, as a hard-error row
        czop.kernel_by_name(self.kernel, self.growth_exponent)
        if self.accretive_style not in acc.STYLES:
            raise ValueError(f"unknown accretive_style {self.accretive_style!r}; "
                             f"expected one of {acc.STYLES}")
        profiles = ("battery", "file") + ms.PROFILES
        if self.measure_profile not in profiles:
            raise ValueError(f"unknown measure_profile {self.measure_profile!r}; "
                             f"expected one of {profiles}")
        if self.measure_profile == "file" and self.measure_file is None:
            raise ValueError("measure_profile 'file' needs a measure_file")
        if self.window is not None and (len(self.window) != 2 or not all(
                isinstance(v, int) for v in self.window) or self.window[0] >= self.window[1]):
            raise ValueError(f"window must be two integer scales [k_min, s] with "
                             f"k_min < s, not {list(self.window)}")
        unknown = set(self.suites) - set(ALL_SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        if self.kernel == "hilbert" and self.dimension != 1:
            raise ValueError(f"the hilbert kernel is defined in dimension 1 only, not "
                             f"{self.dimension}; use kernel 'riesz' or 'dipole'")
        if self.sampler_trials < 2:
            raise ValueError(f"sampler_trials must be at least 2 for a Monte Carlo "
                             f"standard error, not {self.sampler_trials}")
        if self.mc_trials < 1000:
            raise ValueError(f"mc_trials must be at least 1000, the fewest the shift "
                             f"probability estimates take, not {self.mc_trials}")
        if "comparable" in self.suites and self.mc_trials < czop.COLLAR_MIN_TRIALS:
            raise ValueError(f"mc_trials must be at least {czop.COLLAR_MIN_TRIALS} "
                             f"with the comparable suite, the fewest its collar "
                             f"estimate takes, not {self.mc_trials}")
        if not 0 <= self.n_exact <= 20:
            raise ValueError(f"n_exact must lie in [0, 20] (an exact table holds "
                             f"2^n_exact sign rows), not {self.n_exact}")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def t_aux(self) -> float:
        if self.t_exponent is not None:
            return self.t_exponent
        return 2.0 * max(self.lattice().cotype, self.p, self.q)

    def lattice(self) -> ms.LatticeSpace:
        return ms.LatticeSpace(self.lattice_m, self.lattice_rho)

    def params(self, r: Optional[int] = None) -> gr.DyadicParams:
        return gr.DyadicParams(gamma=self.gamma, r=self.r if r is None else r,
                               alpha=self.alpha, d=self.growth_exponent)

    def sampler(self) -> rn.RademacherSampler:
        return rn.RademacherSampler(n_exact=self.n_exact, mc_trials=self.sampler_trials,
                                    seed=derive_seed(self.seed, "sampler"))

    # -- serialization ------------------------------------------------------
    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError(f"a config is a JSON object, not {text.strip()!r}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "suites" in raw:
            if not isinstance(raw["suites"], list):
                raise ValueError(f"suites must be a list of suite names, not "
                                 f"{raw['suites']!r}")
            raw["suites"] = tuple(raw["suites"])
        if raw.get("window") is not None:
            if not isinstance(raw["window"], list):
                raise ValueError(f"window must be two integer scales [k_min, s] with "
                                 f"k_min < s, not {raw['window']!r}")
            raw["window"] = tuple(raw["window"])
        return cls(**raw)

    def to_json(self) -> str:
        data = asdict(self)
        data["suites"] = list(self.suites)
        if data["window"] is not None:
            data["window"] = list(data["window"])
        return json.dumps(data, sort_keys=True, indent=2) + "\n"

    def config_hash(self) -> str:
        """sha256 of ``to_json()``, and of the measure file's bytes for a file profile."""
        text = self.to_json()
        if self.measure_profile == "file":
            text += hashlib.sha256(Path(self.measure_file).read_bytes()).hexdigest()
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# =============================================================================
# Report
# =============================================================================

@dataclass
class CheckRow:
    suite: str
    name: str
    anchor: str
    passed: bool
    value: float
    bound: Optional[float] = None
    stderr: float = 0.0
    runtime_s: float = 0.0    # own timer, 0 if none; not in the canonical bytes

    def canonical(self) -> dict:
        return {"suite": self.suite, "name": self.name, "anchor": self.anchor,
                "passed": bool(self.passed), "value": _num(self.value),
                "bound": _num(self.bound), "stderr": _num(self.stderr)}


def _num(x):
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


@dataclass
class SuiteReport:
    """The check rows of one run, and its per-pair tables.  A table maps its
    column names, in CSV order, to equal-length columns: lists of Python
    values, or 1-D numpy arrays whose ``tolist()`` gives them.  ``emit_report``
    writes floats as ``repr`` and cube keys as JSON."""

    config_hash: str
    seed: int
    checks: List[CheckRow] = field(default_factory=list)
    tables: Dict[str, Dict[str, Sequence]] = field(default_factory=dict)
    suite_s: Dict[str, float] = field(default_factory=dict)   # not canonical
    # the process high-water mark after each suite, in MiB; not canonical
    peak_rss_mib: Dict[str, Optional[float]] = field(default_factory=dict)
    # each fixture pair's build seconds, by repr of its (r, grids) key; not canonical
    pair_s: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def canonical_json(self) -> str:
        ordered = sorted(self.checks, key=lambda c: (c.suite, c.name))
        return json.dumps({
            "config_hash": self.config_hash,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.canonical() for c in ordered],
        }, sort_keys=True, indent=1) + "\n"

    def summary_lines(self) -> List[str]:
        out = []
        for c in sorted(self.checks, key=lambda c: (c.suite, c.name)):
            status = "PASS" if c.passed else "FAIL"
            bound = "" if c.bound is None else f" bound={c.bound:.6g}"
            err = "" if c.stderr == 0 else f" stderr={c.stderr:.3g}"
            out.append(f"[{status}] {c.suite}/{c.name} ({c.anchor}) "
                       f"value={c.value:.6g}{bound}{err}")
        return out


# =============================================================================
# Suite implementations
# =============================================================================

class _Runner:
    def __init__(self, config: ExperimentConfig):
        self.cfg = config
        self.report = SuiteReport(config.config_hash(), config.seed)
        self._fixture_cache: Dict[Tuple, fx.FixturePair] = {}
        self._measure: Optional[ms.AtomicMeasure] = None

    # -- shared fixtures ----------------------------------------------------
    def measure(self) -> ms.AtomicMeasure:
        if self._measure is None:
            cfg = self.cfg
            seed = derive_seed(cfg.seed, "measure")
            if cfg.measure_profile == "file":
                self._measure = ms.load_measure(cfg.measure_file)
            elif cfg.measure_profile == "battery":
                self._measure = fx.battery_measure(seed, cfg.dimension, cfg.atom_count,
                                                   d=cfg.growth_exponent)
            else:
                self._measure = ms.generate_random_measure(
                    seed, cfg.dimension, cfg.growth_exponent, cfg.atom_count,
                    cfg.measure_profile)
        return self._measure

    def pair(self, r: Optional[int] = None, grids: str = "standard") -> fx.FixturePair:
        key = (r, grids)
        if key not in self._fixture_cache:
            cfg = self.cfg
            mu = self.measure()
            start = time.perf_counter()
            self._fixture_cache[key] = fx.build_fixture_pair(
                derive_seed(cfg.seed, f"pair:{key}") % (2 ** 31), mu,
                cfg.params(r), cfg.delta, cfg.accretive_style, grids=grids,
                window=cfg.window)
            self.report.pair_s[repr(key)] = time.perf_counter() - start
        return self._fixture_cache[key]

    def operator(self) -> czop.DiscreteOperator:
        kern = czop.kernel_by_name(self.cfg.kernel, self.cfg.growth_exponent)
        return czop.DiscreteOperator(kern, self.measure())

    def add(self, suite: str, name: str, anchor: str, passed: bool, value: float,
            bound: Optional[float] = None, stderr: float = 0.0,
            runtime_s: float = 0.0) -> None:
        self.report.checks.append(CheckRow(suite, name, anchor, bool(passed),
                                           float(value), bound, stderr, runtime_s))

    # ------------------------------------------------------------------
    def run(self) -> SuiteReport:
        for suite in self.cfg.suites:
            start = time.perf_counter()
            try:
                getattr(self, f"suite_{suite}")()
            except Exception as exc:   # hard module errors become failed rows
                self.add(suite, "hard-error", f"{suite}.hard-error", False,
                         math.nan)
                errors = self.report.tables.setdefault(
                    "hard_errors", {"suite": [], "error": [], "traceback": []})
                errors["suite"].append(suite)
                errors["error"].append(f"{type(exc).__name__}: {exc}")
                errors["traceback"].append(traceback.format_exc())
            self.report.suite_s[suite] = time.perf_counter() - start
            self.report.peak_rss_mib[suite] = _peak_rss_mib()
        return self.report

    # ------------------------------------------------------------------
    def suite_identities(self):
        cfg = self.cfg
        pairf = self.pair(grids="random")
        ctx = pairf.ctx_f
        mu = pairf.measure
        rng = rng_for(cfg.seed, "identities")
        f = rng.normal(size=mu.atom_count)
        g = rng.normal(size=mu.atom_count)
        tol = 1e-12
        delta = cfg.delta

        rec = mg.reconstruct(ctx, f)
        self.add("identities", "reconstruction", "reconstruction.telescoping",
                 rec.residual <= 1e-10, rec.residual, 1e-10)

        # D^a_k f, omega_k and E_k f once per scale; each local version is
        # the restriction of these to the cube
        diffs = rec.diff_terms
        omegas = {k: mg.omega(ctx, k) for k in ctx.diff_scales}
        means = {k: mg.expectation(ctx, f, k) for k in ctx.diff_scales}

        # D^a_Q = 1_Q D^a_k reads only the bincount bins of Q and of its
        # children, which hold only atoms of Q; so on Q, D^a_k of 1_Q D^a_k f
        # has the bits of D^a_k of D^a_k f, and the local check on each cube
        # is the scale's error row on that cube
        worst = worst_local = 0.0
        for k in ctx.diff_scales:
            err = mg.adapted_diff(ctx, diffs[k], k) - (diffs[k] + omegas[k] * means[k])
            worst = max(worst, _relsup(err, f))
            worst_local = _running_max(worst_local, _relsup_by_cube(err, f, ctx.index, k))
        self.add("identities", "projection-square", "adapted.projection-square",
                 worst <= tol, worst, tol)
        self.add("identities", "local-projection-square", "adapted.local-projection-square",
                 worst_local <= tol, worst_local, tol)

        worst = 0.0
        for k in ctx.diff_scales:
            lhs = ms.pair(mu, mg.adapted_diff_adjoint(ctx, g, k), f)
            rhs = ms.pair(mu, g, diffs[k])
            scale = max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
        self.add("identities", "adjoint-duality", "adapted.adjoint-duality",
                 worst <= tol, worst, tol)

        worst_exp, worst_mean, worst_sup, worst_l1, bad_supp = 0.0, 0.0, 0.0, 0.0, 0
        index, w = ctx.index, mu.weights
        for k in ctx.diff_scales:
            # one row per (cube, occupied child) pair, cubes by position and
            # children in corner order: the order of a cube-by-cube loop
            starts, kids, _ = index.child_table(k)
            cubes = index.parents(k - 1)[kids]
            mass_child = index.masses(k - 1)[kids]
            child_means = mg.cube_integrals(ctx, f, k - 1, kids) / mass_child
            mass_floor = np.maximum(index.masses(k)[cubes], 1e-30)
            cube_ids = index.cube_ids(k)
            combo = np.zeros(mu.atom_count)     # sum_i <f>_{Q_i} phi_{Q,i} on each Q
            for lo, hi in ms.row_blocks(kids.size, mu.atom_count):
                block = mg.frame_block(ctx, k, slice(lo, hi))
                inside = cube_ids[None, :] == cubes[lo:hi, None]
                # one full-length dot per row, as integrate and lp_norm (at
                # p = 1, |phi| ** 1 is |phi|) take them
                magnitude = np.abs(block)
                integral = np.array([np.dot(w, row) for row in block])
                l1 = np.array([np.dot(w, row) for row in magnitude])
                worst_mean = _running_max(worst_mean, np.abs(integral) / mass_floor[lo:hi])
                worst_sup = _running_max(worst_sup, np.max(magnitude, axis=1))
                worst_l1 = _running_max(worst_l1, l1 / (2.0 / delta ** 2 * mass_child[lo:hi]))
                bad_supp += int(np.count_nonzero(np.any((block != 0.0) & ~inside, axis=1)))
                # the cubes are disjoint: add each cube's i-th child term to
                # all cubes at once, i in corner order
                rank = np.arange(lo, hi) - starts[cubes[lo:hi]]
                for i in range(int(rank.max()) + 1):
                    sel = np.flatnonzero(rank == i)
                    rows, atoms = np.nonzero(inside[sel])
                    combo[atoms] += child_means[lo + sel[rows]] * block[sel[rows], atoms]
            worst_exp = _running_max(worst_exp, _relsup_by_cube(diffs[k] - combo, f, index, k))
        self.add("identities", "frame-expansion", "frame.child-expansion",
                 worst_exp <= tol, worst_exp, tol)
        self.add("identities", "frame-mean-zero", "frame.mean-zero",
                 worst_mean <= tol, worst_mean, tol)
        self.add("identities", "frame-sup-bound", "frame.sup-bound",
                 worst_sup <= 2.0 / delta ** 2, worst_sup, 2.0 / delta ** 2)
        self.add("identities", "frame-l1-bound", "frame.l1-bound",
                 worst_l1 <= 1.0, worst_l1, 1.0)
        self.add("identities", "frame-support", "frame.support",
                 bad_supp == 0, float(bad_supp), 0.0)

        worst_sup, worst_cond, bad_supp = 0.0, 0.0, 0
        om_bound = delta ** -2 + delta ** -4
        for k in ctx.diff_scales:
            om = omegas[k]
            worst_sup = max(worst_sup, float(np.max(np.abs(om))))
            worst_cond = max(worst_cond, float(np.max(np.abs(
                mg.expectation(ctx, om, k - 1)))))
            if np.any(om[~ctx.chi_mask(k - 1)] != 0.0):
                bad_supp += 1
        self.add("identities", "defect-sup-bound", "defect.sup-bound",
                 worst_sup <= om_bound, worst_sup, om_bound)
        self.add("identities", "defect-conditional-mean", "defect.conditional-mean-zero",
                 worst_cond <= tol, worst_cond, tol)
        self.add("identities", "defect-support", "defect.support",
                 bad_supp == 0, float(bad_supp), 0.0)

        worst = 0.0
        for k in ctx.diff_scales:
            eq_mask = ~ctx.chi_mask(k - 1)
            lhs = mg.expectation(ctx, ctx.b_adapted[k - 1], k - 1)
            rhs = mg.expectation(ctx, ctx.b_adapted[k], k - 1)
            worst = max(worst, float(np.max(np.abs((lhs - rhs)[eq_mask]))))
        self.add("identities", "equal-set-average", "adapted.equal-set-average",
                 worst <= tol, worst, tol)

        worst = 0.0
        for k in ctx.diff_scales:
            worst = max(worst, _relsup(
                mg.expectation(ctx, mg.expectation(ctx, f, k - 1), k)
                - mg.expectation(ctx, f, k), f))
        self.add("identities", "tower", "expectation.tower", worst <= 1e-13, worst, 1e-13)

        worst = 0.0
        scales = list(ctx.scales)
        for k in scales[::3]:
            for l in scales[::3]:
                if l <= k:
                    lhs = mg.adapted_expectation(
                        ctx, mg.adapted_expectation(ctx, f, l), k)
                    worst = max(worst, _relsup(
                        lhs - mg.adapted_expectation(ctx, f, k), f))
        self.add("identities", "adapted-tower", "adapted.tower",
                 worst <= tol, worst, tol)

        # the weighted transpose of the matrix of D^a_k against (D^a_k)^* on
        # the unit vectors, a row block of the matrix (a column block of its
        # adjoint) at a time; (D^a_k)^* acts column by column, so each column
        # of its value on a block of unit columns has the bits of its value
        # on that unit vector, and the error is a maximum, so blocking moves
        # no bit
        k_mid = scales[len(scales) // 2]
        errs = []
        for lo, hi in ms.row_blocks(mu.atom_count, mu.atom_count):
            rows = slice(lo, hi)
            adj = mg.weighted_adjoint(mu, mg.adapted_diff_matrix(ctx, k_mid, rows), rows)
            units = np.zeros((mu.atom_count, hi - lo))
            units[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
            errs.append(np.max(np.abs(adj - mg.adapted_diff_adjoint(ctx, units, k_mid))))
        err = float(np.max(errs))
        self.add("identities", "adjoint-transpose", "adapted.adjoint-is-transpose",
                 err <= 1e-11, err, 1e-11)

        total = sum(mg.diff(ctx, f, k) for k in ctx.diff_scales)
        tele = _relsup(total - (mg.expectation(ctx, f, ctx.system.k_min)
                                - mg.expectation(ctx, f, ctx.system.s)), f)
        self.add("identities", "diff-telescoping", "expectation.telescoping",
                 tele <= 1e-13, tele, 1e-13)

        # exact apart from the one-ulp rounding of (w f) / w at single atoms
        bottom = _relsup(mg.expectation(ctx, f, ctx.system.k_min) - f, f)
        self.add("identities", "bottom-isolation", "expectation.bottom-isolation",
                 bottom <= 1e-15, bottom, 1e-15)

    # ------------------------------------------------------------------
    def suite_layers(self):
        cfg = self.cfg
        pairf = self.pair(grids="random")
        mu = pairf.measure
        for tag, ctx in (("f", pairf.ctx_f), ("g", pairf.ctx_g)):
            index = ctx.index
            rep = acc.verify_accretive(ctx.accretive, mu, index)
            self.add("layers", f"accretive-{tag}", "accretive.constraints",
                     rep.passed, rep.worst_margin(), 0.0)

            worst = math.inf
            for k in index.system.scales:
                means = mg.cube_integrals(ctx, ctx.b_adapted[k], k) / index.masses(k)
                for mean in np.abs(means).tolist():
                    worst = min(worst, mean)
            self.add("layers", f"ancestor-floor-{tag}", "layers.ancestor-floor",
                     worst >= cfg.delta ** 2 - 1e-12, worst, cfg.delta ** 2)

            ok_geom = _layers_disjoint_nested(ctx)
            self.add("layers", f"geometry-{tag}", "layers.disjoint-nested",
                     ok_geom, float(ok_geom), None)

            ok, slack = acc.check_layer_decay(ctx.layers, cfg.delta, mu, index)
            self.add("layers", f"mass-decay-{tag}", "layers.mass-decay",
                     ok, slack, 0.0)

            total, bound = acc.overlap_l1_bound(ctx.layers, cfg.delta, mu, index)
            self.add("layers", f"overlap-l1-{tag}", "layers.overlap-l1",
                     total <= bound + 1e-12, total, bound)

            k0 = ctx.system.k_min
            gap = float(np.max(np.abs(ctx.b_adapted[k0] - ctx.eb_adapted[k0])))
            floor = float(np.min(np.abs(ctx.b_adapted[k0])))
            self.add("layers", f"bottom-stable-{tag}", "layers.bottom-stabilized",
                     gap <= 1e-12 and floor >= cfg.delta ** 2 - 1e-12, floor,
                     cfg.delta ** 2)

    # ------------------------------------------------------------------
    def suite_badcubes(self):
        cfg = self.cfg
        trials = cfg.mc_trials
        for (gamma, r) in ((0.1, 4), (0.3, 8), (cfg.gamma, cfg.r)):
            try:
                params = gr.DyadicParams(gamma=gamma, r=r, alpha=cfg.alpha,
                                         d=cfg.growth_exponent)
            except ValueError:
                continue
            for n in (r, r + 8):
                t0 = time.perf_counter()
                p_hat, se = gr.bad_probability_mc(
                    cfg.dimension, 0, n, params, trials,
                    derive_seed(cfg.seed, f"badmc:{gamma}:{r}:{n}"))
                bound = gr.bad_probability_bound(cfg.dimension, n, params)
                self.add("badcubes", f"prob-g{gamma}-r{r}-n{n}",
                         "badcubes.probability-envelope",
                         p_hat <= bound + 3.0 * se, p_hat, bound, se,
                         runtime_s=time.perf_counter() - t0)

    # ------------------------------------------------------------------
    def suite_sqfn(self):
        cfg = self.cfg
        pairf = self.pair(grids="random")
        ctx = pairf.ctx_f
        mu = pairf.measure
        sampler = cfg.sampler()
        space = cfg.lattice()
        ensemble = fx.random_ensemble(derive_seed(cfg.seed, "sqfn"), mu, 6, cfg.p,
                                      space)
        rho = space.rho
        cap = cfg.ratio_cap

        fams = fx.sqfn_families(ctx)
        for name, fam in fams.items():
            res = rn.square_function_ratio(ctx, fam, cfg.p, ensemble, sampler, rho=rho)
            self.add("sqfn", name, f"sqfn.{name}",
                     math.isfinite(res["max_ratio"]) and res["max_ratio"] <= cap,
                     res["max_ratio"], cap)

        fs = {k: ensemble[i % len(ensemble)] for i, k in enumerate(ctx.diff_scales)}
        cs = rn.stein_check(ctx, fs, cfg.p, sampler, rho=rho)
        self.add("sqfn", "stein", "sqfn.stein-projection", cs <= cap, cs, cap)

        worst_up, worst_lo = 0.0, 0.0
        for f in ensemble[:3]:
            lhs = ms.lp_norm(mu, f, cfg.p, rho=rho)
            top = mg.adapted_expectation(ctx, f, ctx.system.s)
            parts = (ms.lp_norm(mu, top, cfg.p, rho=rho)
                     + rn.randomized_norm(mu, fams["adapted-diff"](f), cfg.p, sampler,
                                          rho=rho, label="neq1").value
                     + rn.randomized_norm(mu, fx.norm_equivalence_family(ctx, f),
                                          cfg.p, sampler, rho=rho, label="neq2").value)
            worst_up = max(worst_up, lhs / max(parts, 1e-300))
            worst_lo = max(worst_lo, parts / max(lhs, 1e-300))
        self.add("sqfn", "norm-equivalence-upper", "sqfn.norm-equivalence-upper",
                 worst_up <= cap, worst_up, cap)
        self.add("sqfn", "norm-equivalence-lower", "sqfn.norm-equivalence-lower",
                 worst_lo <= cap, worst_lo, cap)

        worst = 0.0
        for f in ensemble[:3]:
            worst = max(worst, rn.rmf_norm(ctx, f, cfg.p, rho=rho))
        self.add("sqfn", "rmf-maximal", "sqfn.rmf-bound", worst <= cap, worst, cap)

        rng = rng_for(cfg.seed, "contraction")
        fam = fams["adapted-diff"](ensemble[0])
        lam = rng.uniform(-1.0, 1.0, size=len(fam))
        after, before = rn.contraction_check(mu, fam, lam, sampler, rho=rho)
        self.add("sqfn", "contraction", "sqfn.contraction-principle",
                 after <= before * (1.0 + 1e-12), after, before)

        scalar_fam = fams["classical-diff"](ensemble[0][:, 0] if ensemble[0].ndim == 2
                                            else ensemble[0])
        rep = rn.randomized_norm(mu, scalar_fam, cfg.p, sampler, label="khintchine")
        sq = rn.square_function_norm(mu, scalar_fam, cfg.p)
        a_p, b_p = rn.khintchine_constants(cfg.p)
        ratio = rep.value / max(sq, 1e-300)
        slack = 3.0 * rep.stderr / max(sq, 1e-300)
        self.add("sqfn", "khintchine-sandwich", "sqfn.khintchine-sandwich",
                 a_p - slack - 1e-12 <= ratio <= b_p + slack + 1e-12, ratio, b_p,
                 rep.stderr)

        xi = [rng.normal(size=cfg.lattice_m) for _ in range(6)]
        aux = 16
        rho_fns = [rng.normal(size=aux) for _ in range(6)]
        probs = np.full(aux, 1.0 / aux)
        t = cfg.t_aux
        rho_fns = [r / max(float(np.dot(probs, np.abs(r) ** t) ** (1 / t)), 1e-300)
                   for r in rho_fns]
        res = rn.improved_contraction_check(xi, rho_fns, probs, t, rho, sampler)
        self.add("sqfn", "improved-contraction", "sqfn.improved-contraction",
                 res["ratio"] <= cap, res["ratio"], cap)

    # ------------------------------------------------------------------
    def suite_carleson(self):
        cfg = self.cfg
        pairf = self.pair(grids="random")
        ctx = pairf.ctx_f
        mu = pairf.measure
        sampler = cfg.sampler()
        tau = acc.layer_decay_tau(cfg.delta)

        chi_fns = {k: ctx.chi_mask(k).astype(float)
                   for k in range(ctx.system.k_min, ctx.system.s)}
        car = rn.carleson_norm(ctx.index, chi_fns, 1.0, sampler)
        bound = 1.0 + 1.0 / tau
        self.add("carleson", "chi-car1", "carleson.transition-car1",
                 car.value <= bound + 3.0 * car.stderr, car.value, bound, car.stderr)

        ensemble = fx.random_ensemble(derive_seed(cfg.seed, "carleson"), mu, 4, cfg.p)
        res = rn.carleson_embedding_check(ctx, chi_fns, car, ensemble, cfg.p, sampler)
        self.add("carleson", "embedding", "carleson.embedding",
                 res["max_ratio"] <= cfg.ratio_cap, res["max_ratio"], cfg.ratio_cap)

        rng = rng_for(cfg.seed, "ylcarl")
        signs = {k: np.full(mu.atom_count, float(rng.choice([-1.0, 1.0])))
                 for k in chi_fns}
        res_pm = rn.carleson_embedding_check(ctx, chi_fns, car, ensemble, cfg.p, sampler,
                                             multipliers=signs)
        ref = max(res["max_ratio"], 1e-300)
        self.add("carleson", "lattice-multiplier", "carleson.multiplier-embedding",
                 res_pm["max_ratio"] <= max(2.0 * ref, cfg.ratio_cap / 10),
                 res_pm["max_ratio"], 2.0 * ref)

        car_p = rn.carleson_norm(ctx.index, chi_fns, cfg.p, sampler)
        mono_ok = car_p.value >= car.value * (1.0 - 1e-9) - 3.0 * (car.stderr +
                                                                   car_p.stderr)
        self.add("carleson", "p-monotone", "carleson.p-monotonicity",
                 mono_ok, car_p.value, car.value, car_p.stderr)

    # ------------------------------------------------------------------
    def suite_decoupling(self):
        cfg = self.cfg
        mu = self.measure()
        sampler = cfg.sampler()
        pairf = self.pair(grids="random")
        index = pairf.index_f
        blocks = fx.decoupling_blocks(index, rng_for(cfg.seed, "dec"), max_blocks=10)
        lo, hi = 1.0 / 16.0, 16.0
        res = rn.decoupling_check(mu, blocks, cfg.p, sampler)
        ratio = res["ratio"]
        self.add("decoupling", "tangent-two-sided", "decoupling.tangent",
                 lo <= ratio <= hi, ratio, hi, res.get("rhs_stderr", 0.0))
        # p = 2 collapses to an exact identity; probe one non-Hilbert exponent
        p_alt = 3.0 if self.cfg.p == 2.0 else 2.0
        res_alt = rn.decoupling_check(mu, blocks, p_alt, sampler)
        self.add("decoupling", f"tangent-two-sided-p{p_alt:g}", "decoupling.tangent",
                 lo <= res_alt["ratio"] <= hi, res_alt["ratio"], hi,
                 res_alt.get("rhs_stderr", 0.0))

        const_blocks = [rn.DecouplingBlock(b.scale, b.atoms,
                                           np.where(np.isin(np.arange(mu.atom_count),
                                                            b.atoms), 1.0, 0.0),
                                           cells=b.cells)
                        for b in blocks]
        res_c = rn.decoupling_check(mu, const_blocks, cfg.p, sampler)
        err = abs(res_c["lhs"] - res_c["rhs"]) / max(res_c["lhs"], 1e-300)
        tol = 1e-10 if res_c["method"] == "exact" else 3.0 * res_c["rhs_stderr"] + 1e-10
        self.add("decoupling", "constant-blocks", "decoupling.constant-blocks",
                 err <= tol, err, tol)

        kern = czop.kernel_by_name(self.cfg.kernel, self.cfg.growth_exponent)

        def block_kernel(x, z):
            vals = kern.evaluate(x, z)
            cap = max(1.0, float(np.max(np.abs(vals))))
            return vals / cap

        kblocks = [rn.DecouplingBlock(b.scale, b.atoms, b.values, cells=b.cells,
                                      kernel=block_kernel) for b in blocks]
        res_k = rn.decoupling_check(mu, kblocks, cfg.p, sampler, mode="trick")
        self.add("decoupling", "kernel-average", "decoupling.kernel-average",
                 res_k["ratio"] <= cfg.ratio_cap, res_k["ratio"], cfg.ratio_cap)

    # ------------------------------------------------------------------
    def suite_matrix(self):
        cfg = self.cfg
        op = self.operator()
        mu = self.measure()
        val = czop.validate_kernel(op.kernel, mu, seed=derive_seed(cfg.seed, "kv"))
        self.add("matrix", "kernel-bounds", "kernel.size-smoothness",
                 val["passed"], max(val["size_ratio"], val["smooth_ratio"]), 1.0)

        pairf = self.pair(grids="standard")
        t0 = time.perf_counter()
        dec = czop.decay_bound_check(op, pairf.ctx_f, pairf.ctx_g, pairf.classifier)
        self.add("matrix", "decay-bounds", "matrix.decay-bounds",
                 dec.passed, float(len(dec.failures)), 0.0,
                 runtime_s=time.perf_counter() - t0)
        self.add("matrix", "decay-coverage", "matrix.decay-coverage",
                 dec.checked > 0, float(dec.checked), None)
        self.report.tables["decay_pairs"] = dec.table

        seps = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        slope = czop.decay_slope_fit(op.kernel, seps)
        target = -(op.kernel.d + op.kernel.alpha)
        err = abs(slope - target) / abs(target)
        self.add("matrix", "decay-slope", "matrix.distance-slope",
                 err <= 0.10, slope, target)

        rng = rng_for(cfg.seed, "transpose")
        worst = 0.0
        for _ in range(20):
            f = rng.normal(size=mu.atom_count)
            g = rng.normal(size=mu.atom_count)
            a = ms.pair(mu, g, op.apply(f))
            b = ms.pair(mu, op.adjoint_apply(g), f)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-30))
        self.add("matrix", "transpose-duality", "operator.transpose-duality",
                 worst <= 1e-12, worst, 1e-12)

        bound_b = czop.measure_testing_bound(op, pairf.ctx_f.accretive, pairf.index_f)
        self.add("matrix", "testing-bound", "operator.testing-bound",
                 math.isfinite(bound_b), bound_b, None)

    # ------------------------------------------------------------------
    def suite_paraproduct(self):
        cfg = self.cfg
        pairf = self.pair(grids="standard")
        op = self.operator()
        mu = pairf.measure
        try:
            smap = czop.paraproduct_smap(pairf.ctx_f, pairf.index_g, pairf.classifier)
            geom_ok = True
        except czop.GeometryError:
            smap, geom_ok = {}, False
        self.add("paraproduct", "smap-monotone", "paraproduct.smap-monotone",
                 geom_ok, float(geom_ok), None)

        iff_ok, n_nonempty = _smap_iff_check(pairf, smap)
        self.add("paraproduct", "smap-iff", "paraproduct.smap-characterization",
                 iff_ok, float(n_nonempty), None)

        rng = rng_for(cfg.seed, "parapr")
        f = rng.normal(size=mu.atom_count)
        g = rng.normal(size=mu.atom_count)
        pi_g = czop.paraproduct_apply(op, pairf.ctx_f, pairf.ctx_g, g, smap)
        direct = czop.paraproduct_direct_pairing(op, pairf.ctx_f, pairf.ctx_g, g, f,
                                                 smap)
        lhs = ms.pair(mu, pi_g, f)
        err = abs(lhs - direct) / max(abs(lhs), abs(direct), 1e-30)
        self.add("paraproduct", "duality", "paraproduct.duality", err <= 1e-12,
                 err, 1e-12)

        zero = czop.paraproduct_apply(op, pairf.ctx_f, pairf.ctx_g,
                                      np.zeros(mu.atom_count), smap)
        self.add("paraproduct", "zero-input", "paraproduct.zero-input",
                 not np.any(zero), float(np.max(np.abs(zero))), 0.0)

    # ------------------------------------------------------------------
    def suite_comparable(self):
        cfg = self.cfg
        pairf = self.pair(grids="standard")
        op = self.operator()
        found, worst_resid, part_ok = _comparable_scan(op, pairf, cfg.eta)
        self.add("comparable", "partition-exact", "comparable.partition",
                 part_ok, float(found), None)
        self.add("comparable", "msum-identity", "comparable.five-term-identity",
                 worst_resid <= 1e-12, worst_resid, 1e-12)

        trials = cfg.mc_trials
        p1, se1 = czop.boundary_probability(cfg.dimension, cfg.r, cfg.eta, 0, trials,
                                            derive_seed(cfg.seed, "collar1"))
        envelope = 4.0 * cfg.dimension * (cfg.r + 1) * cfg.eta
        self.add("comparable", "collar-probability", "collar.probability-envelope",
                 p1 <= envelope + 3.0 * se1, p1, envelope, se1)

        p2, se2 = czop.boundary_probability(cfg.dimension, cfg.r, cfg.eta / 2.0, 0,
                                            trials, derive_seed(cfg.seed, "collar2"))
        ratio = p2 / max(p1, 1e-300)
        self.add("comparable", "collar-linearity", "collar.linear-in-eta",
                 0.3 <= ratio <= 0.7, ratio, 0.7, se2)

    # ------------------------------------------------------------------
    def suite_ledger(self):
        cfg = self.cfg
        op = self.operator()
        rng = rng_for(cfg.seed, "ledger")
        mu = self.measure()
        f = rng.normal(size=mu.atom_count)
        g = rng.normal(size=mu.atom_count)
        fractions = []
        worst_resid = 0.0
        for r in (2, 4, 6):
            pairf = self.pair(r=r, grids="standard")
            led = czop.pairing_decomposition(op, pairf.ctx_f, pairf.ctx_g, f, g,
                                             pairf.classifier)
            worst_resid = max(worst_resid, led.identity_residual)
            fractions.append(led.bad_fraction)
            if r == cfg.r:
                self.report.tables["ledger_pairs"] = led.pair_table
        self.add("ledger", "identity", "ledger.exact-identity",
                 worst_resid <= 1e-10, worst_resid, 1e-10)
        decreasing = fractions[0] > fractions[1] > fractions[2]
        self.add("ledger", "bad-fraction-decreasing", "ledger.bad-fraction-vs-r",
                 decreasing, fractions[-1], fractions[0])

        pairf = self.pair(grids="random")
        led = czop.pairing_decomposition(op, pairf.ctx_f, pairf.ctx_g, f, g,
                                         pairf.classifier)
        self.add("ledger", "identity-random-grids", "ledger.exact-identity-random",
                 led.identity_residual <= 1e-10, led.identity_residual, 1e-10)


# =============================================================================
# Helpers
# =============================================================================

def _relsup(err_values: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.max(np.abs(reference))) or 1.0
    return float(np.max(np.abs(err_values))) / scale


def _relsup_by_cube(err_values: np.ndarray, reference: np.ndarray,
                    index: gr.GridIndex, k: int) -> np.ndarray:
    """``_relsup`` of 1_Q ``err_values`` for each occupied scale-k cube Q,
    by position: zero off Q adds nothing to a maximum of absolute values."""
    scale = float(np.max(np.abs(reference))) or 1.0
    return np.maximum.reduceat(np.abs(err_values)[index.atom_order(k)],
                               index.atom_starts(k)[:-1]) / scale


def _running_max(worst: float, values: np.ndarray) -> float:
    """``worst = max(worst, v)`` over ``values`` in order, as Python's
    ``max`` takes it (a NaN is kept only when it comes first)."""
    if values.size and not np.isnan(values).any():
        return max(worst, float(np.max(values)))
    for v in values.tolist():
        worst = max(worst, v)
    return worst


def _layers_disjoint_nested(ctx: mg.MartingaleContext) -> bool:
    sys = ctx.system
    for j, gen in enumerate(ctx.layers.generations):
        cubes = [sys.cube(*key) for key in gen]
        for a in range(len(cubes)):
            for b in range(a + 1, len(cubes)):
                if gr.set_distance(cubes[a], cubes[b]) == 0.0 and (
                        gr.contains(cubes[a], cubes[b])
                        or gr.contains(cubes[b], cubes[a])):
                    return False
        if j == 0:
            continue
        prev = [sys.cube(*key) for key in ctx.layers.generations[j - 1]]
        for c in cubes:
            hosts = [p for p in prev if gr.contains(p, c)]
            if len(hosts) != 1:
                return False
    return True


def _smap_iff_check(pairf: fx.FixturePair, smap) -> Tuple[bool, int]:
    """S(Q) against chi(Q, R) on the chain of R containing Q's centre, pair by
    pair through the scalar ``classify``.  It cannot raise there: a good Q
    that straddles R at a scale gap above r is bad."""
    sys2 = pairf.index_g.system
    nonempty = 0
    for k in pairf.ctx_f.diff_scales:
        for q_cube in pairf.index_f.occupied(k):
            s_cube = smap.get(q_cube.key)
            if s_cube is not None:
                nonempty += 1
            for j in range(q_cube.scale, sys2.s + 1):
                r_cube = sys2.cube_containing(q_cube.center, j)
                chi = (pairf.classifier.classify(q_cube, r_cube)
                       is czop.PairClass.DEEP_NESTED)
                s_strict = (s_cube is not None and gr.contains(r_cube, s_cube)
                            and r_cube.key != s_cube.key)
                if chi != s_strict:
                    return False, nonempty
    return True, nonempty


def _comparable_pairs(pairf: fx.FixturePair):
    """The comparable pairs (Q, R): Q occupied at a difference scale of the f
    system, R occupied in the g system at a scale >= Q's; in the order of
    Q, then R's scale, then R."""
    comparable = czop.PAIR_CLASSES.index(czop.PairClass.COMPARABLE)
    for k in pairf.ctx_f.diff_scales:
        q_cubes = pairf.index_f.occupied(k)
        is_comparable = {}      # by R's scale j, built when first reached
        for a, q_cube in enumerate(q_cubes):
            for j in range(k, pairf.index_g.system.s + 1):
                r_cubes = pairf.index_g.occupied(j)
                if j not in is_comparable:
                    is_comparable[j] = pairf.classifier.classify_block(
                        q_cubes, r_cubes) == comparable
                for b in np.flatnonzero(is_comparable[j][a]):
                    yield q_cube, r_cubes[b]


def _comparable_scan(op, pairf: fx.FixturePair, eta: float):
    params = pairf.params
    mu = pairf.measure
    found = 0
    worst = 0.0
    part_ok = True
    rng = rng_for(0, "cmp-funcs")
    psi = rng.normal(size=mu.atom_count)
    phiv = rng.normal(size=mu.atom_count)
    for q_cube, r_cube in _comparable_pairs(pairf):
        found += 1
        if found > 40:
            return found, worst, part_ok
        for i in range(2):          # every cube has 2^N >= 2 children
            for jj in range(2):
                regions = czop.comparable_partition(mu, q_cube, r_cube, i, jj, eta,
                                                    params)
                if not _regions_partition(mu, regions):
                    part_ok = False
                res = czop.comparable_msum(op, psi, phiv, regions)
                denom = max(abs(res["full"]), 1e-14)
                worst = max(worst, res["residual"] / denom)
    return found, worst, part_ok


def _regions_partition(mu, regions: czop.CollarRegions) -> bool:
    in_q = np.where(regions.q_child.contains_points(mu.positions))[0]
    in_r = np.where(regions.r_child.contains_points(mu.positions))[0]
    q_union = np.concatenate([regions.delta_q, regions.q_sep, regions.q_boundary])
    r_union = np.concatenate([regions.delta_r, regions.r_sep, regions.r_boundary])
    return (len(set(q_union)) == len(q_union) == in_q.size
            and set(q_union) == set(in_q)
            and len(set(r_union)) == len(r_union) == in_r.size
            and set(r_union) == set(in_r))


# =============================================================================
# Entry points
# =============================================================================

# the variables that set how many threads BLAS runs on
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _peak_rss_mib() -> Optional[float]:
    """The process's resident-set high-water mark so far: ``ru_maxrss``,
    whose unit is KiB on Linux (bytes on macOS), over 1024, so MiB on Linux;
    None where ``resource`` is missing.  The mark never falls, so a suite's
    value covers every suite that ran before it in the process."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_suite(config: ExperimentConfig) -> SuiteReport:
    return _Runner(config).run()


def emit_report(report: SuiteReport, out_dir) -> List[Path]:
    """Write the canonical JSON report and CSV tables; re-emission is idempotent.

    Wall times go to ``timings.json`` beside ``report.json``, in seconds: each
    suite's, each fixture pair's build (``pair_s``, by the repr of its
    (r, grids) key), and each check row's that has its own timer.  So does the
    process's peak resident set after each suite, ``peak_rss_mib``:
    ``getrusage``'s ``ru_maxrss``, whose unit is KiB on Linux, over 1024.
    They vary from run to run, so they stay out of the canonical report
    bytes.  So does the environment the report bits depend on, which
    ``timings.json`` records too: the BLAS thread variables (``"unset"`` when
    absent) and the numpy version.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    checks = sorted(report.checks, key=lambda c: (c.suite, c.name))
    report_path, timings_path, checks_path = (
        out / "report.json", out / "timings.json", out / "checks.csv")
    report_path.write_text(report.canonical_json(), encoding="utf-8")
    timings_path.write_text(json.dumps({
        "suite_s": report.suite_s,
        "peak_rss_mib": report.peak_rss_mib,
        "pair_s": report.pair_s,
        "check_s": {f"{c.suite}/{c.name}": c.runtime_s for c in checks
                    if c.runtime_s > 0.0},
        "environment": {**{var: os.environ.get(var, "unset") for var in _BLAS_THREAD_VARS},
                        "numpy": np.__version__},
    }, indent=1) + "\n", encoding="utf-8")
    _write_csv(checks_path, {
        "suite": [c.suite for c in checks], "name": [c.name for c in checks],
        "anchor": [c.anchor for c in checks], "passed": [int(c.passed) for c in checks],
        "value": [float(c.value) for c in checks],
        "bound": [None if c.bound is None else float(c.bound) for c in checks],
        "stderr": [float(c.stderr) for c in checks]})
    written = [report_path, timings_path, checks_path]
    for tname, table in report.tables.items():
        if len(next(iter(table.values()))):      # a table with no rows has no file
            written.append(out / f"{tname}.csv")
            _write_csv(written[-1], table)
    return written


def _write_csv(path: Path, table: Dict[str, Sequence]) -> None:
    """A column table as CSV: floats as ``repr``, cube keys as JSON, None empty."""
    columns = [col.tolist() if isinstance(col, np.ndarray) else col
               for col in table.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table)
        writer.writerows([_csv_cell(v) for v in row] for row in zip(*columns))


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return json.dumps(v)
    return v
