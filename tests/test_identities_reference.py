"""The per-scale identity checks against the cube-by-cube loops they replace.

``_ref_suite_identities`` and ``_ref_phi`` are the cube-by-cube versions,
kept as they were but reading the partition from ``RefIndex``: every
``identities`` row of the per-scale suite must equal theirs bit for bit (NaN
equal to NaN), on 1-D and 2-D battery measures, standard and random grids
and all three accretive styles.  A call-count
guard keeps the suite off the per-cube lookups, and a tracemalloc test keeps
its peak memory at most the reference's.
"""
import math
import tracemalloc

import numpy as np
import pytest

from dyadlab import grid as gr
from dyadlab import martingale as mg
from dyadlab import measure as ms
from dyadlab._seeds import rng_for
from dyadlab.accretive import STYLES
from dyadlab.harness import ExperimentConfig, _relsup, _Runner

from reference_index import RefIndex


# =============================================================================
# The cube-by-cube reference
# =============================================================================

def _ref_phi(ctx: mg.MartingaleContext, index: RefIndex, cube: gr.Cube,
             i: int) -> np.ndarray:
    """``mg.phi`` as it was, one cube and child at a time."""
    mu = ctx.measure
    child = cube.children()[i]
    out = np.zeros(mu.atom_count)
    atoms_child = index.atoms_of(child)
    if atoms_child.size == 0:
        return out
    atoms_cube = index.atoms_of(cube)
    mass_child = index.mass_of(child)
    mass_cube = index.mass_of(cube)

    b_child = ctx.b_adapted[child.scale]
    b_cube = ctx.b_adapted[cube.scale]
    mean_child = ms.integrate(mu, b_child, atoms_child) / mass_child
    mean_cube = ms.integrate(mu, b_cube, atoms_cube) / mass_cube

    out[atoms_child] += b_child[atoms_child] / mean_child
    out[atoms_cube] -= (mass_child / mass_cube) * b_cube[atoms_cube] / mean_cube
    return out


def _ref_suite_identities(self):
    """``_Runner.suite_identities`` as it was cube by cube (``self`` is a runner)."""
    cfg = self.cfg
    pairf = self.pair(grids="random")
    ctx = pairf.ctx_f
    mu = pairf.measure
    ref = RefIndex(mu, ctx.system)
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

    worst = 0.0
    for k in ctx.diff_scales:
        lhs = mg.adapted_diff(ctx, diffs[k], k)
        rhs = diffs[k] + omegas[k] * means[k]
        worst = max(worst, _relsup(lhs - rhs, f))
    self.add("identities", "projection-square", "adapted.projection-square",
             worst <= tol, worst, tol)

    worst = 0.0
    for k in ctx.diff_scales:
        for cube in ctx.index.occupied(k):
            atoms = ref.atoms_of(cube)
            dq = ms.restrict(diffs[k], atoms)
            lhs = mg.adapted_diff_local(ctx, dq, cube)
            rhs = dq + ms.restrict(omegas[k], atoms) * ms.restrict(means[k], atoms)
            worst = max(worst, _relsup(lhs - rhs, f))
    self.add("identities", "local-projection-square", "adapted.local-projection-square",
             worst <= tol, worst, tol)

    worst = 0.0
    for k in ctx.diff_scales:
        lhs = ms.pair(mu, mg.adapted_diff_adjoint(ctx, g, k), f)
        rhs = ms.pair(mu, g, diffs[k])
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    self.add("identities", "adjoint-duality", "adapted.adjoint-duality",
             worst <= tol, worst, tol)

    worst_exp, worst_mean, worst_sup, worst_l1, bad_supp = 0.0, 0.0, 0.0, 0.0, 0
    for k in ctx.diff_scales:
        for cube in ctx.index.occupied(k):
            atoms = ref.atoms_of(cube)
            dq = ms.restrict(diffs[k], atoms)
            outside = np.delete(np.arange(mu.atom_count), atoms)
            combo = np.zeros(mu.atom_count)
            for i, child in ref.occupied_children(cube):
                mass_child = ref.mass_of(child)
                mean = ms.integrate(mu, f, ref.atoms_of(child)) / mass_child
                pv = _ref_phi(ctx, ref, cube, i)
                combo += mean * pv
                worst_mean = max(worst_mean, abs(ms.integrate(mu, pv))
                                 / max(ref.mass_of(cube), 1e-30))
                worst_sup = max(worst_sup, float(np.max(np.abs(pv))))
                worst_l1 = max(worst_l1, ms.lp_norm(mu, pv, 1.0)
                               / (2.0 / delta ** 2 * mass_child))
                if outside.size and np.any(pv[outside] != 0.0):
                    bad_supp += 1
            worst_exp = max(worst_exp, _relsup(dq - combo, f))
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


# =============================================================================
# Cases
# =============================================================================

class _GridRunner(_Runner):
    """A runner whose suites build their fixture pair on the given grids."""

    def __init__(self, config: ExperimentConfig, grids: str):
        super().__init__(config)
        self.grids = grids

    def pair(self, r=None, grids="standard"):
        return super().pair(r, self.grids)


def _config(dim: int, n: int, style: str, seed: int = 7) -> ExperimentConfig:
    return ExperimentConfig(seed=seed, dimension=dim, atom_count=n, accretive_style=style,
                            kernel="hilbert" if dim == 1 else "riesz",
                            suites=("identities",))


def _rows(report) -> list:
    return [(c.name, c.anchor, c.passed, c.value, c.bound) for c in report.checks]


def _same(a: float, b: float) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


CASES = [(dim, n, grids, style) for dim in (1, 2) for n in (1, 2, 3, 64, 300, 512)
         for grids in ("standard", "random") for style in STYLES
         # 2-D at n = 512 for one style per grid keeps the module fast
         if not (dim == 2 and n == 512 and style != "signed-perturbation")]


@pytest.mark.parametrize("dim,n,grids,style", CASES)
def test_identity_rows_equal_the_cube_by_cube_loops(dim, n, grids, style):
    cfg = _config(dim, n, style)
    new, ref = _GridRunner(cfg, grids), _GridRunner(cfg, grids)
    new.suite_identities()
    _ref_suite_identities(ref)
    got, want = _rows(new.report), _rows(ref.report)
    assert [r[:3] + r[4:] for r in got] == [r[:3] + r[4:] for r in want]
    for g, w in zip(got, want):
        assert _same(g[3], w[3]), (g[0], g[3], w[3])


@pytest.mark.parametrize("dim,n,grids", [(1, 3, "standard"), (1, 300, "random"),
                                         (2, 64, "standard"), (2, 300, "random")])
def test_frame_block_rows_equal_phi(dim, n, grids):
    ctx = _GridRunner(_config(dim, n, "oscillatory"), grids).pair().ctx_f
    ref = RefIndex(ctx.measure, ctx.system)
    kids = 2 ** dim
    pairs = 0
    for k in ctx.diff_scales:
        block = mg.frame_block(ctx, k)
        starts = ctx.index.child_table(k)[0]
        rows = iter(block)
        for cube in ctx.index.occupied(k):
            occupied = dict(ref.occupied_children(cube))
            for i in range(kids):
                want = _ref_phi(ctx, ref, cube, i)
                assert np.array_equal(mg.phi(ctx, cube, i), want)
                if i in occupied:
                    assert np.array_equal(next(rows), want)
                    pairs += 1
        assert next(rows, None) is None
        # a block of rows has the bits of the same rows of the whole
        for lo, hi in ((0, 1), (1, starts[-1]), (starts[-1] // 2, starts[-1])):
            assert np.array_equal(mg.frame_block(ctx, k, slice(lo, hi)), block[lo:hi])
    assert pairs > 0


def test_phi_leaves_no_row_below_the_window():
    ctx = _GridRunner(_config(1, 64, "indicator"), "standard").pair().ctx_f
    bottom = ctx.index.occupied(ctx.system.k_min)[0]
    with pytest.raises(ValueError, match="leave the scale window"):
        mg.phi(ctx, bottom, 0)
    with pytest.raises(ValueError, match="leave the scale window"):
        mg.frame_block(ctx, ctx.system.k_min)
    with pytest.raises(IndexError):
        mg.phi(ctx, ctx.index.occupied(ctx.system.s)[0], 2)


def test_cube_integrals_equal_integrate_over_atoms():
    ctx = _GridRunner(_config(2, 300, "signed-perturbation"), "random").pair().ctx_f
    ref = RefIndex(ctx.measure, ctx.system)
    values = np.random.default_rng(3).normal(size=ctx.measure.atom_count)
    for k in ctx.scales:
        want = [ms.integrate(ctx.measure, values, ref.atoms_of(cube))
                for cube in ctx.index.occupied(k)]
        assert mg.cube_integrals(ctx, values, k).tolist() == want
        picked = np.arange(0, len(want), 3)
        assert mg.cube_integrals(ctx, values, k, picked).tolist() == want[::3]


# =============================================================================
# No per-cube lookups, no more memory
# =============================================================================

def test_identities_suite_makes_no_per_cube_lookups(monkeypatch):
    runner = _Runner(_config(1, 300, "signed-perturbation"))
    runner.pair(grids="random")             # the fixture build is not the suite
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((gr.GridIndex, "occupied"), (gr.Cube, "children"),
                        (mg, "phi"), (mg, "adapted_diff_local")):
        counted(owner, name)
    runner.suite_identities()
    assert len(runner.report.checks) == 18
    assert calls == []


def _suite_peak(suite, n: int) -> int:
    runner = _Runner(_config(1, n, "signed-perturbation"))
    runner.pair(grids="random")
    tracemalloc.start()
    try:
        suite(runner)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_identities_peak_memory_at_most_the_cube_by_cube_loops():
    n = 4096
    new = _suite_peak(_Runner.suite_identities, n)
    ref = _suite_peak(_ref_suite_identities, n)
    assert new <= ref, (new, ref)
