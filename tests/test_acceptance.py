"""Acceptance battery: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with pytest -s; captured
otherwise).  All fixtures are deterministic, all Monte-Carlo estimates carry
three standard errors of slack, and the whole module is budgeted to finish
well inside fifteen minutes on commodity hardware.
"""
import math
import time

import numpy as np
import pytest

from dyadlab.measure import LatticeSpace, integrate, lp_norm, pair, restrict
from dyadlab.grid import (DyadicParams, bad_probability_bound, bad_probability_mc,
                          contains)
from dyadlab.accretive import check_layer_decay
from dyadlab.fixtures import (battery_measure, battery_params, build_fixture_pair,
                              decoupling_blocks, norm_equivalence_family,
                              random_ensemble, sqfn_families)
from dyadlab.martingale import (adapted_diff, adapted_diff_adjoint,
                                adapted_diff_local, adapted_expectation,
                                expectation, omega, phi, reconstruct)
from dyadlab.operator import (DiscreteOperator, PairClass, boundary_probability,
                              comparable_msum, comparable_partition, decay_bound_check,
                              decay_slope_fit, hilbert_kernel, pairing_decomposition,
                              paraproduct_smap, riesz_kernel)
from dyadlab.randnorms import (RademacherSampler, carleson_norm, decoupling_check,
                               randomized_norm)

from reference_index import RefIndex

_T0 = time.time()
SAMPLER = RademacherSampler(n_exact=14, mc_trials=4096, seed=41)
GROWTH_FACTOR = 1.25


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ----------------------------------------------------------------------------
# shared fixture batteries (built once)
# ----------------------------------------------------------------------------

_PAIR_CACHE = {}


def standard_battery():
    """Mixed-dimension fixture pairs used by the identity-level criteria."""
    if "battery" not in _PAIR_CACHE:
        spec = [
            (1, 32, 0.3, "signed-perturbation", "random"),
            (1, 32, 0.5, "signed-perturbation", "standard"),
            (1, 64, 0.8, "signed-perturbation", "random"),
            (2, 32, 0.5, "signed-perturbation", "random"),
            (2, 32, 0.4, "oscillatory", "standard"),
            (1, 32, 0.9, "indicator", "random"),
        ]
        out = []
        for i, (dim, n, delta, style, grids) in enumerate(spec):
            mu = battery_measure(100 + i, dim, n)
            out.append(build_fixture_pair(200 + i, mu, battery_params(2), delta,
                                          style=style, grids=grids))
        _PAIR_CACHE["battery"] = out
    return _PAIR_CACHE["battery"]


def doubling_fixture(size, rep=0):
    key = ("doubling", size, rep)
    if key not in _PAIR_CACHE:
        mu = battery_measure(300 + size + 37 * rep, 2, size)
        _PAIR_CACHE[key] = build_fixture_pair(400 + size + 53 * rep,
                                              mu, battery_params(2),
                                              0.4, grids="random")
    return _PAIR_CACHE[key]


def _rel(err, ref):
    return float(np.max(np.abs(err))) / (float(np.max(np.abs(ref))) or 1.0)


def _growth_ok(series):
    """<= 25% growth per doubling, dips tolerated."""
    best = series[0]
    for value in series[1:]:
        if value > GROWTH_FACTOR * best + 1e-12:
            return False
        best = max(best, value)
    return True


# ----------------------------------------------------------------------------
# 1. reconstruction
# ----------------------------------------------------------------------------

def test_criterion_1_reconstruction():
    start = time.time()
    worst = 0.0
    deltas = [0.3, 0.5, 0.8]
    sizes = [16, 24, 32]
    nontrivial = 0
    for i in range(50):
        delta = deltas[i % 3]
        dim = 1 + (i % 2)
        mu = battery_measure(1000 + i, dim, sizes[i % 3])
        pairf = build_fixture_pair(2000 + i, mu, battery_params(2), delta,
                                   grids="random")
        ctx = pairf.ctx_f
        if len(ctx.layers.generations) > 1:
            nontrivial += 1
        rng = np.random.default_rng(3000 + i)
        f = rng.normal(size=mu.atom_count)
        worst = max(worst, reconstruct(ctx, f).residual)
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 30.0 and nontrivial >= 45
    _report("criterion-1 reconstruction",
            ok, f"worst residual {worst:.2e} (<=1e-10), {nontrivial}/50 fixtures "
                f"with stopping layers, {elapsed:.1f}s (<30s)")


# ----------------------------------------------------------------------------
# 2. algebraic identities
# ----------------------------------------------------------------------------

def test_criterion_2_algebraic_identities():
    tol = 1e-12
    worst = {"qr": 0.0, "qr2": 0.0, "dual": 0.0, "frame": 0.0, "frame-mean": 0.0,
             "defect-mean": 0.0, "equal-set": 0.0}
    const_ok = True
    for pairf in standard_battery():
        mu = pairf.measure
        for ctx in (pairf.ctx_f, pairf.ctx_g):
            delta = ctx.delta
            ref = RefIndex(mu, ctx.system)
            rng = np.random.default_rng(11)
            f = rng.normal(size=mu.atom_count)
            g = rng.normal(size=mu.atom_count)
            for k in ctx.diff_scales:
                dk = adapted_diff(ctx, f, k)
                om, ef = omega(ctx, k), expectation(ctx, f, k)
                worst["qr"] = max(worst["qr"], _rel(
                    adapted_diff(ctx, dk, k) - dk - om * ef, f))
                lhs = pair(mu, adapted_diff_adjoint(ctx, g, k), f)
                rhs = pair(mu, g, dk)
                worst["dual"] = max(worst["dual"],
                                    abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
                if float(np.max(np.abs(om))) > delta ** -2 + delta ** -4 + 1e-12:
                    const_ok = False
                if np.any(om[~ctx.chi_mask(k - 1)] != 0.0):
                    const_ok = False
                worst["defect-mean"] = max(worst["defect-mean"], float(
                    np.max(np.abs(expectation(ctx, om, k - 1)))))
                eq = ~ctx.chi_mask(k - 1)
                worst["equal-set"] = max(worst["equal-set"], float(np.max(np.abs(
                    (expectation(ctx, ctx.b_adapted[k - 1], k - 1)
                     - expectation(ctx, ctx.b_adapted[k], k - 1))[eq]))))
                for cube in ctx.index.occupied(k):
                    atoms_q = ref.atoms_of(cube)
                    dq = adapted_diff_local(ctx, f, cube)
                    worst["qr2"] = max(worst["qr2"], _rel(
                        adapted_diff_local(ctx, dq, cube) - dq
                        - restrict(om, atoms_q) * restrict(ef, atoms_q), f))
                    combo = np.zeros(mu.atom_count)
                    for i, child in ref.occupied_children(cube):
                        mass = ref.mass_of(child)
                        pv = phi(ctx, cube, i)
                        combo += integrate(mu, f, ref.atoms_of(child)) / mass * pv
                        if float(np.max(np.abs(pv))) > 2.0 / delta ** 2 + 1e-12:
                            const_ok = False
                        if float(np.dot(mu.weights, np.abs(pv))) > \
                                2.0 / delta ** 2 * mass + 1e-12:
                            const_ok = False
                        worst["frame-mean"] = max(
                            worst["frame-mean"],
                            abs(integrate(mu, pv)) / max(ref.mass_of(cube),
                                                         1e-30))
                    worst["frame"] = max(worst["frame"], _rel(dq - combo, f))
    peak = max(worst.values())
    ok = peak <= tol and const_ok
    _report("criterion-2 algebraic-identities", ok,
            f"worst relative residual {peak:.2e} (<=1e-12), "
            f"explicit constants {'held' if const_ok else 'VIOLATED'}")


# ----------------------------------------------------------------------------
# 3. layer decay
# ----------------------------------------------------------------------------

def test_criterion_3_layer_decay():
    worst_slack = math.inf
    for pairf in standard_battery():
        for ctx in (pairf.ctx_f, pairf.ctx_g):
            ok, slack = check_layer_decay(ctx.layers, ctx.delta, pairf.measure,
                                          ctx.index)
            worst_slack = min(worst_slack, slack)
            assert ok
    _report("criterion-3 layer-decay", worst_slack >= -1e-12,
            f"all generation masses within (1+delta)^-j, worst slack "
            f"{worst_slack:.3f}")


# ----------------------------------------------------------------------------
# 4. bad-cube probability
# ----------------------------------------------------------------------------

def test_criterion_4_bad_cube_probability():
    trials = 100_000
    rows = []
    ok = True
    for gamma in (0.1, 0.3):
        for r in (4, 8):
            params = DyadicParams(gamma=gamma, r=r, alpha=1.0, d=0.25)
            for n in (r, r + 8):
                start = time.time()
                p_hat, se = bad_probability_mc(1, 0, n, params, trials,
                                               seed=50 + r + n)
                elapsed = time.time() - start
                bound = bad_probability_bound(1, n, params)
                good = p_hat <= bound + 3.0 * se and elapsed < 120.0
                ok = ok and good
                rows.append(f"g={gamma},r={r},n={n}: {p_hat:.4f}<="
                            f"{min(bound, 9.99):.4f}+3({se:.4f}) [{elapsed:.1f}s]")
    _report("criterion-4 bad-cube-probability", ok, "; ".join(rows))


# ----------------------------------------------------------------------------
# 5. matrix decay
# ----------------------------------------------------------------------------

def test_criterion_5_matrix_decay():
    total_checked, failures = 0, 0
    for dim in (1, 2):
        for r in (3, 4):
            mu = battery_measure(500 + dim, dim, 32)
            pairf = build_fixture_pair(600 + dim + r, mu, battery_params(r), 0.5,
                                       grids="standard")
            op = DiscreteOperator(hilbert_kernel(0.25) if dim == 1
                                  else riesz_kernel(0.25), mu)
            res = decay_bound_check(op, pairf.ctx_f, pairf.ctx_g, pairf.classifier)
            total_checked += res.checked
            failures += len(res.failures)
    slopes_ok = True
    for d in (0.25, 0.8):
        slope = decay_slope_fit(riesz_kernel(d), [4.0, 8.0, 16.0, 32.0, 64.0])
        slopes_ok = slopes_ok and abs(slope + d + 1.0) <= 0.1 * (d + 1.0)
    ok = failures == 0 and total_checked > 0 and slopes_ok
    _report("criterion-5 matrix-decay", ok,
            f"{total_checked} pair bounds checked, {failures} failures, "
            f"slope fits within 10%: {slopes_ok}")


# ----------------------------------------------------------------------------
# 6. exact ledger
# ----------------------------------------------------------------------------

def test_criterion_6_exact_ledger():
    mu = battery_measure(7, 1, 32)
    op = DiscreteOperator(hilbert_kernel(0.25), mu)
    rng = np.random.default_rng(61)
    f, g = rng.normal(size=mu.atom_count), rng.normal(size=mu.atom_count)
    worst = 0.0
    fractions = []
    for r in (2, 4, 6):
        pairf = build_fixture_pair(7, mu, battery_params(r), 0.5, grids="standard")
        led = pairing_decomposition(op, pairf.ctx_f, pairf.ctx_g, f, g, pairf.classifier)
        worst = max(worst, led.identity_residual)
        fractions.append(led.bad_fraction)
    # every fixture of the standard battery reproduces the pairing
    for i, pairf in enumerate(standard_battery()):
        op_i = DiscreteOperator(hilbert_kernel(0.25) if pairf.measure.dimension == 1
                                else riesz_kernel(0.25), pairf.measure)
        rngi = np.random.default_rng(62 + i)
        fi = rngi.normal(size=(pairf.measure.atom_count, 2))
        gi = rngi.normal(size=(pairf.measure.atom_count, 2))
        led = pairing_decomposition(op_i, pairf.ctx_f, pairf.ctx_g, fi, gi,
                                    pairf.classifier)
        worst = max(worst, led.identity_residual)
    decreasing = fractions[0] > fractions[1] > fractions[2]
    ok = worst <= 1e-10 and decreasing
    _report("criterion-6 exact-ledger", ok,
            f"worst identity residual {worst:.2e} (<=1e-10), bad fraction "
            f"{fractions[0]:.3f} > {fractions[1]:.3f} > {fractions[2]:.3f}")


# ----------------------------------------------------------------------------
# 7. square-function suites
# ----------------------------------------------------------------------------

def _chi_car1(ctx):
    key = ("car1", id(ctx))
    if key not in _PAIR_CACHE:
        chi = {k: ctx.chi_mask(k).astype(float)
               for k in range(ctx.system.k_min, ctx.system.s)}
        _PAIR_CACHE[key] = carleson_norm(ctx.index, chi, 1.0, SAMPLER).value
    return _PAIR_CACHE[key]


def _sqfn_ratios(ctx, p, rho, m, seed):
    mu = ctx.measure
    space = LatticeSpace(m, rho)
    ens = random_ensemble(seed, mu, 3, p, space)
    # the sqfn suite's families but the plain differences, and the equal-set terms
    fams = {name: fam for name, fam in sqfn_families(ctx).items()
            if name != "classical-diff"}
    fams["equal-set"] = lambda f: [
        (~ctx.chi_mask(k - 1)).astype(float)[:, None]
        * (expectation(ctx, f, k - 1) / ctx.eb_adapted[k - 1][:, None]
           - expectation(ctx, f, k) / ctx.eb_adapted[k][:, None])
        for k in ctx.diff_scales]
    out = {}
    for name, fam in fams.items():
        best = 0.0
        for i, f in enumerate(ens):
            rep = randomized_norm(mu, fam(f), p, SAMPLER, rho=rho,
                                  label=f"acc7:{name}:{i}")
            best = max(best, rep.value)   # inputs are unit-normalized
        out[name] = best
    # multiplier embedding ratio against the transition Carleson norm
    car1 = max(_chi_car1(ctx), 1e-30)
    rng = np.random.default_rng(seed + 5)
    best = 0.0
    for i, f in enumerate(ens):
        signs = [float(rng.choice([-1.0, 1.0])) for _ in ctx.diff_scales]
        fam = [c_k * h for c_k, h in zip(signs, fams["transition-expectation"](f))]
        rep = randomized_norm(mu, fam, p, SAMPLER, rho=rho, label=f"acc7:yl:{i}")
        best = max(best, rep.value / car1)
    out["multiplier-embedding"] = best
    # norm equivalence, both directions
    up, lo = 0.0, 0.0
    for i, f in enumerate(ens):
        lhs = lp_norm(mu, f, p, rho=rho)
        parts = (lp_norm(mu, adapted_expectation(ctx, f, ctx.system.s), p, rho=rho)
                 + randomized_norm(mu, fams["adapted-diff"](f), p, SAMPLER, rho=rho,
                                   label=f"acc7:nq1:{i}").value
                 + randomized_norm(mu, norm_equivalence_family(ctx, f), p, SAMPLER,
                                   rho=rho, label=f"acc7:nq2:{i}").value)
        up = max(up, lhs / max(parts, 1e-30))
        lo = max(lo, parts / max(lhs, 1e-30))
    out["equivalence-upper"] = up
    out["equivalence-lower"] = lo
    return out


@pytest.mark.parametrize("p,rho", [(1.5, 2.0), (1.5, 4.0), (2.0, 2.0), (2.0, 4.0),
                                   (3.0, 2.0), (3.0, 4.0)])
def test_criterion_7_square_functions(p, rho):
    # sup per size over three independent grid/system draws: the empirical
    # stand-in for the size-dependent constant, stable enough for the trend
    start = time.time()
    sizes = [32, 64, 128, 256]
    series = {}
    for size in sizes:
        per_size = {}
        for rep in range(3):
            ctx = doubling_fixture(size, rep).ctx_f
            ratios = _sqfn_ratios(ctx, p, rho, m=4, seed=700 + size + rep)
            for name, val in ratios.items():
                per_size[name] = max(per_size.get(name, 0.0), val)
        for name, val in per_size.items():
            series.setdefault(name, []).append(val)
    elapsed = time.time() - start
    bad = [name for name, vals in series.items()
           if not (_growth_ok(vals) and all(math.isfinite(v) for v in vals))]
    ok = not bad and elapsed < 300.0
    detail = ", ".join(f"{name}: " + "->".join(f"{v:.2f}" for v in vals)
                       for name, vals in series.items())
    _report(f"criterion-7 square-functions p={p} rho={rho}", ok,
            f"{detail} [{elapsed:.0f}s]" + (f" UNSTABLE: {bad}" if bad else ""))


# ----------------------------------------------------------------------------
# 8. decoupling
# ----------------------------------------------------------------------------

def test_criterion_8_decoupling():
    rng = np.random.default_rng(81)
    # exact enumeration against Monte Carlo on a small instance
    small_ctx = doubling_fixture(32).ctx_f
    blocks = decoupling_blocks(small_ctx.index, rng, max_blocks=6)
    assert sum(1 for _ in blocks) <= 12
    exact = decoupling_check(small_ctx.measure, blocks, 3.0, SAMPLER)
    mc = decoupling_check(small_ctx.measure, blocks, 3.0, SAMPLER, mc_trials=4000,
                          exact_limit=1, seed=82)
    agree = (exact["method"] == "exact" and mc["method"] == "mc"
             and abs(mc["rhs"] - exact["rhs"]) <= 3.0 * mc["rhs_stderr"] + 1e-12)
    # bracket stability under doubling
    series = []
    for size in (32, 64, 128, 256):
        ctx = doubling_fixture(size).ctx_f
        blk = decoupling_blocks(ctx.index, np.random.default_rng(83 + size), max_blocks=8)
        res = decoupling_check(ctx.measure, blk, 3.0, SAMPLER, mc_trials=800,
                               seed=84 + size)
        series.append(max(res["ratio"], 1.0 / max(res["ratio"], 1e-30)))
    stable = _growth_ok(series)
    ok = agree and stable
    _report("criterion-8 decoupling", ok,
            f"exact-vs-mc within 3 sigma: {agree}; bracket series "
            + "->".join(f"{v:.2f}" for v in series))


# ----------------------------------------------------------------------------
# 9. geometry partitions
# ----------------------------------------------------------------------------

def test_criterion_9_geometry_partitions():
    counts = {cls: 0 for cls in PairClass}
    msum_worst = 0.0
    rcub_failures = 0
    smap_ok = True
    for dim in (1, 2):
        mu = battery_measure(900 + dim, dim, 32)
        pairf = build_fixture_pair(910 + dim, mu, battery_params(3), 0.5,
                                   grids="standard")
        op = DiscreteOperator(riesz_kernel(0.25), mu)
        classifier = pairf.classifier
        rng = np.random.default_rng(92)
        psi = rng.normal(size=mu.atom_count)
        phiv = rng.normal(size=mu.atom_count)
        comparable_seen = 0
        for k in pairf.ctx_f.diff_scales:
            for q in pairf.index_f.occupied(k):
                for j in pairf.ctx_g.diff_scales:
                    for rc in pairf.index_g.occupied(j):
                        if q.side > rc.side:
                            continue
                        cls = classifier.classify(q, rc)   # raises on gaps
                        counts[cls] += 1
                        if cls is PairClass.DEEP_NESTED and \
                                rc.scale > rc.system.k_min:
                            hosts = [c for c in rc.children() if contains(c, q)]
                            if len(hosts) != 1:
                                rcub_failures += 1
                        if cls is PairClass.COMPARABLE and comparable_seen < 20:
                            comparable_seen += 1
                            regions = comparable_partition(mu, q, rc, 0, 0, 0.08,
                                                           pairf.params)
                            res = comparable_msum(op, psi, phiv, regions)
                            msum_worst = max(
                                msum_worst,
                                res["residual"] / max(abs(res["full"]), 1e-14))
        smap = paraproduct_smap(pairf.ctx_f, pairf.index_g, classifier)
        sys2 = pairf.index_g.system
        for k in pairf.ctx_f.diff_scales:
            for q in pairf.index_f.occupied(k):
                s_cube = smap[q.key]
                for j in range(q.scale, sys2.s + 1):
                    rc = sys2.cube_containing(q.center, j)
                    chi = (contains(rc, q)
                           and q.side < 2.0 ** (-pairf.params.r) * rc.side
                           and not classifier.is_bad(q, rc))
                    s_strict = (s_cube is not None and contains(rc, s_cube)
                                and rc.key != s_cube.key)
                    smap_ok = smap_ok and (chi == s_strict)
    nonvacuous = all(counts[c] > 0 for c in (PairClass.SEPARATED,
                                             PairClass.DEEP_NESTED,
                                             PairClass.COMPARABLE, PairClass.BAD))
    ok = nonvacuous and msum_worst <= 1e-12 and rcub_failures == 0 and smap_ok
    _report("criterion-9 geometry-partitions", ok,
            f"classes {{{', '.join(f'{c.value}: {n}' for c, n in counts.items())}}}, "
            f"five-term worst residual {msum_worst:.2e}, child-containment "
            f"failures {rcub_failures}, stopping-map characterization {smap_ok}")


# ----------------------------------------------------------------------------
# 10. boundary collar probability
# ----------------------------------------------------------------------------

def test_criterion_10_boundary_collar():
    trials = 100_000
    ok = True
    details = []
    for (dim, r, eta) in ((1, 2, 0.05), (2, 4, 0.02)):
        p1, se1 = boundary_probability(dim, r, eta, 0, trials, seed=101 + dim)
        envelope = 4.0 * dim * (r + 1) * eta
        p2, se2 = boundary_probability(dim, r, eta / 2.0, 0, trials, seed=111 + dim)
        ratio = p2 / max(p1, 1e-30)
        good = p1 <= envelope + 3.0 * se1 and 0.3 <= ratio <= 0.7
        ok = ok and good
        details.append(f"N={dim},r={r},eta={eta}: p={p1:.4f}<={envelope:.3f}, "
                       f"halving {ratio:.3f}")
    _report("criterion-10 boundary-collar", ok, "; ".join(details))


# ----------------------------------------------------------------------------
# battery wall clock
# ----------------------------------------------------------------------------

def test_zz_battery_runtime():
    elapsed = time.time() - _T0
    _report("battery-runtime", elapsed < 900.0,
            f"acceptance battery finished in {elapsed:.0f}s (<900s)")
