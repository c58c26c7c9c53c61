import math
import tracemalloc

import numpy as np
import pytest

from dyadlab.measure import AtomicMeasure, lp_norm, vector_norm
from dyadlab.fixtures import battery_measure, build_fixture_pair, random_ensemble, \
    battery_params
from dyadlab.martingale import expectation
from dyadlab.randnorms import (DecouplingBlock, NormReport, RademacherSampler,
                               carleson_norm, carleson_embedding_check, contraction_check,
                               decoupling_check, improved_contraction_check,
                               khintchine_constants, operator_norm, rademacher_bound,
                               randomized_norm, rmf_maximal, rmf_norm,
                               square_function_norm, stein_check)


SAMPLER = RademacherSampler(n_exact=14, mc_trials=3000, seed=5)


def small_measure(seed=3, atoms=12):
    rng = np.random.default_rng(seed)
    pos = np.sort(rng.uniform(0, 1, atoms)).reshape(-1, 1)
    return AtomicMeasure(1, 1.0, pos, rng.uniform(0.5, 1.5, atoms))


def fixture_ctx(seed=5, atoms=32, delta=0.4):
    mu = battery_measure(seed, 1, atoms)
    pairf = build_fixture_pair(seed, mu, battery_params(2), delta, grids="random")
    return pairf.ctx_f


# =============================================================================
# Randomized norms
# =============================================================================

def test_single_function_norm_reduces_to_lp():
    mu = small_measure()
    rng = np.random.default_rng(0)
    h = rng.normal(size=mu.atom_count)
    for p in (1.5, 2.0, 3.0):
        rep = randomized_norm(mu, [h], p, SAMPLER)
        assert rep.method == "exact"
        assert rep.value == pytest.approx(lp_norm(mu, h, p), rel=1e-12)


def test_p2_exact_equality_with_square_function():
    mu = small_measure()
    rng = np.random.default_rng(1)
    fam = [rng.normal(size=mu.atom_count) for _ in range(6)]
    rep = randomized_norm(mu, fam, 2.0, SAMPLER)
    assert rep.value == pytest.approx(square_function_norm(mu, fam, 2.0), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_khintchine_window_random_families(p):
    mu = small_measure()
    rng = np.random.default_rng(2)
    a_p, b_p = khintchine_constants(p)
    for trial in range(20):
        fam = [rng.normal(size=mu.atom_count)
               for _ in range(int(rng.integers(2, 9)))]
        rep = randomized_norm(mu, fam, p, SAMPLER)
        sq = square_function_norm(mu, fam, p)
        ratio = rep.value / sq
        assert a_p - 1e-12 <= ratio <= b_p + 1e-12


def test_khintchine_constants_shape():
    assert khintchine_constants(2.0) == (1.0, pytest.approx(1.0))
    a, b = khintchine_constants(1.0)
    assert a == pytest.approx(2.0 ** -0.5) and b == 1.0
    a4, b4 = khintchine_constants(4.0)
    assert a4 == 1.0 and b4 == pytest.approx(3.0 ** 0.25)


def test_mc_agrees_with_exact_within_3_sigma():
    mu = small_measure()
    rng = np.random.default_rng(3)
    fam = [rng.normal(size=mu.atom_count) for _ in range(8)]
    exact = randomized_norm(mu, fam, 3.0, SAMPLER)
    mc = randomized_norm(mu, fam, 3.0,
                         RademacherSampler(n_exact=4, mc_trials=6000, seed=17),
                         label="mc-agree")
    assert mc.method == "mc" and mc.stderr > 0
    assert abs(mc.value - exact.value) <= 3.0 * mc.stderr


def test_mc_reproducible_bit_exact():
    mu = small_measure()
    rng = np.random.default_rng(4)
    fam = [rng.normal(size=mu.atom_count) for _ in range(20)]
    s = RademacherSampler(n_exact=4, mc_trials=500, seed=23)
    a = randomized_norm(mu, fam, 2.5, s, label="x")
    b = randomized_norm(mu, fam, 2.5, s, label="x")
    assert a == b


def test_contraction_principle_never_increases():
    mu = small_measure()
    rng = np.random.default_rng(5)
    fam = [rng.normal(size=mu.atom_count) for _ in range(7)]
    for trial in range(10):
        lam = rng.uniform(-1, 1, size=7)
        after, before = contraction_check(mu, fam, lam, SAMPLER)
        assert after <= before + 1e-12


def test_lattice_valued_norm_and_ratio():
    mu = small_measure()
    rng = np.random.default_rng(6)
    fam = [rng.normal(size=(mu.atom_count, 3)) for _ in range(5)]
    rep = randomized_norm(mu, fam, 2.0, SAMPLER, rho=4.0)
    sq = square_function_norm(mu, fam, 2.0, rho=4.0)
    assert rep.value > 0 and sq > 0
    # two-sided comparability with a generous documented envelope
    assert 0.2 <= rep.value / sq <= 5.0


def _reference_vector_norm(values, rho):
    """measure.vector_norm as it was before the column loop (numpy reductions)."""
    a = np.abs(np.asarray(values, dtype=float))
    if a.ndim <= 1:
        return a
    if math.isinf(rho):
        return np.max(a, axis=-1)
    if rho == 1.0:
        return np.sum(a, axis=-1)
    if rho == 2.0:
        return np.sqrt(np.sum(a * a, axis=-1))
    return np.sum(a ** rho, axis=-1) ** (1.0 / rho)


@pytest.mark.parametrize("rho", [1.0, 2.0, 3.0, 4.0, math.inf])
def test_vector_norm_column_order_matches_numpy_sum(rho):
    """Bit for bit up to seven coordinates; numpy sums pairwise from eight on."""
    rng = np.random.default_rng(31)
    for m in range(1, 10):
        a = rng.normal(size=(64, 33, m)) * rng.uniform(1e-3, 1e3, size=(64, 33, m))
        got, want = vector_norm(a, rho), _reference_vector_norm(a, rho)
        if m <= 7 or math.isinf(rho):
            assert np.array_equal(got, want), m
        else:
            assert np.max(np.abs(got - want) / want) <= 1e-15 * m, m


def _reference_randomized_norm(mu, family, p, sampler, rho=2.0, label=""):
    """randomized_norm as it was before blocking: every pattern at once."""
    H = np.stack([np.asarray(h, dtype=float) for h in family], axis=0)
    if H.shape[0] == 0:
        return NormReport(0.0, "exact", 0.0, 1)
    signs, exact = sampler.signs(H.shape[0], label=label)
    if H.ndim == 2:                                    # scalar-valued family
        norms = np.abs(signs @ H)                      # (P, n)
    else:                                              # lattice-valued family
        fields = np.tensordot(signs, H, axes=(1, 0))   # (P, n, m)
        norms = _reference_vector_norm(fields, rho)    # (P, n)
    per_pattern = norms ** p @ mu.weights         # (P,)
    mean = float(np.mean(per_pattern))
    value = mean ** (1.0 / p)
    if exact:
        return NormReport(value, "exact", 0.0, signs.shape[0])
    sd = float(np.std(per_pattern, ddof=1)) / math.sqrt(signs.shape[0])
    stderr = sd / max(p * mean ** (1.0 - 1.0 / p), 1e-300)
    return NormReport(value, "mc", stderr, signs.shape[0])


def _reference_cases():
    """A seeded subsample of K x n x value shape x rho x p x path.

    Cases whose all-at-once reference would hold more than 2M product
    entries are skipped, so the reference stays small; each (K, path) keeps
    six cases.  Every product has at most 192 or a multiple of 8 columns,
    and Monte Carlo trial counts are multiples of 16: the domain where the
    module docstring promises equal bits.
    """
    rng = np.random.default_rng(2026)
    cases = []
    for count in range(1, 17):
        for path in ("exact", "mc"):
            kept = 0
            while kept < 6:
                n = int(rng.choice([1, 2, 5, 64, 512]))
                m = int(rng.choice([0, 1, 2, 3, 7]))          # 0: scalar-valued
                trials = 2 ** count if path == "exact" else \
                    int(rng.choice([1008, 2000, 3008, 4096]))
                if trials * n * max(m, 1) > 2_000_000:
                    continue
                cases.append((count, path, n, m, trials,
                              float(rng.choice([1.0, 2.0, 3.0, math.inf])),
                              float(rng.choice([1.0, 1.5, 2.0, 3.0])),
                              int(rng.integers(1 << 30))))
                kept += 1
    # 16 signs with few columns, 1-4 modulo 8: a block of too few rows would
    # take BLAS's small-matrix gemm, which adds the terms in another order
    cases += [(16, "exact", 2, 0, 2 ** 16, 2.0, 1.5, 1), (16, "exact", 2, 2, 2 ** 16, 3.0, 2.0, 2),
              (16, "mc", 5, 7, 4096, 2.0, 1.5, 3), (16, "mc", 64, 3, 3008, math.inf, 3.0, 4)]
    return cases


def test_randomized_norm_matches_reference_bit_for_bit():
    for count, path, n, m, trials, rho, p, seed in _reference_cases():
        rng = np.random.default_rng(seed)
        mu = AtomicMeasure(1, 1.0, np.sort(rng.uniform(0, 1, n)).reshape(-1, 1),
                           rng.uniform(0.1, 2.0, n))
        shape = (n,) if m == 0 else (n, m)
        fam = [rng.normal(size=shape) for _ in range(count)]
        sampler = RademacherSampler(n_exact=16 if path == "exact" else count - 1,
                                    mc_trials=trials, seed=seed % 97)
        got = randomized_norm(mu, fam, p, sampler, rho=rho, label="ref")
        want = _reference_randomized_norm(mu, fam, p, sampler, rho=rho, label="ref")
        assert got.method == path
        assert got == want, (count, path, n, m, trials, rho, p)


def test_exact_norm_memory_is_bounded():
    """One K = 14, n = 512 exact lattice call stays far below its 128 MiB table."""
    rng = np.random.default_rng(8)
    mu = AtomicMeasure(1, 1.0, np.sort(rng.uniform(0, 1, 512)).reshape(-1, 1),
                       rng.uniform(0.5, 1.5, 512))
    fam = [rng.normal(size=(512, 2)) for _ in range(14)]
    sampler = RademacherSampler(n_exact=14)
    tracemalloc.start()
    try:
        rep = randomized_norm(mu, fam, 2.0, sampler)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.method == "exact" and rep.trials == 2 ** 14
    assert peak < 16 * 2 ** 20


def test_exact_sign_table_is_cached_and_read_only():
    sampler = RademacherSampler(n_exact=6)
    table, exact = sampler.signs(5)
    assert exact and table.shape == (32, 5)
    assert RademacherSampler(n_exact=9, seed=4).signs(5)[0] is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    grid = (np.arange(32)[:, None] >> np.arange(5)[None, :]) & 1
    assert np.array_equal(table, 1.0 - 2.0 * grid)
    # row P-1-i is -(row i): the symmetry the evaluation mirrors
    assert np.array_equal(table[::-1], -table)


def test_empty_family_has_documented_zero_norm():
    mu = small_measure()
    assert randomized_norm(mu, [], 2.0, SAMPLER) == NormReport(0.0, "exact", 0.0, 1)
    assert square_function_norm(mu, [], 2.0) == 0.0


# =============================================================================
# Carleson norms
# =============================================================================

def test_carleson_single_indicator():
    ctx = fixture_ctx()
    top = ctx.system.top_cube()
    ind = np.zeros(ctx.measure.atom_count)
    ind[ctx.index.atoms_of(top)] = 1.0
    car = carleson_norm(ctx.index, {ctx.system.s: ind}, 1.0, SAMPLER)
    assert car.value == pytest.approx(1.0, rel=1e-12)


def test_carleson_zero_sequence():
    ctx = fixture_ctx()
    zeros = {k: np.zeros(ctx.measure.atom_count) for k in ctx.diff_scales}
    car = carleson_norm(ctx.index, zeros, 1.0, SAMPLER)
    assert car.value == 0.0


def test_carleson_chi_sequence_explicit_bound():
    ctx = fixture_ctx(atoms=64)
    tau = ctx.delta / (1.0 + ctx.delta)
    chi = {k: ctx.chi_mask(k).astype(float)
           for k in range(ctx.system.k_min, ctx.system.s)}
    car = carleson_norm(ctx.index, chi, 1.0, SAMPLER)
    assert car.value <= 1.0 + 1.0 / tau + 3.0 * car.stderr


def test_embedding_zero_and_measurability_guard():
    ctx = fixture_ctx()
    mu = ctx.measure
    zeros = {k: np.zeros(mu.atom_count) for k in list(ctx.diff_scales)[:4]}
    res = carleson_embedding_check(ctx, zeros, carleson_norm(ctx.index, zeros, 1.0, SAMPLER),
                                   [np.ones(mu.atom_count)], 2.0, SAMPLER)
    assert res["max_ratio"] == 0.0
    rng = np.random.default_rng(7)
    # a random function cannot be constant on the top cube
    bad = {ctx.system.s: rng.normal(size=mu.atom_count)}
    with pytest.raises(ValueError, match="measurable"):
        carleson_embedding_check(ctx, bad, carleson_norm(ctx.index, bad, 1.0, SAMPLER),
                                 [np.ones(mu.atom_count)], 2.0, SAMPLER)


def test_embedding_sign_multipliers_comparable():
    ctx = fixture_ctx(atoms=32)
    mu = ctx.measure
    chi = {k: ctx.chi_mask(k).astype(float)
           for k in range(ctx.system.k_min, ctx.system.s)}
    ens = random_ensemble(9, mu, 3, 2.0)
    car = carleson_norm(ctx.index, chi, 1.0, SAMPLER)
    base = carleson_embedding_check(ctx, chi, car, ens, 2.0, SAMPLER)
    rng = np.random.default_rng(8)
    signs = {k: np.full(mu.atom_count, float(rng.choice([-1.0, 1.0]))) for k in chi}
    flipped = carleson_embedding_check(ctx, chi, car, ens, 2.0, SAMPLER,
                                       multipliers=signs)
    if base["max_ratio"] > 0:
        assert flipped["max_ratio"] <= 2.0 * base["max_ratio"] + 1e-12


# =============================================================================
# R-bounds and the maximal function
# =============================================================================

def test_rbound_singleton_is_operator_norm():
    rng = np.random.default_rng(9)
    t = rng.normal(size=(3, 3))
    lower, upper, method = rademacher_bound([t], SAMPLER, rho=2.0)
    expected = float(np.linalg.norm(t, 2))
    assert method == "hilbert-exact"
    assert lower == pytest.approx(expected, rel=1e-9)
    assert upper == pytest.approx(expected, rel=1e-9)


def test_rbound_scalar_family_is_sup():
    ts = [np.array([[0.3]]), np.array([[-1.7]]), np.array([[0.9]])]
    lower, upper, _ = rademacher_bound(ts, SAMPLER, rho=2.0)
    assert lower == pytest.approx(1.7, rel=1e-9)
    assert upper == pytest.approx(1.7, rel=1e-9)


def test_rbound_contractions_envelope():
    rng = np.random.default_rng(10)
    fam = []
    for _ in range(5):
        a = rng.normal(size=(4, 4))
        fam.append(a / np.linalg.norm(a, 2))
    lower, upper, _ = rademacher_bound(fam, SAMPLER, rho=2.0)
    assert lower <= upper
    assert upper <= 1.0 * math.sqrt(5) + 1e-9    # sanity envelope


def test_rbound_noneuclidean_upper_is_sum():
    fam = [np.eye(3), 2.0 * np.eye(3)]
    lower, upper, method = rademacher_bound(fam, SAMPLER, rho=1.0)
    assert method == "triangle-sum"
    assert lower >= 2.0 - 1e-12 and upper == pytest.approx(3.0)


def test_operator_norm_certified_exponents():
    a = np.array([[1.0, -2.0], [3.0, 0.5]])
    v1, c1 = operator_norm(a, 1.0)
    vi, ci = operator_norm(a, math.inf)
    v2, c2 = operator_norm(a, 2.0)
    assert c1 and ci and c2
    assert v1 == pytest.approx(4.0)     # max column abs sum
    assert vi == pytest.approx(3.5)     # max row abs sum
    v3, c3 = operator_norm(a, 3.0)
    assert not c3 and v3 <= v1 + vi     # estimate stays sane


def test_rmf_scalar_is_doob_maximal():
    ctx = fixture_ctx()
    rng = np.random.default_rng(11)
    f = rng.normal(size=ctx.measure.atom_count)
    for atom in range(0, ctx.measure.atom_count, 7):
        doob = max(abs(expectation(ctx, f, k)[atom]) for k in ctx.scales)
        assert rmf_maximal(ctx, f, atom) == pytest.approx(doob, rel=1e-12)


def test_rmf_constant_function():
    ctx = fixture_ctx()
    c = np.array([3.0, -4.0])
    f = np.tile(c, (ctx.measure.atom_count, 1))
    for rho in (1.0, 2.0, 4.0):
        expected = float(np.sum(np.abs(c) ** rho) ** (1 / rho))
        assert rmf_maximal(ctx, f, 0, rho=rho) == pytest.approx(expected, rel=1e-12)


def test_rmf_lp_bound_over_ensemble():
    ctx = fixture_ctx()
    for p in (1.5, 2.0, 3.0):
        for f in random_ensemble(12, ctx.measure, 4, p):
            assert rmf_norm(ctx, f, p) <= 20.0     # finite, stable envelope


@pytest.mark.parametrize("shape", [(), (2,), (3,)])
def test_rmf_norm_equals_per_atom_maximal(shape):
    ctx = fixture_ctx()
    rng = np.random.default_rng(12)
    f = rng.normal(size=(ctx.measure.atom_count,) + shape)
    for rho in (1.0, 2.0, 3.0, math.inf):
        per_atom = np.array([rmf_maximal(ctx, f, a, rho=rho)
                             for a in range(ctx.measure.atom_count)])
        for p in (1.5, 2.0, 3.0):
            assert rmf_norm(ctx, f, p, rho=rho) == lp_norm(ctx.measure, per_atom, p)


# =============================================================================
# Decoupling
# =============================================================================

def _two_scale_blocks(ctx, rng, constant=False):
    blocks = []
    scales = sorted({c.scale for k in ctx.diff_scales
                     for c in ctx.index.occupied(k)}, reverse=True)
    for k in scales[1:3]:
        for cube in ctx.index.occupied(k):
            atoms = ctx.index.atoms_of(cube)
            cells = [ctx.index.atoms_of(c) for c in cube.children()
                     if ctx.index.atoms_of(c).size > 0]
            vals = np.zeros(ctx.measure.atom_count)
            for cell in cells:
                vals[cell] = 1.0 if constant else rng.normal()
            if constant:
                vals[atoms] = 1.0
            blocks.append(DecouplingBlock(k, atoms, vals, cells=cells))
    return blocks


def test_decoupling_constant_blocks_equal():
    ctx = fixture_ctx(atoms=16)
    blocks = _two_scale_blocks(ctx, np.random.default_rng(13), constant=True)
    res = decoupling_check(ctx.measure, blocks, 3.0, SAMPLER)
    assert res["method"] == "exact"
    assert res["lhs"] == pytest.approx(res["rhs"], rel=1e-12)


def test_decoupling_single_block_equal():
    ctx = fixture_ctx(atoms=16)
    rng = np.random.default_rng(14)
    blocks = _two_scale_blocks(ctx, rng)[:1]
    res = decoupling_check(ctx.measure, blocks, 2.5, SAMPLER)
    assert res["method"] == "exact"
    assert res["lhs"] == pytest.approx(res["rhs"], rel=1e-12)


def test_decoupling_exact_vs_mc():
    ctx = fixture_ctx(atoms=16)
    rng = np.random.default_rng(15)
    blocks = _two_scale_blocks(ctx, rng)
    exact = decoupling_check(ctx.measure, blocks, 3.0, SAMPLER)
    mc = decoupling_check(ctx.measure, blocks, 3.0, SAMPLER, mc_trials=3000,
                          exact_limit=1, seed=99)
    assert exact["method"] == "exact" and mc["method"] == "mc"
    assert abs(mc["rhs"] - exact["rhs"]) <= 3.0 * mc["rhs_stderr"] + 1e-12


def test_decoupling_two_sided_bracket():
    ctx = fixture_ctx(atoms=32)
    rng = np.random.default_rng(16)
    blocks = _two_scale_blocks(ctx, rng)
    for p in (1.5, 3.0):
        res = decoupling_check(ctx.measure, blocks, p, SAMPLER)
        assert 1.0 / 16.0 <= res["ratio"] <= 16.0


def test_decoupling_measurability_guard():
    ctx = fixture_ctx(atoms=16)
    rng = np.random.default_rng(17)
    blocks = _two_scale_blocks(ctx, rng)
    target = next(b for b in blocks if b.atoms.size > 1)
    target.values = target.values.copy()
    target.values[target.atoms] = rng.normal(size=target.atoms.size)
    with pytest.raises(ValueError, match="measurable"):
        decoupling_check(ctx.measure, blocks, 2.0, SAMPLER,
                         require_cell_constant=True)


def test_decoupling_kernel_variant_bounded():
    ctx = fixture_ctx(atoms=16)
    rng = np.random.default_rng(18)
    blocks = _two_scale_blocks(ctx, rng)
    for b in blocks:
        b.kernel = lambda x, z: np.ones((x.shape[0], z.shape[0]))
    res = decoupling_check(ctx.measure, blocks, 2.0, SAMPLER, mode="trick")
    # with k = 1 the averaged block is the plain block average; comparable size
    assert res["lhs"] <= 4.0 * res["rhs"] + 1e-12


# =============================================================================
# Classical randomized checks
# =============================================================================

def test_stein_inequality_ratio_stable():
    ctx = fixture_ctx(atoms=32)
    rng = np.random.default_rng(19)
    ratios = []
    for p in (1.5, 2.0, 3.0):
        fs = {k: rng.normal(size=ctx.measure.atom_count) for k in ctx.diff_scales}
        ratios.append(stein_check(ctx, fs, p, SAMPLER))
    assert all(r <= 4.0 for r in ratios)


def test_improved_contraction_inequality():
    rng = np.random.default_rng(20)
    xis = [rng.normal(size=4) for _ in range(6)]
    aux = 8
    probs = np.full(aux, 1.0 / aux)
    t = 8.0
    rhos = []
    for _ in range(6):
        r = rng.normal(size=aux)
        r /= float(np.dot(probs, np.abs(r) ** t) ** (1 / t))
        rhos.append(r)
    res = improved_contraction_check(xis, rhos, probs, t, 2.0, SAMPLER)
    assert res["lhs"] <= 4.0 * res["rhs"]
    with pytest.raises(ValueError, match="cotype"):
        improved_contraction_check(xis, rhos, probs, 2.0, 4.0, SAMPLER)
