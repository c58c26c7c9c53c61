"""The randomized-norm layer against verbatim references.

``carleson_norm`` skips cubes whose family vanishes, ``decoupling_check``
computes each block's resampling law once and evaluates the resampled
families in stacked chunks, and ``measure.vector_norm`` reuses one column
buffer.  Each must return exactly what the plain versions below return
(``==`` on the whole result, sign bits included).  The one sign-pattern
kernel must give each item of a stack the bits of its own one-family call,
and, evaluating one sign row per class of rows that agree on the live
members, the bits of the kernel that evaluated every row
(``_ref_stack_pattern_values``).
"""
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import dyadlab.randnorms as rn
from dyadlab._seeds import rng_for
from dyadlab.fixtures import battery_measure, battery_params, build_fixture_pair, \
    decoupling_blocks
from dyadlab.measure import restrict, vector_norm, vector_norm_into
from dyadlab.randnorms import (DecouplingBlock, NormReport, RademacherSampler,
                               carleson_norm, decoupling_check, randomized_norm)

from reference_index import RefIndex

SAMPLER = RademacherSampler(n_exact=14, mc_trials=3000, seed=5)
MC_SAMPLER = RademacherSampler(n_exact=3, mc_trials=256, seed=5)


# =============================================================================
# Reference implementations, kept as they were before the skips
# =============================================================================

def _reference_carleson_norm(index, d_fns, p, sampler):
    mu = index.measure
    ref = RefIndex(mu, index.system)
    best = NormReport(0.0, "exact", 0.0, 1)
    for k in index.system.scales:
        for cube in index.occupied(k):
            atoms = ref.atoms_of(cube)
            mass = ref.mass_of(cube)
            scales = [j for j in sorted(d_fns) if j <= cube.scale]
            if not scales or mass == 0.0:
                continue
            family = [restrict(d_fns[j], atoms) for j in scales]
            rep = randomized_norm(mu, family, p, sampler,
                                  label=f"car:{cube.key}")
            val = rep.value / mass ** (1.0 / p)
            if val > best.value:
                best = NormReport(val, rep.method, rep.stderr / mass ** (1.0 / p),
                                  rep.trials)
    return best


def _reference_decoupling_check(mu, blocks, p, sampler, mc_trials=2000, seed=11,
                                mode="tangent", exact_limit=200_000):
    scales = sorted({b.scale for b in blocks})
    n = mu.atom_count
    if mode == "trick":
        for b in blocks:
            if b.cells is None:
                raise ValueError("blocks must carry their finer cells for this check")
            for cell in b.cells:
                vals = np.asarray(b.values, dtype=float)[cell]
                if vals.size and np.max(np.abs(vals - vals[0])) > 1e-12:
                    raise ValueError("block function is not measurable on its cells")

    def scale_family(value_of_block):
        fam = []
        for k in scales:
            g = np.zeros(n)
            for b in blocks:
                if b.scale == k:
                    g[b.atoms] += value_of_block(b)[b.atoms]
            fam.append(g)
        return fam

    undecoupled = randomized_norm(mu, scale_family(lambda b: b.values), p, sampler,
                                  label="dec:lhs")

    if mode == "trick":
        def averaged(b):
            out = np.zeros(n)
            w = mu.weights[b.atoms]
            mass = float(np.sum(w))
            kv = b.kernel(mu.positions[b.atoms], mu.positions[b.atoms]) \
                if b.kernel is not None else np.ones((b.atoms.size, b.atoms.size))
            out[b.atoms] = (kv * (w * np.asarray(b.values)[b.atoms])[None, :]).sum(axis=1) / mass
            return out

        lhs = randomized_norm(mu, scale_family(averaged), p, sampler, label="dec:trick")
        return {"lhs": lhs.value, "rhs": undecoupled.value,
                "ratio": lhs.value / max(undecoupled.value, 1e-300),
                "method": "trick"}

    combos = 1
    for b in blocks:
        combos *= b.atoms.size
    exact = combos * 2 ** min(len(scales), sampler.n_exact) <= exact_limit

    def norm_p_for_choice(choice):
        fam = []
        for k in scales:
            g = np.zeros(n)
            for bi, b in enumerate(blocks):
                if b.scale == k:
                    g[b.atoms] += np.asarray(b.values)[b.atoms[choice[bi]]]
            fam.append(g)
        rep = randomized_norm(mu, fam, p, sampler, label="dec:rhs")
        return rep.value ** p

    if exact:
        total, weight_total = 0.0, 0.0
        ranges = [range(b.atoms.size) for b in blocks]
        for choice in itertools.product(*ranges):
            prob = 1.0
            for bi, b in enumerate(blocks):
                w = mu.weights[b.atoms]
                prob *= w[choice[bi]] / float(np.sum(w))
            total += prob * norm_p_for_choice(choice)
            weight_total += prob
        rhs = (total / weight_total) ** (1.0 / p)
        stderr = 0.0
        method = "exact"
    else:
        rng = rng_for(seed, "dec:resample")
        samples = np.empty(mc_trials)
        pick = []
        for b in blocks:
            w = mu.weights[b.atoms]
            pick.append(rng.choice(b.atoms.size, size=mc_trials, p=w / np.sum(w)))
        for t in range(mc_trials):
            samples[t] = norm_p_for_choice([pk[t] for pk in pick])
        mean = float(np.mean(samples))
        rhs = mean ** (1.0 / p)
        sd = float(np.std(samples, ddof=1)) / math.sqrt(mc_trials)
        stderr = sd / max(p * mean ** (1.0 - 1.0 / p), 1e-300)
        method = "mc"

    ratio = undecoupled.value / max(rhs, 1e-300)
    return {"lhs": undecoupled.value, "rhs": rhs, "rhs_stderr": stderr,
            "ratio": ratio, "method": method}


def _reference_vector_norm(values, rho):
    a = np.abs(np.asarray(values, dtype=float))
    if a.ndim <= 1:
        return a
    total = np.zeros(a.shape[:-1])
    for j in range(a.shape[-1]):
        c = a[..., j]
        if math.isinf(rho):
            np.maximum(total, c, out=total)
        elif rho == 1.0:
            total += c
        elif rho == 2.0:
            total += c * c
        else:
            total += c ** rho
    if math.isinf(rho) or rho == 1.0:
        return total
    if rho == 2.0:
        return np.sqrt(total)
    return total ** (1.0 / rho)


# =============================================================================
# Carleson norms
# =============================================================================

def _index(dim, grids, atoms=24, seed=5):
    mu = battery_measure(seed, dim, atoms)
    return build_fixture_pair(seed, mu, battery_params(2), 0.4, grids=grids).ctx_f


def _chi(ctx):
    return {k: ctx.chi_mask(k).astype(float)
            for k in range(ctx.system.k_min, ctx.system.s)}


def _live_cube_labels(index, d_fns):
    """Labels of the cubes whose restricted family has a nonzero (or NaN) entry."""
    ref = RefIndex(index.measure, index.system)
    labels = []
    for k in index.system.scales:
        for cube in index.occupied(k):
            atoms = ref.atoms_of(cube)
            fam = [np.asarray(d, dtype=float)[atoms] for j, d in sorted(d_fns.items())
                   if j <= k]
            if fam and ref.mass_of(cube) > 0.0 and any(np.any(f != 0.0) for f in fam):
                labels.append(f"car:{cube.key}")
    return labels


def _assert_matches_reference(monkeypatch, index, d_fns, p, sampler):
    want = _reference_carleson_norm(index, d_fns, p, sampler)
    seen = []

    def counting(mu, family, p, sampler, rho=2.0, label=""):
        seen.append(label)
        return randomized_norm(mu, family, p, sampler, rho=rho, label=label)

    monkeypatch.setattr(rn, "randomized_norm", counting)
    got = carleson_norm(index, d_fns, p, sampler)
    monkeypatch.undo()
    assert got == want
    assert seen == _live_cube_labels(index, d_fns)
    return got, seen


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("grids", ["standard", "random"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_carleson_chi_families_match_reference(monkeypatch, dim, grids, p):
    ctx = _index(dim, grids)
    chi = _chi(ctx)
    _, seen = _assert_matches_reference(monkeypatch, ctx.index, chi, p, SAMPLER)
    candidates = sum(len(ctx.index.occupied(k)) for k in ctx.system.scales
                     if k >= min(chi))
    # the transition families vanish on most cubes, so the rule is exercised
    assert len(seen) < candidates


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_carleson_dense_family_skips_nothing(monkeypatch, p):
    ctx = _index(1, "random")
    rng = np.random.default_rng(3)
    d_fns = {k: rng.normal(size=ctx.measure.atom_count)
             for k in range(ctx.system.k_min, ctx.system.s)}
    _, seen = _assert_matches_reference(monkeypatch, ctx.index, d_fns, p, SAMPLER)
    assert len(seen) == sum(len(ctx.index.occupied(k)) for k in ctx.system.scales)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_carleson_lattice_family_matches_reference(monkeypatch, p):
    ctx = _index(1, "random")
    rng = np.random.default_rng(4)
    n = ctx.measure.atom_count
    mid = (ctx.system.k_min + ctx.system.s) // 2
    left = ctx.index.cube_ids(mid) % 2 == 0      # coordinate 0 vanishes there
    d_fns = {}
    for k, mask in _chi(ctx).items():
        d = mask[:, None] * rng.normal(size=(n, 3))
        d[left, 0] = 0.0
        d[1::4, 1] = 0.0
        d_fns[k] = d
    _, seen = _assert_matches_reference(monkeypatch, ctx.index, d_fns, p, SAMPLER)
    # some cubes are live only through coordinates 1 and 2
    first = {k: d[:, 0] for k, d in d_fns.items()}
    assert set(_live_cube_labels(ctx.index, first)) < set(seen)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_carleson_key_below_window_matches_reference(monkeypatch, p):
    ctx = _index(1, "standard")
    n = ctx.measure.atom_count
    d_fns = _chi(ctx)
    low = np.zeros(n)
    low[[1, n // 2]] = [0.5, -2.0]
    d_fns[ctx.system.k_min - 3] = low
    _assert_matches_reference(monkeypatch, ctx.index, d_fns, p, SAMPLER)


def _dead_cube(index, d_fns):
    """(scale, cube) of the finest cube whose family vanishes identically."""
    live = set(_live_cube_labels(index, d_fns))
    for k in sorted(d_fns):
        for cube in index.occupied(k):
            if f"car:{cube.key}" not in live:
                return k, cube
    raise AssertionError("every cube is live")


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_carleson_nan_counts_as_live(monkeypatch, p):
    ctx = _index(1, "random")
    d_fns = _chi(ctx)
    k, cube = _dead_cube(ctx.index, d_fns)
    d_fns[k] = d_fns[k].copy()
    d_fns[k][RefIndex(ctx.measure, ctx.system).atoms_of(cube)[0]] = np.nan
    got, seen = _assert_matches_reference(monkeypatch, ctx.index, d_fns, p, SAMPLER)
    assert f"car:{cube.key}" in seen
    assert not math.isnan(got.value)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_carleson_monte_carlo_matches_reference(monkeypatch, p):
    ctx = _index(1, "random")
    got, _ = _assert_matches_reference(monkeypatch, ctx.index, _chi(ctx), p, MC_SAMPLER)
    assert got.method == "mc"


def test_carleson_all_zero_family_calls_nothing(monkeypatch):
    ctx = _index(2, "random")
    zeros = {k: np.zeros(ctx.measure.atom_count) for k in ctx.system.scales}
    got, seen = _assert_matches_reference(monkeypatch, ctx.index, zeros, 2.0, SAMPLER)
    assert got == NormReport(0.0, "exact", 0.0, 1) and seen == []


# =============================================================================
# Decoupling
# =============================================================================

def _blocks(dim, atoms=16, seed=5):
    ctx = _index(dim, "random", atoms=atoms, seed=seed)
    return ctx.measure, decoupling_blocks(ctx.index, rng_for(seed, "dec"), max_blocks=4)


def _constant(mu, blocks):
    return [DecouplingBlock(b.scale, b.atoms,
                            np.where(np.isin(np.arange(mu.atom_count), b.atoms), 1.0, 0.0),
                            cells=b.cells)
            for b in blocks]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_decoupling_tangent_exact_matches_reference(dim, p):
    mu, blocks = _blocks(dim)
    want = _reference_decoupling_check(mu, blocks, p, SAMPLER)
    assert want["method"] == "exact"
    assert decoupling_check(mu, blocks, p, SAMPLER) == want


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_decoupling_tangent_mc_matches_reference(dim, p):
    mu, blocks = _blocks(dim)
    kw = dict(mc_trials=60, seed=3, exact_limit=1)
    want = _reference_decoupling_check(mu, blocks, p, SAMPLER, **kw)
    assert want["method"] == "mc"
    assert decoupling_check(mu, blocks, p, SAMPLER, **kw) == want


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_decoupling_constant_blocks_match_reference(p):
    mu, blocks = _blocks(1)
    const = _constant(mu, blocks)
    assert decoupling_check(mu, const, p, SAMPLER) == \
        _reference_decoupling_check(mu, const, p, SAMPLER)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_decoupling_trick_matches_reference(p):
    mu, blocks = _blocks(1)
    for b in blocks:
        b.kernel = lambda x, z: np.tanh(x[:, :1] - z[:, 0][None, :])
    want = _reference_decoupling_check(mu, blocks, p, SAMPLER, mode="trick")
    assert decoupling_check(mu, blocks, p, SAMPLER, mode="trick") == want


def _scale_blocks(scales, per_scale=2, dim=1, atoms=32, seed=5):
    """Blocks on the ``scales`` finest scales that have cubes with several
    occupied children, ``per_scale`` cubes each, values constant on the cells."""
    index = _index(dim, "random", atoms=atoms, seed=seed).index
    rng = np.random.default_rng(seed)
    blocks = []
    for k in index.system.scales[1:]:
        starts, kids, _ = index.child_table(k)
        for p in np.flatnonzero(np.diff(starts) > 1)[:per_scale].tolist():
            cells = [index.atoms_at(k - 1, c) for c in kids[starts[p]:starts[p + 1]].tolist()]
            vals = np.zeros(index.measure.atom_count)
            for cell in cells:
                vals[cell] = rng.normal()
            blocks.append(DecouplingBlock(k, index.atoms_at(k, p), vals, cells=cells))
        if len({b.scale for b in blocks}) == scales:
            return index.measure, blocks
    raise AssertionError(f"fewer than {scales} scales with split cubes")


def _count_kernel(monkeypatch):
    """Count the calls of the stacked per-pattern kernel and of randomized_norm."""
    calls = {"kernel": 0, "norm": 0}
    kernel, norm = rn._stack_pattern_values, rn.randomized_norm

    def counting_kernel(*args):
        calls["kernel"] += 1
        return kernel(*args)

    def counting_norm(*args, **kwargs):
        calls["norm"] += 1
        return norm(*args, **kwargs)

    monkeypatch.setattr(rn, "_stack_pattern_values", counting_kernel)
    monkeypatch.setattr(rn, "randomized_norm", counting_norm)
    return calls


def _choice_count(blocks):
    return math.prod(b.atoms.size for b in blocks)


@pytest.mark.parametrize("scales", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_decoupling_exact_over_several_chunks(monkeypatch, scales, p):
    mu, blocks = _scale_blocks(scales, per_scale=3 if scales == 1 else 2)
    want = _reference_decoupling_check(mu, blocks, p, SAMPLER)
    choices = _choice_count(blocks)
    chunk = 5
    assert want["method"] == "exact" and choices > chunk
    monkeypatch.setattr(rn, "CHUNK_ELEMENTS", chunk * 2 ** scales * mu.atom_count)
    calls = _count_kernel(monkeypatch)
    assert decoupling_check(mu, blocks, p, SAMPLER) == want
    # the undecoupled norm, then one kernel call per chunk of choices
    assert calls == {"norm": 1, "kernel": 1 + -(-choices // chunk)}


@pytest.mark.parametrize("scales", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_decoupling_mc_partial_last_chunk(monkeypatch, scales, p):
    mu, blocks = _scale_blocks(scales)
    chunk = rn.CHUNK_ELEMENTS // (2 ** scales * mu.atom_count)
    trials = 2 * chunk + 37
    kw = dict(mc_trials=trials, seed=3, exact_limit=1)
    want = _reference_decoupling_check(mu, blocks, p, SAMPLER, **kw)
    assert want["method"] == "mc"
    calls = _count_kernel(monkeypatch)
    assert decoupling_check(mu, blocks, p, SAMPLER, **kw) == want
    # one kernel call per chunk (two full, one partial), not one per choice
    assert calls == {"norm": 1, "kernel": 4}


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_decoupling_monte_carlo_signs_match_reference(p):
    # three scales with n_exact = 1: every resampled norm draws 256 sign rows
    mu, blocks = _scale_blocks(3)
    sampler = RademacherSampler(n_exact=1, mc_trials=256, seed=5)
    for kw in ({}, dict(mc_trials=45, seed=3, exact_limit=1)):
        want = _reference_decoupling_check(mu, blocks, p, sampler, **kw)
        assert decoupling_check(mu, blocks, p, sampler, **kw) == want


@pytest.mark.parametrize("dim", [1, 2])
def test_decoupling_three_scales_match_reference(dim):
    mu, blocks = _scale_blocks(3, per_scale=1, dim=dim, atoms=24)
    for p in (1.0, 3.0):
        want = _reference_decoupling_check(mu, blocks, p, SAMPLER)
        assert decoupling_check(mu, blocks, p, SAMPLER) == want


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_decoupling_one_choice_per_chunk(monkeypatch, p):
    # 8 sign rows x 8193 atoms is more than half of CHUNK_ELEMENTS, so each
    # chunk holds one choice; the tangent check reads only the atom count
    # and weights of the measure
    n = 8193
    rng = np.random.default_rng(9)
    mu = SimpleNamespace(atom_count=n, weights=rng.uniform(0.5, 1.5, n) / n)
    assert rn.CHUNK_ELEMENTS // (8 * n) == 1
    blocks = []
    for scale, size in ((3, 3), (3, 2), (5, 2), (7, 3)):
        atoms = np.sort(rng.choice(n, size=size, replace=False))
        blocks.append(DecouplingBlock(scale, atoms, rng.normal(size=n)))
    for kw, choices in (({}, _choice_count(blocks)),
                        (dict(mc_trials=5, seed=3, exact_limit=1), 5)):
        want = _reference_decoupling_check(mu, blocks, p, SAMPLER, **kw)
        calls = _count_kernel(monkeypatch)
        assert decoupling_check(mu, blocks, p, SAMPLER, **kw) == want
        assert calls == {"norm": 1, "kernel": 1 + choices}
        monkeypatch.undo()


# =============================================================================
# The sign-pattern kernel
# =============================================================================

@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize("exact", [True, False])
def test_stack_kernel_items_match_single_family_calls(m, exact):
    # each item of a scalar (m = 0) or lattice stack gets the bits of its own
    # T = 1 call, over several blocks (and the mirrored half of an exact table)
    rng = np.random.default_rng(17 + m)
    count, n = 12, 512
    stack = rng.normal(size=(3, count, n) if m == 0 else (3, count, n, m))
    weights = rng.uniform(0.1, 2.0, n)
    sampler = RademacherSampler(n_exact=count if exact else count - 1, mc_trials=3008,
                                seed=3)
    signs, signs_exact = sampler.signs(count, label="kernel")
    assert signs_exact == exact
    assert len(rn._blocks(signs.shape[0], exact, count * n * max(m, 1))[0]) >= 2
    got = rn._stack_pattern_values(weights, stack, 1.5, 3.0, signs, exact)
    for t in range(stack.shape[0]):
        want = rn._stack_pattern_values(weights, stack[t:t + 1].copy(), 1.5, 3.0,
                                        signs, exact)
        _assert_same_bits(got[t], want[0])


@pytest.mark.parametrize("m", [0, 3])
def test_int8_sign_table_gives_the_float_table_bits(m):
    # the cached exact table is int8; widened block by block it gives the
    # values a float64 table gives, over several blocks and the mirror
    rng = np.random.default_rng(23 + m)
    count, n = 12, 512
    stack = rng.normal(size=(2, count, n) if m == 0 else (2, count, n, m))
    weights = rng.uniform(0.1, 2.0, n)
    signs = rn._exact_signs(count)
    assert signs.dtype == np.int8
    assert len(rn._blocks(signs.shape[0], True, count * n * max(m, 1))[0]) >= 2
    _assert_same_bits(rn._stack_pattern_values(weights, stack, 1.5, 3.0, signs, True),
                      rn._stack_pattern_values(weights, stack, 1.5, 3.0,
                                               signs.astype(float), True))


# =============================================================================
# Sign classes: one row per class against the kernel that evaluated every row
# =============================================================================

def _ref_blocks(total, exact, row_muladds):
    rows = -(-rn.BLOCK_MULADDS // max(64 * row_muladds, 1)) * 64
    evaluated = total // 2 if exact and total // 2 >= rows else total
    blocks, lo = [], 0
    while lo < evaluated:
        hi = evaluated if evaluated - lo < 2 * rows else lo + rows
        blocks.append((lo, hi))
        lo = hi
    return blocks, evaluated


def _ref_stack_pattern_values(weights, stack, p, rho, signs, exact):
    """The kernel as it was before sign classes: every row of the table's
    blocks is evaluated, and an exact table's second half is mirrored."""
    items, count, n = stack.shape[:3]
    width = math.prod(stack.shape[2:])              # atom values per family
    total = signs.shape[0]
    out = np.empty((items, total))
    blocks, evaluated = _ref_blocks(total, exact, count * width)
    largest = max((hi - lo for lo, hi in blocks), default=0)
    if stack.ndim == 3:
        work = np.empty(items * largest * n)
    else:
        flat = stack.reshape(items, count, width)  # atom-major (atom, coordinate) columns
        work, norms = np.empty((largest, width)), np.empty((largest, n))
    for lo, hi in blocks:
        s = np.asarray(signs[lo:hi], dtype=float)
        if stack.ndim == 3:
            prod = work[:items * (hi - lo) * n].reshape(items, hi - lo, n)
            np.matmul(s, stack, out=prod)
            np.abs(prod, out=prod)
            prod **= p
            out[:, lo:hi] = prod @ weights
        else:
            for t in range(items):
                fields = np.matmul(s, flat[t], out=work[:hi - lo]).reshape(hi - lo, n, -1)
                values = vector_norm_into(fields, rho, norms[:hi - lo])
                values **= p
                out[t, lo:hi] = values @ weights
    if evaluated < total:
        out[:, evaluated:] = out[:, evaluated - 1::-1]
    return out


def _class_signs(count, exact, total, seed):
    if exact:
        return rn._exact_signs(count)
    sampler = RademacherSampler(n_exact=count - 1, mc_trials=total, seed=seed)
    signs, signs_exact = sampler.signs(count, label="classes")
    assert not signs_exact
    return signs


def _class_stack(rng, items, count, n, m, dead):
    """A normal (T, K, n[, m]) stack whose ``dead`` random members are +-0.0."""
    stack = rng.normal(size=(items, count, n) if m == 0 else (items, count, n, m))
    rows = rng.choice(count, size=dead, replace=False)
    stack[:, rows] = rng.choice([0.0, -0.0], size=stack[:, rows].shape)
    return stack


def _takes_classes(weights, stack, signs, exact):
    row_muladds = stack.shape[1] * math.prod(stack.shape[2:])
    blocks, evaluated = rn._blocks(signs.shape[0], exact, row_muladds)
    return rn._sign_classes(stack, signs, blocks, evaluated) is not None


def _assert_kernel_matches_reference(weights, stack, p, rho, signs, exact):
    with np.errstate(all="ignore"):
        got = rn._stack_pattern_values(weights, stack, p, rho, signs, exact)
        want = _ref_stack_pattern_values(weights, stack, p, rho, signs, exact)
    _assert_same_bits(got, want)


def _class_cases(count=240, seed=2024):
    """A seeded sample of K 2-20, n 1-700, scalar or m in {1, 2, 3}, T in
    {1, 3}, p in {1, 2, 3}, rho in {1, 2, inf}, exact and Monte Carlo tables
    (trial counts that are and are not multiples of 4), with 0 to K dead
    members; a case holds at most 2^23 products and 2^26 multiply-adds."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        k = int(rng.integers(2, 21))
        # half the atom counts are multiples of 8, which no fallback takes
        n = int(rng.integers(1, 701) if rng.random() < 0.5 else 8 * rng.integers(1, 88))
        m = int(rng.choice([0, 1, 2, 3]))
        items = int(rng.choice([1, 3]))
        exact = k <= 14 and bool(rng.random() < 0.4)
        total = 2 ** k if exact else int(rng.choice([512, 4094, 4095, 4096, 8192, 16384,
                                                     32768]))
        width = n * max(m, 1)
        if items * total * width > 2 ** 23 or items * total * k * width > 2 ** 26:
            continue
        cases.append(dict(count=k, n=n, m=m, items=items, exact=exact, total=total,
                          dead=int(rng.integers(0, k + 1)),
                          p=float(rng.choice([1.0, 2.0, 3.0])),
                          rho=float(rng.choice([1.0, 2.0, math.inf])),
                          seed=int(rng.integers(0, 2 ** 31))))
    return cases


def test_sign_classes_match_reference_over_case_grid():
    took = 0
    for case in _class_cases():
        rng = np.random.default_rng(case["seed"])
        stack = _class_stack(rng, case["items"], case["count"], case["n"], case["m"],
                             case["dead"])
        if case["items"] > 1 and case["dead"] < case["count"]:
            # one live member vanishes in the first item only
            live = np.flatnonzero(np.any(stack != 0, axis=(0,) + tuple(
                range(2, stack.ndim))))
            stack[0, live[0]] = 0.0
        weights = rng.uniform(0.1, 2.0, case["n"])
        signs = _class_signs(case["count"], case["exact"], case["total"], case["seed"])
        took += _takes_classes(weights, stack, signs, case["exact"])
        _assert_kernel_matches_reference(weights, stack, case["p"], case["rho"], signs,
                                         case["exact"])
    assert took >= 40       # the class path is exercised, not only the fallbacks


@pytest.mark.parametrize("dead", range(0, 7))
def test_sign_classes_any_number_of_dead_members_monte_carlo(dead):
    # K = 6 lattice members over 200 atoms (1600 product columns): 4 blocks
    rng = np.random.default_rng(100 + dead)
    stack = _class_stack(rng, 1, 6, 200, 2, dead)
    weights = rng.uniform(0.1, 2.0, 200)
    signs = _class_signs(6, False, 4096, seed=dead)
    assert _takes_classes(weights, stack, signs, False)
    _assert_kernel_matches_reference(weights, stack, 2.0, 2.0, signs, False)


@pytest.mark.parametrize("dead", range(0, 13))
def test_sign_classes_any_number_of_dead_members_exact(dead):
    # K = 12 scalar members over 512 atoms: the half table is 5 blocks; an
    # all-live table keeps its mirror
    rng = np.random.default_rng(200 + dead)
    stack = _class_stack(rng, 2, 12, 512, 0, dead)
    weights = rng.uniform(0.1, 2.0, 512)
    signs = rn._exact_signs(12)
    assert _takes_classes(weights, stack, signs, True) == (dead > 0)
    _assert_kernel_matches_reference(weights, stack, 3.0, 2.0, signs, True)


@pytest.mark.parametrize("m", [0, 2])
def test_sign_classes_member_dead_in_one_item_only(m):
    # a member that vanishes in one item of a T = 3 stack is live for all
    rng = np.random.default_rng(31 + m)
    stack = _class_stack(rng, 3, 16, 128, m, dead=10)
    live = np.flatnonzero(np.any(stack != 0, axis=(0,) + tuple(range(2, stack.ndim))))
    stack[1, live[0]] = 0.0
    stack[2, live[1]] = -0.0
    weights = rng.uniform(0.1, 2.0, 128)
    signs = _class_signs(16, False, 8192, seed=3)
    assert _takes_classes(weights, stack, signs, False)
    _assert_kernel_matches_reference(weights, stack, 1.0, math.inf, signs, False)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_sign_classes_nan_inf_and_negative_zero(m):
    # NaN and inf make a member live, -0.0 leaves it dead; sums that meet
    # inf - inf give NaN in every row of a class alike
    rng = np.random.default_rng(47 + m)
    stack = _class_stack(rng, 1, 14, 96, m, dead=8)
    dead = np.flatnonzero(~np.any(stack != 0, axis=(0,) + tuple(range(2, stack.ndim))))
    flat = stack.reshape(1, 14, -1)
    flat[0, dead[0], 5] = np.nan
    flat[0, dead[1], 7] = np.inf
    flat[0, dead[2], 7] = -np.inf
    flat[0, dead[3], :] = -0.0
    live = np.flatnonzero(np.any(stack != 0, axis=(0,) + tuple(range(2, stack.ndim))))
    assert set(dead[:3]) <= set(live) and dead[3] not in live
    weights = rng.uniform(0.1, 2.0, 96)
    for p in (1.0, 2.0, 3.0):
        for exact, total in ((True, 2 ** 14), (False, 16384)):
            signs = _class_signs(14, exact, total, seed=5)
            assert _takes_classes(weights, stack, signs, exact)
            _assert_kernel_matches_reference(weights, stack, p, 2.0, signs, exact)


@pytest.mark.parametrize("total", [4094, 4095, 4097])
def test_sign_classes_fall_back_when_rows_are_not_a_multiple_of_four(total):
    rng = np.random.default_rng(total)
    stack = _class_stack(rng, 1, 16, 512, 2, dead=13)
    weights = rng.uniform(0.1, 2.0, 512)
    signs = _class_signs(16, False, total, seed=7)
    assert not _takes_classes(weights, stack, signs, False)
    _assert_kernel_matches_reference(weights, stack, 2.0, 2.0, signs, False)


@pytest.mark.parametrize("n,m", [(97, 3), (193, 0), (250, 1)])
def test_sign_classes_fall_back_on_wide_unaligned_products(n, m):
    # more than 192 product columns, not a multiple of 8
    rng = np.random.default_rng(n)
    stack = _class_stack(rng, 1, 16, n, m, dead=13)
    weights = rng.uniform(0.1, 2.0, n)
    signs = _class_signs(16, False, 8192, seed=7)
    assert not _takes_classes(weights, stack, signs, False)
    _assert_kernel_matches_reference(weights, stack, 3.0, 1.0, signs, False)


def test_three_live_members_evaluate_one_block(monkeypatch):
    # a (1, 16, 512, 2) Monte Carlo call with 3 live members has 4 classes:
    # it evaluates one block of rows, not the 4096 of the table
    rng = np.random.default_rng(61)
    stack = _class_stack(rng, 1, 16, 512, 2, dead=13)
    weights = rng.uniform(0.1, 2.0, 512)
    signs = _class_signs(16, False, 4096, seed=7)
    block = rn._blocks(4096, False, 16 * 1024)[0][0][1]
    evaluated = []
    evaluate = rn._evaluate_rows

    def counting(weights, stack, p, rho, signs, blocks, total):
        evaluated.append(sum(hi - lo for lo, hi in blocks))
        return evaluate(weights, stack, p, rho, signs, blocks, total)

    monkeypatch.setattr(rn, "_evaluate_rows", counting)
    got = rn._stack_pattern_values(weights, stack, 2.0, 2.0, signs, False)
    assert len(evaluated) == 1 and evaluated[0] <= block == 128
    _assert_same_bits(got, _ref_stack_pattern_values(weights, stack, 2.0, 2.0, signs,
                                                     False))


# =============================================================================
# vector_norm
# =============================================================================

RHOS = [1.0, 1.5, 2.0, 3.0, math.inf]


def _awkward(rows, m, seed):
    """Normal values mixed with +-0, +-NaN, +-inf, overflowing squares and subnormals."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, m))
    specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                         np.inf - np.inf, 1e200, -3e170, 5e-324, -1e-310, 2.5e-160])
    hit = rng.random(size=a.shape) < 0.4
    a[hit] = rng.choice(specials, size=int(hit.sum()))
    return a


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert np.all(got[finite] == want[finite])
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("m", [1, 2, 3, 7])
@pytest.mark.parametrize("rho", RHOS)
def test_vector_norm_matches_reference(m, rho):
    a = _awkward(400, m, seed=m)
    before = a.copy()
    with np.errstate(all="ignore"):
        _assert_same_bits(vector_norm(a, rho), _reference_vector_norm(a, rho))
        stacked = a.reshape(8, 50, m)
        _assert_same_bits(vector_norm(stacked, rho), _reference_vector_norm(stacked, rho))
        columns = np.asfortranarray(a)
        _assert_same_bits(vector_norm(columns, rho), _reference_vector_norm(columns, rho))
    assert np.array_equal(a.view(np.uint64), before.view(np.uint64))   # input untouched


@pytest.mark.parametrize("rho", RHOS)
def test_vector_norm_one_dimensional_matches_reference(rho):
    a = _awkward(200, 1, seed=11)[:, 0]
    with np.errstate(all="ignore"):
        _assert_same_bits(vector_norm(a, rho), _reference_vector_norm(a, rho))
        _assert_same_bits(vector_norm(list(a[:5]), rho),
                          _reference_vector_norm(list(a[:5]), rho))
