import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadlab._seeds import _uint32_words, rng_for
from dyadlab.fixtures import battery_measure, battery_params
from dyadlab.measure import AtomicMeasure, generate_random_measure
from dyadlab import grid
from dyadlab.grid import (DyadicParams, DyadicSystem, _keep_spare_half,
                          _period_minus_remainder, _spare_half, bad_probability_bound,
                          bad_probability_mc, badness_scan, boundary_distance,
                          build_random_system, contains, dumps_system, loads_system,
                          locate, long_distance, set_distance, shift_walk_hits,
                          standard_system, theta, witness_scale)
from dyadlab.operator import boundary_probability


def params_d1(gamma=0.2, r=2):
    return DyadicParams(gamma=gamma, r=r, alpha=1.0, d=1.0)


def params_small_d(gamma=0.4, r=2):
    return DyadicParams(gamma=gamma, r=r, alpha=1.0, d=0.25)


def tiny_measure():
    return AtomicMeasure(1, 1.0, np.array([[0.3], [0.7]]), np.array([0.1, 0.1]))


# =============================================================================
# Parameters
# =============================================================================

def test_param_constraints_rejected():
    with pytest.raises(ValueError):
        DyadicParams(gamma=0.5, r=2, alpha=1.0, d=1.0)   # gamma too large
    with pytest.raises(ValueError):
        DyadicParams(gamma=0.0, r=2, alpha=1.0, d=1.0)
    with pytest.raises(ValueError):
        DyadicParams(gamma=0.1, r=0, alpha=1.0, d=1.0)


def test_theta_values():
    p = DyadicParams(gamma=0.1, r=3, alpha=2.0, d=1.0)
    assert theta(0, p) == 4
    assert theta(9, p) == 5


def test_theta_monotone():
    p = params_d1()
    vals = [theta(j, p) for j in range(40)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# =============================================================================
# Cube geometry
# =============================================================================

def test_long_distance_direct():
    sys0 = standard_system(tiny_measure(), params_d1(), window=(-4, 3))
    q = sys0.cube(0, (0,))        # [0, 1)
    r = sys0.cube(1, (2,))        # [4, 6)
    assert long_distance(q, r) == pytest.approx(6.0)


def test_long_distance_same_and_nested():
    sys0 = standard_system(tiny_measure(), params_d1(), window=(-4, 3))
    q = sys0.cube(0, (0,))
    assert long_distance(q, q) == pytest.approx(2.0)
    inner = sys0.cube(-2, (1,))   # [0.25, 0.5) inside [0, 1)
    assert contains(q, inner)
    assert long_distance(inner, q) == pytest.approx(0.25 + 1.0)


def test_boundary_distance_cases():
    sys0 = standard_system(tiny_measure(), params_d1(), window=(-4, 3))
    outer = sys0.cube(0, (0,))
    inner = sys0.cube(-2, (1,))
    assert boundary_distance(inner, outer) == pytest.approx(0.25)
    disjoint = sys0.cube(0, (3,))
    assert boundary_distance(outer, disjoint) == pytest.approx(2.0)
    straddler = sys0.cube(-1, (1,))   # [0.5, 1) touches nothing of [1, 2)?
    assert boundary_distance(straddler, sys0.cube(0, (1,))) == pytest.approx(0.0)


def test_parent_child_consistency_random_shifts():
    mu = generate_random_measure(9, 2, 1.0, 24, "uniform")
    system = build_random_system(5, mu, params_d1(), window=(-8, 2))
    for k in range(-7, 3):
        for m in [(0, 0), (3, -2), (-1, 5)]:
            cube = system.cube(k, m)
            parent = cube.parent()
            assert contains(parent, cube)
            kids = parent.children()
            assert sum(kid.key == cube.key for kid in kids) == 1
            # children tile the parent
            assert sum(np.prod(kid.upper - kid.lower) for kid in kids) == \
                pytest.approx(float(np.prod(parent.upper - parent.lower)))


def test_zero_shift_hook_gives_standard_grid():
    mu = tiny_measure()
    system = standard_system(mu, params_d1(), window=(-4, 1))
    assert np.all(system.shift(0) == 0.0)
    cube = system.cube_containing([0.3], -2)
    assert cube.lower[0] == pytest.approx(0.25)


def test_build_deterministic():
    mu = generate_random_measure(9, 1, 1.0, 16, "uniform")
    a = build_random_system(12, mu, params_d1())
    b = build_random_system(12, mu, params_d1())
    assert a.betas == b.betas and a.top_index == b.top_index


def test_shift_digit_frequencies():
    # empirical frequency of each shift pattern within 3 sigma of 2^-N
    mu = AtomicMeasure(2, 1.0, np.array([[0.4, 0.4]]), np.array([0.5]))
    p = params_d1()
    counts = {}
    trials = 4000
    for seed in range(trials):
        system = build_random_system(seed, mu, p, window=(-2, 5))
        counts[system.betas[0]] = counts.get(system.betas[0], 0) + 1
    sigma = math.sqrt(0.25 * 0.75 / trials)
    for pattern in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        freq = counts.get(pattern, 0) / trials
        assert abs(freq - 0.25) <= 3.0 * sigma + 1e-9


def test_window_too_short_rejected():
    mu = tiny_measure()
    with pytest.raises(ValueError, match="r \\+ 4"):
        build_random_system(1, mu, params_d1(r=8), window=(-2, 3))


# =============================================================================
# Locating atoms
# =============================================================================

def test_locate_partition_and_nesting():
    mu = generate_random_measure(4, 2, 1.0, 48, "uniform")
    system = build_random_system(2, mu, params_d1())
    index = locate(mu, system)
    prev_count = None
    for k in system.scales:
        cubes = index.occupied(k)
        total = sum(index.masses(k).tolist())
        assert total == pytest.approx(np.sum(mu.weights))
        atoms = np.concatenate([index.atoms_at(k, p) for p in range(len(cubes))])
        assert sorted(atoms) == list(range(mu.atom_count))
        if prev_count is not None:
            assert len(cubes) <= prev_count
        prev_count = len(cubes)


def test_locate_parent_mass_additive():
    mu = generate_random_measure(4, 1, 1.0, 32, "uniform")
    system = build_random_system(3, mu, params_d1())
    index = locate(mu, system)
    for k in list(system.scales)[1:]:
        starts, kids, _ = index.child_table(k)
        for p in range(len(index.cube_keys(k))):
            child_mass = sum(index.masses(k - 1)[kids[starts[p]:starts[p + 1]]].tolist())
            assert child_mass == pytest.approx(index.masses(k)[p])


def test_single_atom_one_cube_per_scale():
    mu = AtomicMeasure(1, 1.0, np.array([[0.37]]), np.array([0.25]))
    system = standard_system(mu, params_d1(), window=(-6, 1))
    index = locate(mu, system)
    for k in system.scales:
        assert len(index.occupied(k)) == 1


def test_atom_outside_top_cube_rejected():
    mu = tiny_measure()
    system = standard_system(mu, params_d1(), window=(-4, 1))
    shifted = DyadicSystem(1, system.k_min, system.s, system.betas, (40,))
    with pytest.raises(ValueError, match="outside"):
        locate(mu, shifted)


def _bucket_atoms(mu, system, k):
    """Brute-force partition: atom a goes to the bucket of its floor index."""
    idx = system.cube_index_at(mu.positions, k)
    buckets = {}
    for a in range(mu.atom_count):
        buckets.setdefault(tuple(int(v) for v in idx[a]), []).append(a)
    return buckets


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("grids", ["standard", "random"])
def test_grid_index_matches_bruteforce_bucketing(dimension, grids):
    mu = battery_measure(3, dimension, 40)
    params = battery_params(4)
    if grids == "standard":
        system = standard_system(mu, params)
    else:
        system = build_random_system(5, mu, params)
    index = locate(mu, system)
    w = mu.weights
    parts = {k: _bucket_atoms(mu, system, k) for k in system.scales}
    for k, buckets in parts.items():
        keys = sorted(buckets)
        cubes = index.occupied(k)
        assert [c.key for c in cubes] == [(k, m) for m in keys]
        assert all(c.system == system for c in cubes)
        starts, kids, corners = index.child_table(k)
        below = index.cube_keys(k - 1) if k > system.k_min else []
        for pos, cube in enumerate(cubes):
            atoms = index.atoms_at(k, pos)
            assert atoms.tolist() == buckets[cube.index]
            assert not atoms.flags.writeable      # a view of the read-only table
            assert (index.cube_ids(k)[atoms] == pos).all()
            assert index.masses(k)[pos] == float(np.sum(w[atoms]))
            expected = [] if k == system.k_min else [
                (i, c.key) for i, c in enumerate(cube.children()) if c.index in parts[k - 1]]
            row = slice(starts[pos], starts[pos + 1])
            assert [(i, below[c]) for i, c in zip(corners[row].tolist(),
                                                  kids[row].tolist())] == expected
        empty = system.cube(k, tuple(v + 7 for v in keys[-1]))
        assert index.position(empty.key) is None


# =============================================================================
# Good and bad cubes
# =============================================================================

def test_boundary_touching_cube_is_bad():
    mu = tiny_measure()
    p = params_d1(r=2)
    system = standard_system(mu, p, window=(-6, 1))
    other = standard_system(mu, p, window=(-6, 1))
    q = system.cube(-5, (0,))     # [0, 2^-5) touches the boundary of [0, 1)
    assert badness_scan(q, other, 3, p).bad


def test_centered_cube_is_good_with_margin():
    # a cube whose binary position stays a third deep inside the other grid's
    # cells (the classical 1/3 pattern) is n-good once the collar threshold
    # 2^(-gamma * gap) drops below that persistent relative depth; both the
    # verdict and the quantitative margin are checked by an exhaustive window
    # scan over every qualifying R
    p = params_small_d(gamma=0.4, r=2)
    n = 5
    mu = AtomicMeasure(1, 0.25, np.array([[1.0 / 3.0]]), np.array([0.25]))
    base = standard_system(mu, p, window=(-8, 0))
    other = standard_system(mu, p, window=(-8, 0))
    q = base.cube_containing([1.0 / 3.0], -6)
    scan = badness_scan(q, other, n, p)
    assert not scan.bad and not scan.truncated is None
    checked = 0
    for j in range(q.scale + max(n, p.r), other.s + 1):
        thr = q.side ** p.gamma * (2.0 ** j) ** (1.0 - p.gamma)
        lo = np.floor((q.lower - 3 * 2.0 ** j - other.shift(j)) / 2.0 ** j).astype(int)
        hi = np.floor((q.upper + 3 * 2.0 ** j - other.shift(j)) / 2.0 ** j).astype(int)
        for m in range(int(lo[0]), int(hi[0]) + 1):
            r_cube = other.cube(j, (m,))
            assert boundary_distance(q, r_cube) > thr
            checked += 1
    assert checked > 0
    # the same cube is bad for smaller n: the gap-4 ancestor witnesses
    assert badness_scan(q, other, 4, p).bad


def _bruteforce_witnessed(q, other, j, gamma):
    """Some scale-j cube R near Q has dist(Q, bd R) <= l(Q)^gamma l(R)^(1-gamma)."""
    thr = q.side ** gamma * (2.0 ** j) ** (1.0 - gamma)
    lo = int(np.floor((q.lower[0] - 3 * 2.0 ** j - other.shift(j)[0]) / 2.0 ** j))
    hi = int(np.floor((q.upper[0] + 3 * 2.0 ** j - other.shift(j)[0]) / 2.0 ** j))
    return any(boundary_distance(q, other.cube(j, (m,))) <= thr
               for m in range(lo, hi + 1))


def test_badness_scan_matches_bruteforce():
    # the pair classifier and badness_scan both read witness_scale, so this
    # brute force over every nearby R is their independent reference
    mu = generate_random_measure(8, 1, 0.25, 16, "uniform")
    p = params_small_d(gamma=0.4, r=2)
    system = build_random_system(21, mu, p)
    other = build_random_system(22, mu, p)
    index = locate(mu, system)
    verdicts = set()
    for k in list(system.scales)[:-1]:
        for q in index.occupied(k):
            witnessed = [j for j in range(q.scale + p.r, other.s + 1)
                         if _bruteforce_witnessed(q, other, j, p.gamma)]
            assert witness_scale(q, other, p) == max(witnessed, default=None)
            for n in (2, 4):
                expected = any(j >= q.scale + max(n, p.r) for j in witnessed)
                assert badness_scan(q, other, n, p).bad == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_badness_monotone_in_n():
    mu = generate_random_measure(8, 1, 0.25, 16, "uniform")
    p = params_small_d(gamma=0.4, r=2)
    system = build_random_system(31, mu, p)
    other = build_random_system(32, mu, p)
    index = locate(mu, system)
    for q in index.occupied(system.k_min + 1):
        flags = [badness_scan(q, other, n, p).bad for n in range(0, 8)]
        # n-bad implies m-bad for all m <= n
        for a, b in zip(flags, flags[1:]):
            assert a or not b


def test_window_truncation_flagged():
    mu = tiny_measure()
    p = params_d1(r=2)
    system = standard_system(mu, p, window=(-6, 1))
    other = standard_system(mu, p, window=(-6, 1))
    q = system.cube(-1, (0,))
    assert badness_scan(q, other, 4, p).truncated


# -- the pre-table geometry, kept as the bit-for-bit reference ----------------

def _ref_shift(system, k):
    out = np.zeros(system.dimension)
    for j in range(system.k_min, min(k, system.s)):
        out += np.asarray(system.betas[j - system.k_min], dtype=float) * (2.0 ** j)
    return out


def _ref_lower(c):
    return _ref_shift(c.system, c.scale) + c.side * np.asarray(c.index, dtype=float)


def _ref_upper(c):
    return _ref_lower(c) + c.side


def _ref_set_distance(q, r):
    gaps = np.maximum(_ref_lower(q) - _ref_upper(r), _ref_lower(r) - _ref_upper(q))
    return float(max(0.0, np.max(gaps)))


def _ref_contains(outer, inner):
    return bool(np.all(_ref_lower(inner) >= _ref_lower(outer))
                and np.all(_ref_upper(inner) <= _ref_upper(outer)))


def _ref_boundary_distance(q, r):
    if _ref_contains(r, q):
        margins = np.minimum(_ref_lower(q) - _ref_lower(r), _ref_upper(r) - _ref_upper(q))
        return float(np.min(margins))
    d = _ref_set_distance(q, r)
    return d if d > 0.0 else 0.0


@st.composite
def random_systems(draw):
    dim = draw(st.sampled_from([1, 2]))
    k_min = draw(st.integers(-12, 0))
    s = k_min + draw(st.integers(1, 14))
    betas = tuple(tuple(draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)))
                  for _ in range(k_min, s))
    return DyadicSystem(dim, k_min, s, betas, tuple([0] * dim))


@st.composite
def cube_pairs(draw):
    """A cube R and a cube Q of another system at or below R's scale, near R."""
    a = draw(random_systems())
    betas = tuple(tuple(draw(st.lists(st.integers(0, 1), min_size=a.dimension,
                                      max_size=a.dimension)))
                  for _ in range(a.k_min, a.s))
    b = DyadicSystem(a.dimension, a.k_min, a.s, betas, a.top_index)
    kr = draw(st.integers(a.k_min, a.s))
    kq = draw(st.integers(a.k_min, kr))
    r = a.cube(kr, draw(st.lists(st.integers(-3, 3), min_size=a.dimension,
                                 max_size=a.dimension)))
    # place Q around R: inside it, on its faces or just outside
    units = draw(st.lists(st.integers(-2 ** (kr - kq), 2 ** (kr - kq + 1)),
                          min_size=a.dimension, max_size=a.dimension))
    point = r.lower + np.asarray(units, dtype=float) * 2.0 ** kq
    return b.cube_containing(point, kq), r


@settings(max_examples=150, deadline=None)
@given(random_systems())
def test_shift_table_matches_digit_sum(system):
    for k in range(system.k_min - 2, system.s + 3):
        row = system.shift(k)
        assert np.array_equal(row, _ref_shift(system, k))
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1.0


@settings(max_examples=100, deadline=None)
@given(random_systems())
def test_cached_hash_and_side_keep_field_semantics(system):
    fields = (system.dimension, system.k_min, system.s, system.betas, system.top_index)
    twin = DyadicSystem(*fields)
    assert twin == system and twin is not system
    assert hash(system) == hash(twin) == hash(fields)
    if system.s > system.k_min:
        flipped = tuple(tuple(1 - b for b in beta) for beta in system.betas)
        assert DyadicSystem(*fields[:3], flipped, system.top_index) != system
    for k in (system.k_min, system.s):
        cube = system.cube(k, [0] * system.dimension)
        assert cube.side == 2.0 ** k
        assert cube == system.cube(k, [0] * system.dimension)


@settings(max_examples=300, deadline=None)
@given(cube_pairs())
def test_float_geometry_matches_array_formulas(pair):
    q, r = pair
    for a, b in ((q, r), (r, q)):
        assert np.array_equal(a.lower, _ref_lower(a))
        assert np.array_equal(a.upper, _ref_upper(a))
        assert set_distance(a, b) == _ref_set_distance(a, b)
        assert contains(a, b) == _ref_contains(a, b)
        assert boundary_distance(a, b) == _ref_boundary_distance(a, b)
        assert long_distance(a, b) == a.side + _ref_set_distance(a, b) + b.side


def test_bad_probability_under_bound():
    p = DyadicParams(gamma=0.3, r=8, alpha=1.0, d=0.25)
    p_hat, se = bad_probability_mc(1, 0, 8, p, trials=20_000, seed=3)
    bound = bad_probability_bound(1, 8, p)
    assert p_hat <= bound + 3.0 * se
    assert bound == pytest.approx(2.0 * 2.0 ** (-2.4) / (1.0 - 2.0 ** (-0.3)))


def test_bad_probability_interior_limit():
    # huge r makes the collar threshold tiny and the probability nearly zero
    p = DyadicParams(gamma=0.3, r=40, alpha=1.0, d=0.25)
    p_hat, se = bad_probability_mc(1, 0, 0, p, trials=5_000, seed=4)
    assert p_hat <= 0.02


def test_bad_probability_vacuous_regime_sanity():
    p = DyadicParams(gamma=0.1, r=2, alpha=1.0, d=0.25)
    p_hat, se = bad_probability_mc(1, 0, 0, p, trials=2_000, seed=5)
    bound = bad_probability_bound(1, 0, p)
    assert bound > 1.0 and p_hat <= bound + 3.0 * se


def _ref_bad_probability_mc(dimension, q_scale, n, params, trials, seed,
                            extra_scales=None):
    """The pre-early-exit kernel: every scale scanned, fresh arrays per scale."""
    rng = rng_for(seed, f"badmc:{dimension}:{q_scale}:{n}")
    gap = max(n, params.r)
    if extra_scales is None:
        extra_scales = max(12, math.ceil(16.0 / params.gamma))
    side = 2.0 ** q_scale
    offset = rng.uniform(0.0, 2.0 ** q_scale, size=(trials, dimension))
    bad = np.zeros(trials, dtype=bool)
    shift = offset.copy()
    for j in range(q_scale, q_scale + gap + extra_scales + 1):
        if j >= q_scale + gap:
            period = 2.0 ** j
            thr = side ** params.gamma * period ** (1.0 - params.gamma)
            pos = (-shift) % period
            straddle = pos + side > period
            margin = np.minimum(pos, period - pos - side)
            margin = np.where(straddle, 0.0, margin)
            bad |= np.any(margin <= thr, axis=1)
        shift = shift + rng.integers(0, 2, size=(trials, dimension)) * (2.0 ** j)
    p_hat = float(np.mean(bad))
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-30) / trials)
    return p_hat, stderr


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("gamma,r,n", [(0.1, 4, 4), (0.3, 8, 8), (0.4, 4, 12)])
def test_bad_probability_matches_reference_kernel(dimension, gamma, r, n):
    p = DyadicParams(gamma=gamma, r=r, alpha=1.0, d=0.25)
    for seed in (1, 2):
        got = bad_probability_mc(dimension, 0, n, p, trials=2_000, seed=seed)
        assert got == _ref_bad_probability_mc(dimension, 0, n, p, 2_000, seed)
    if gamma == 0.1:
        assert got[0] == 1.0      # the early exit is taken


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("q_scale", [-3, 0, 2])
@pytest.mark.parametrize("gamma,r,n", [(0.1, 2, 2), (0.1, 2, 10), (0.3, 4, 12),
                                       (0.4, 4, 4), (0.4, 6, 14)])
def test_compacted_walk_matches_reference_kernel(dimension, q_scale, gamma, r, n):
    # dropping bad trials, and stopping once all are, keeps every estimate;
    # gamma = 0.1 makes every trial bad early, so p_hat is 1.0 there
    p = DyadicParams(gamma=gamma, r=r, alpha=1.0, d=0.25)
    for seed in (3, 7):
        got = bad_probability_mc(dimension, q_scale, n, p, trials=1_500, seed=seed)
        assert got == _ref_bad_probability_mc(dimension, q_scale, n, p, 1_500, seed)
    if gamma == 0.1:
        assert got[0] == 1.0


def test_compacted_walk_short_tail_matches_reference_kernel():
    p = DyadicParams(gamma=0.4, r=4, alpha=1.0, d=0.25)
    for extra in (0, 1, 5):
        got = bad_probability_mc(2, 0, 4, p, trials=1_000, seed=2, extra_scales=extra)
        assert got == _ref_bad_probability_mc(2, 0, 4, p, 1_000, 2, extra)


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("trials", [1001, 1003])
def test_odd_trial_counts_match_reference_kernel(dimension, trials):
    # trials N odd: every other scale starts on the half-word the scale
    # before it left over
    p = DyadicParams(gamma=0.3, r=4, alpha=1.0, d=0.25)
    for n in (4, 12):
        got = bad_probability_mc(dimension, 0, n, p, trials=trials, seed=5)
        assert got == _ref_bad_probability_mc(dimension, 0, n, p, trials, 5)


@pytest.mark.parametrize("primed", [False, True])
def test_raw_words_give_the_integers_digits(primed):
    # consecutive draws of even and odd counts, from a fresh generator or
    # from one whose kept half-word is already set, then later draws of both
    ref, raw = rng_for(3, "digits"), rng_for(3, "digits")
    if primed:
        assert ref.integers(0, 2, size=1) == raw.integers(0, 2, size=1)
    bitgen = raw.bit_generator
    spare = _spare_half(bitgen)
    assert (spare is not None) == primed
    for count in (6, 7, 3, 10, 1, 1, 4, 2001, 2000):
        words, spare = _uint32_words(bitgen, count, spare)
        assert words.dtype == np.uint32 and len(words) == count
        assert np.array_equal(words >> 31, ref.integers(0, 2, size=count))
    _keep_spare_half(bitgen, spare)
    assert np.array_equal(raw.integers(0, 2, size=9), ref.integers(0, 2, size=9))
    assert np.array_equal(raw.uniform(size=3), ref.uniform(size=3))
    assert raw.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("trials", [7, 8])
def test_walk_shifts_and_stream_match_integers_walk(dimension, trials):
    # a walk no trial leaves sees the shifts of the ``integers`` walk at
    # every scale and leaves the generator where that walk leaves it
    base, first, stop = -2, 0, 5
    seen = []

    def record(period, pos, flags):
        seen.append(pos.copy())
        flags.fill(False)

    walk, ref = rng_for(9, "walk"), rng_for(9, "walk")
    assert shift_walk_hits(walk, trials, dimension, base, first, stop, record) == 0
    assert len(seen) == stop - first
    shift = ref.uniform(0.0, 2.0 ** base, size=(trials, dimension))
    for j in range(base, stop):
        if j > base:
            shift = shift + ref.integers(0, 2, size=(trials, dimension)) * 2.0 ** (j - 1)
        if j >= first:
            assert np.array_equal(seen[j - first], 2.0 ** j - np.fmod(shift, 2.0 ** j))
    assert np.array_equal(walk.integers(0, 2, size=5), ref.integers(0, 2, size=5))


def test_shift_walk_rejects_other_bit_generators():
    never = lambda period, pos, flags: flags.fill(False)    # noqa: E731
    assert isinstance(rng_for(1, "any").bit_generator, np.random.PCG64)
    for bitgen in (np.random.Philox(1), np.random.PCG64DXSM(1), np.random.MT19937(1)):
        with pytest.raises(TypeError, match="PCG64 words"):
            shift_walk_hits(np.random.Generator(bitgen), 10, 1, 0, 0, 3, never)


@pytest.mark.parametrize("j", [-40, -3, 0, 1, 5, 30])
def test_period_minus_remainder_matches_fmod(j):
    # on [0, period], the range of the walk's shifts at scale j
    period = 2.0 ** j
    rng = np.random.default_rng(11)
    values = np.concatenate([
        [0.0, 2.0 ** -1074, 2.0 ** -60 * period, 1.5 * 2.0 ** -70 * period],
        [np.nextafter(period, 0.0), period, 0.5 * period],
        rng.uniform(0.0, period, size=400),
    ])
    shift = np.stack([values, values[::-1]], axis=1)
    got = _period_minus_remainder(shift, period, np.empty_like(shift))
    want = period - np.fmod(shift, period)
    assert np.array_equal(got, want)
    assert np.all((got > 0.0) & (got <= period))


def test_walk_shifts_stay_within_the_period(monkeypatch):
    # every shift the walk hands to the remainder lies in [0, 2^j], both
    # callers' walks, 1-D to 3-D
    seen = []

    def checked(shift, period, out):
        seen.append(period)
        assert np.all((shift >= 0.0) & (shift <= period))
        return _period_minus_remainder(shift, period, out)

    monkeypatch.setattr(grid, "_period_minus_remainder", checked)
    p = DyadicParams(gamma=0.3, r=4, alpha=1.0, d=0.25)
    for dimension in (1, 2, 3):
        for estimate in (lambda: bad_probability_mc(dimension, -3, 4, p, trials=1_001,
                                                    seed=dimension),
                         lambda: boundary_probability(dimension, 2, 0.05, 1, 10_000,
                                                      seed=dimension)):
            before = len(seen)
            estimate()
            assert len(seen) > before


@pytest.mark.parametrize("chunk", [1, 3, 8])
@pytest.mark.parametrize("dimension,trials", [(1, 1001), (3, 1001), (2, 1000)])
def test_chunked_walk_matches_reference_kernel(monkeypatch, chunk, dimension, trials):
    # chunks of a few digits: with trials N odd, or an odd chunk, chunks end
    # inside a 64-bit word and carry its high half to the next chunk
    monkeypatch.setattr(grid, "_WALK_CHUNK", chunk)
    rows = {}                       # the rows evaluated at each scale, by period

    def counted(shift, period, out):
        rows[period] = rows.get(period, 0) + len(shift)
        return _period_minus_remainder(shift, period, out)

    monkeypatch.setattr(grid, "_period_minus_remainder", counted)
    p = DyadicParams(gamma=0.4, r=4, alpha=1.0, d=0.25)
    got = bad_probability_mc(dimension, 0, 4, p, trials=trials, seed=4)
    assert got == _ref_bad_probability_mc(dimension, 0, 4, p, trials, 4)
    # the held rows were compacted between scales, and the walk went on
    counts = [rows[key] for key in sorted(rows)]
    assert counts[0] == trials and 0 < counts[-1] <= counts[-2] < trials
    for n, gamma, r in ((2, 0.1, 2), (12, 0.4, 4)):
        p = DyadicParams(gamma=gamma, r=r, alpha=1.0, d=0.25)
        got = bad_probability_mc(dimension, 0, n, p, trials=trials, seed=5)
        assert got == _ref_bad_probability_mc(dimension, 0, n, p, trials, 5)


def test_walk_scratch_is_chunk_sized():
    # of a 2-D call over 100,000 trials, only the shift array (1.53 MiB) and
    # two per-trial masks grow with the trials
    p = DyadicParams(gamma=0.3, r=8, alpha=1.0, d=0.25)
    bad_probability_mc(2, 0, 16, p, trials=1_000, seed=7)
    tracemalloc.start()
    try:
        bad_probability_mc(2, 0, 16, p, trials=100_000, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_bad_probability_reproducible():
    p = DyadicParams(gamma=0.3, r=4, alpha=1.0, d=0.25)
    a = bad_probability_mc(2, 0, 6, p, trials=2_000, seed=9)
    b = bad_probability_mc(2, 0, 6, p, trials=2_000, seed=9)
    assert a == b


# =============================================================================
# Dump / replay
# =============================================================================

def test_system_roundtrip():
    mu = generate_random_measure(4, 2, 1.0, 16, "uniform")
    system = build_random_system(8, mu, params_d1())
    back = loads_system(dumps_system(system))
    assert back == system
    assert dumps_system(back) == dumps_system(system)
