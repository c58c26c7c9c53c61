import math

import numpy as np
import pytest

from dyadlab._seeds import rng_for
from dyadlab.measure import AtomicMeasure, pair
from dyadlab.grid import (DyadicParams, badness_scan, contains, dumps_system, loads_system,
                          set_distance, standard_system)
from dyadlab.fixtures import battery_measure, battery_params, build_fixture_pair
from dyadlab.operator import (DiscreteOperator, KernelSpec, PairClass, PairLedger,
                              PairClassifier, boundary_probability, chain_constant,
                              comparable_msum, comparable_partition,
                              collar_membership, decay_bound_check, decay_slope_fit,
                              dipole_kernel, hilbert_kernel, kernel_by_name,
                              measure_testing_bound, pairing_decomposition,
                              paraproduct_apply, paraproduct_direct_pairing,
                              paraproduct_smap, riesz_kernel, validate_kernel)
from dyadlab.operator import _pair_menu


def small_pair(seed=7, atoms=32, r=4, delta=0.5):
    mu = battery_measure(seed, 1, atoms)
    return build_fixture_pair(seed, mu, battery_params(r), delta, grids="standard")


def small_operator(pairf, name="hilbert"):
    return DiscreteOperator(kernel_by_name(name, pairf.measure.growth_exponent),
                            pairf.measure)


# =============================================================================
# Kernels and the action matrix
# =============================================================================

@pytest.mark.parametrize("maker", [riesz_kernel, dipole_kernel, hilbert_kernel])
def test_bundled_kernels_validate(maker):
    mu = battery_measure(3, 1, 32, d=0.8)
    spec = maker(0.8)
    assert validate_kernel(spec, mu)["passed"]


def test_two_atom_action():
    mu = AtomicMeasure(1, 0.5, np.array([[0.0], [0.5]]), np.array([1.0, 2.0]))
    op = DiscreteOperator(riesz_kernel(0.5), mu)
    f = np.array([0.0, 1.0])     # supported off the first atom
    expected = min(1.0, 0.5 ** -0.5) * 1.0 * 2.0
    assert op.apply(f)[0] == pytest.approx(expected)
    assert op.apply(f)[1] == 0.0     # zero diagonal


def test_antisymmetric_kernel_null_quadratic_form():
    mu = battery_measure(5, 1, 24)
    for name in ("hilbert", "dipole"):
        op = DiscreteOperator(kernel_by_name(name, 0.25), mu)
        rng = np.random.default_rng(1)
        f = rng.normal(size=mu.atom_count)
        quad = pair(mu, f, op.apply(f))
        assert abs(quad) <= 1e-12 * np.max(np.abs(op.action)) * np.sum(f ** 2)


def test_transpose_duality_random():
    mu = battery_measure(7, 1, 64)
    op = DiscreteOperator(hilbert_kernel(0.25), mu)
    rng = np.random.default_rng(2)
    for _ in range(20):
        f, g = rng.normal(size=mu.atom_count), rng.normal(size=mu.atom_count)
        a = pair(mu, g, op.apply(f))
        b = pair(mu, op.adjoint_apply(g), f)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def test_matrix_element_single_kernel_term():
    mu = AtomicMeasure(1, 0.5, np.array([[0.0], [2.0]]), np.array([0.5, 0.25]))
    op = DiscreteOperator(hilbert_kernel(0.5), mu)
    psi = np.array([1.0, 0.0])
    phiv = np.array([0.0, 1.0])
    expected = 0.5 * (-(2.0 ** -0.5)) * 1.0 * 0.25
    assert op.matrix_element(psi, phiv) == pytest.approx(expected, rel=1e-12)


def test_mean_zero_kills_constant_kernel():
    mu = AtomicMeasure(1, 1.0, np.array([[0.0], [0.25], [2.0]]),
                       np.array([1.0, 1.0, 1.0]))
    const = KernelSpec("const", lambda x, y: np.ones((x.shape[0], y.shape[0])),
                       math.inf, 0.0, 1.0, 1.0)
    op = DiscreteOperator(const, mu)
    phiv = np.array([1.0, -1.0, 0.0])    # mean zero on the first two atoms
    psi = np.array([0.0, 0.0, 1.0])      # supported away from phi
    assert op.matrix_element(psi, phiv) == pytest.approx(0.0, abs=1e-15)


def test_testing_bound_measured():
    pairf = small_pair()
    op = small_operator(pairf)
    bound = measure_testing_bound(op, pairf.ctx_f.accretive, pairf.index_f)
    assert math.isfinite(bound) and bound > 0


# =============================================================================
# Pair classification
# =============================================================================

def _third_system(window):
    mu = AtomicMeasure(1, 0.25, np.array([[1.0 / 3.0]]), np.array([0.25]))
    params = DyadicParams(gamma=0.4, r=2, alpha=1.0, d=0.25)
    return mu, standard_system(mu, params, window=window)


def test_classify_deep_nested_example():
    # Q good (persistent third-depth), Q inside R with a 2^(r+3) size gap
    mu, sysd = _third_system((-6, 1))
    _, sysd2 = _third_system((-6, 1))
    params = DyadicParams(gamma=0.4, r=3, alpha=1.0, d=0.25)
    q = sysd.cube_containing([1.0 / 3.0], -6)
    r_cube = sysd2.cube(0, (0,))
    assert PairClassifier(params).classify(q, r_cube) is PairClass.DEEP_NESTED


def test_classify_comparable_same_cube():
    mu, sysd = _third_system((-6, 1))
    _, sysd2 = _third_system((-6, 1))
    params = DyadicParams(gamma=0.4, r=5, alpha=1.0, d=0.25)
    q = sysd.cube_containing([1.0 / 3.0], -2)
    r_cube = sysd2.cube_containing([1.0 / 3.0], -2)
    assert set_distance(q, r_cube) == 0.0
    assert PairClassifier(params).classify(q, r_cube) is PairClass.COMPARABLE


def test_classify_boundary_touching_bad():
    mu, sysd = _third_system((-6, 1))
    _, sysd2 = _third_system((-6, 1))
    params = DyadicParams(gamma=0.4, r=2, alpha=1.0, d=0.25)
    q = sysd.cube(-6, (0,))      # touches the origin boundary at every scale
    r_cube = sysd2.cube(0, (0,))
    assert PairClassifier(params).classify(q, r_cube) is PairClass.BAD


def test_classify_separated_across_clusters():
    # Q seven scales below R so the badness scan starts above the deepest
    # witness of the third-position cube, leaving a good separated pair
    mu, sysd = _third_system((-7, 1))
    _, sysd2 = _third_system((-7, 1))
    params = DyadicParams(gamma=0.4, r=2, alpha=1.0, d=0.25)
    q = sysd.cube_containing([1.0 / 3.0], -7)
    r_cube = sysd2.cube_containing([2.0 / 3.0], -1)
    assert set_distance(q, r_cube) >= q.side
    assert PairClassifier(params).classify(q, r_cube) is PairClass.SEPARATED


def test_classify_requires_size_order():
    mu, sysd = _third_system((-6, 1))
    _, sysd2 = _third_system((-6, 1))
    params = DyadicParams(gamma=0.4, r=2, alpha=1.0, d=0.25)
    big = sysd.cube(0, (0,))
    small = sysd2.cube(-3, (2,))
    with pytest.raises(ValueError):
        PairClassifier(params).classify(big, small)


@pytest.mark.parametrize("r", [2, 4, 6])
def test_exhaustive_partition_two_grid_fixture(r):
    pairf = small_pair(r=r)
    classifier = PairClassifier(pairf.params)
    counted = {cls: 0 for cls in PairClass}
    for k in pairf.ctx_f.diff_scales:
        for q in pairf.index_f.occupied(k):
            for j in pairf.ctx_g.diff_scales:
                for rc in pairf.index_g.occupied(j):
                    if q.side <= rc.side:
                        counted[classifier.classify(q, rc)] += 1
    assert sum(counted.values()) > 0
    assert counted[PairClass.BAD] >= 0      # no GeometryError escaped


def test_child_containment_for_deep_good_pairs():
    pairf = small_pair(r=3)
    classifier = PairClassifier(pairf.params)
    found = 0
    for k in pairf.ctx_f.diff_scales:
        for q in pairf.index_f.occupied(k):
            for j in pairf.ctx_g.diff_scales:
                for rc in pairf.index_g.occupied(j):
                    if q.side > rc.side or rc.scale <= rc.system.k_min:
                        continue
                    if classifier.classify(q, rc) is PairClass.DEEP_NESTED:
                        hosts = [c for c in rc.children() if contains(c, q)]
                        assert len(hosts) == 1
                        found += 1
    assert found > 0


@pytest.mark.parametrize("dim", [1, 2])
def test_classifier_badness_agrees_with_badness_scan(dim):
    # the classifier compares a memoized witness scale per cube, badness_scan
    # the scale gap of each pair; they must agree on every pair of the fixture
    mu = battery_measure(5, dim, 24)
    pairf = build_fixture_pair(5, mu, battery_params(3), 0.5, grids="random")
    classifier = PairClassifier(pairf.params)
    verdicts = set()
    for k in pairf.ctx_f.diff_scales:
        for q in pairf.index_f.occupied(k):
            for j in pairf.ctx_g.diff_scales:
                for rc in pairf.index_g.occupied(j):
                    if q.side <= rc.side:
                        bad = classifier.is_bad(q, rc)
                        assert bad == badness_scan(q, rc.system, rc.scale - q.scale - 1,
                                                   pairf.params).bad
                        verdicts.add(bad)
    assert verdicts == {True, False}


def test_classifier_memo_keyed_on_system_value():
    pairf = small_pair(r=3)
    classifier = PairClassifier(pairf.params)
    other = pairf.index_g.system
    twin = loads_system(dumps_system(other))      # equal value, distinct object
    assert twin == other and twin is not other
    q = pairf.index_f.occupied(pairf.ctx_f.diff_scales[0])[0]
    rc = other.top_cube()
    first = classifier.is_bad(q, rc)
    memo = len(classifier._profiles)
    assert classifier.is_bad(q, twin.top_cube()) == first
    assert len(classifier._profiles) == memo


# =============================================================================
# Ledger
# =============================================================================

def test_ledger_identity_indicator_systems():
    mu = battery_measure(11, 1, 32)
    pairf = build_fixture_pair(4, mu, battery_params(2), 0.9, style="indicator",
                               grids="standard")
    op = small_operator(pairf)
    rng = np.random.default_rng(3)
    f, g = rng.normal(size=mu.atom_count), rng.normal(size=mu.atom_count)
    led = pairing_decomposition(op, pairf.ctx_f, pairf.ctx_g, f, g, pairf.classifier)
    assert led.identity_residual <= 1e-10


def test_ledger_annihilation_constant_input():
    # with indicator systems, constants sit in the kernel of every block
    mu = battery_measure(11, 1, 32)
    pairf = build_fixture_pair(4, mu, battery_params(2), 0.9, style="indicator",
                               grids="standard")
    op = small_operator(pairf)
    f = np.ones(mu.atom_count)
    rng = np.random.default_rng(4)
    g = rng.normal(size=mu.atom_count)
    led = pairing_decomposition(op, pairf.ctx_f, pairf.ctx_g, f, g, pairf.classifier)
    assert abs(led.block_sum) <= 1e-12
    assert led.identity_residual <= 1e-10


def test_ledger_vector_valued():
    pairf = small_pair(atoms=32)
    op = small_operator(pairf)
    rng = np.random.default_rng(5)
    f = rng.normal(size=(pairf.measure.atom_count, 2))
    g = rng.normal(size=(pairf.measure.atom_count, 2))
    led = pairing_decomposition(op, pairf.ctx_f, pairf.ctx_g, f, g, pairf.classifier)
    assert led.identity_residual <= 1e-10


def test_bad_fraction_decreases_with_r():
    mu = battery_measure(7, 1, 32)
    op = DiscreteOperator(hilbert_kernel(0.25), mu)
    rng = np.random.default_rng(6)
    f, g = rng.normal(size=mu.atom_count), rng.normal(size=mu.atom_count)
    fractions = []
    for r in (2, 4, 6):
        pairf = build_fixture_pair(7, mu, battery_params(r), 0.5, grids="standard")
        led = pairing_decomposition(op, pairf.ctx_f, pairf.ctx_g, f, g, pairf.classifier)
        assert led.identity_residual <= 1e-10
        fractions.append(led.bad_fraction)
    assert fractions[0] > fractions[1] > fractions[2]


def test_bad_fraction_adds_class_masses_left_to_right():
    # (1e16 + 1) + 1 rounds to 1e16 twice; a compensated sum (builtin ``sum``
    # from Python 3.12) gives the exact 1e16 + 2
    led = PairLedger(0.0, 0.0, 0.0, 0.0,
                     {"separated": 1e16, "comparable": 1.0, "bad": 1.0}, {})
    assert led.bad_fraction == 1.0 / 1e16
    assert 1.0 / 1e16 != 1.0 / (1e16 + 2.0)


# =============================================================================
# Decay bounds
# =============================================================================

def test_decay_bounds_pass_on_battery():
    pairf = small_pair(r=4)
    op = small_operator(pairf)
    res = decay_bound_check(op, pairf.ctx_f, pairf.ctx_g, pairf.classifier)
    assert res.checked > 0
    assert res.passed
    assert res.worst_margin > 1.0


def test_decay_bound_chain_constant():
    kern = hilbert_kernel(0.25)
    c = chain_constant(kern, 0.5)
    assert c == pytest.approx(2.0 ** 2.25 * kern.c_smooth * 64.0)


def _geometric_child_mass(mu, cube, i):
    # reference: the child's atoms found by testing every atom position
    inside = cube.children()[i].contains_points(mu.positions)
    return float(np.sum(mu.weights[inside]))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("grids", ["standard", "random"])
def test_menu_child_mass_equals_geometric_mass(dim, grids):
    # the frame menu reads child masses from the grid index; they must be the
    # very floats the geometric atom search gives, on both systems
    mu = battery_measure(5, dim, 24)
    pairf = build_fixture_pair(5, mu, battery_params(3), 0.5, grids=grids)
    entries = 0
    for ctx in (pairf.ctx_f, pairf.ctx_g):
        for cube, menu in _pair_menu(ctx):
            for i, mass, _ in menu:
                assert mass == _geometric_child_mass(mu, cube, i)
                entries += 1
    assert entries > 0


def test_separated_smoothness_bound_direct():
    # a hand-built separated pair against the explicit smoothness bound
    mu = AtomicMeasure(1, 0.8, np.array([[0.0], [0.001], [3.0]]), np.ones(3))
    kern = riesz_kernel(0.8)
    op = DiscreteOperator(kern, mu)
    phiv = np.array([1.0, -1.0, 0.0])
    psi = np.array([0.0, 0.0, 1.0])
    val = abs(op.matrix_element(psi, phiv))
    dist = 3.0 - 0.001
    bound = kern.c_smooth * 0.001 ** kern.alpha / dist ** (kern.d + kern.alpha) * 2.0
    assert val <= bound


@pytest.mark.parametrize("d", [0.25, 0.8])
def test_decay_slope_within_ten_percent(d):
    slope = decay_slope_fit(riesz_kernel(d), [4.0, 8.0, 16.0, 32.0, 64.0])
    target = -(d + 1.0)
    assert abs(slope - target) <= 0.1 * abs(target)


# =============================================================================
# Paraproduct
# =============================================================================

def test_smap_characterization_and_duality():
    pairf = small_pair(r=3, atoms=32)
    op = small_operator(pairf)
    smap = paraproduct_smap(pairf.ctx_f, pairf.index_g, pairf.classifier)
    classifier = PairClassifier(pairf.params)
    sys2 = pairf.index_g.system
    nonempty = 0
    for k in pairf.ctx_f.diff_scales:
        for q in pairf.index_f.occupied(k):
            s_cube = smap[q.key]
            if s_cube is not None:
                nonempty += 1
                assert contains(s_cube, q)
            for j in range(q.scale, sys2.s + 1):
                r_cube = sys2.cube_containing(q.center, j)
                chi = (contains(r_cube, q)
                       and q.side < 2.0 ** (-pairf.params.r) * r_cube.side
                       and not classifier.is_bad(q, r_cube))
                s_strict = (s_cube is not None and contains(r_cube, s_cube)
                            and r_cube.key != s_cube.key)
                assert chi == s_strict
    assert nonempty > 0

    rng = np.random.default_rng(7)
    f = rng.normal(size=pairf.measure.atom_count)
    g = rng.normal(size=pairf.measure.atom_count)
    pi_g = paraproduct_apply(op, pairf.ctx_f, pairf.ctx_g, g, smap)
    direct = paraproduct_direct_pairing(op, pairf.ctx_f, pairf.ctx_g, g, f, smap)
    lhs = pair(pairf.measure, pi_g, f)
    assert abs(lhs - direct) <= 1e-12 * max(abs(lhs), abs(direct), 1.0)


def test_paraproduct_zero_function():
    pairf = small_pair(r=3, atoms=32)
    op = small_operator(pairf)
    smap = paraproduct_smap(pairf.ctx_f, pairf.index_g, pairf.classifier)
    out = paraproduct_apply(op, pairf.ctx_f, pairf.ctx_g,
                            np.zeros(pairf.measure.atom_count), smap)
    assert np.all(out == 0.0)


def test_paraproduct_empty_when_window_shallow():
    # with r larger than the whole window no cube can be deeply nested
    mu = battery_measure(9, 1, 16)
    pairf = build_fixture_pair(5, mu, battery_params(2), 0.5, grids="standard")
    deep_params = DyadicParams(gamma=0.4, r=30, alpha=1.0, d=0.25)
    smap = paraproduct_smap(pairf.ctx_f, pairf.index_g, PairClassifier(deep_params))
    assert all(v is None for v in smap.values())
    op = small_operator(pairf)
    rng = np.random.default_rng(8)
    g = rng.normal(size=mu.atom_count)
    assert np.all(paraproduct_apply(op, pairf.ctx_f, pairf.ctx_g, g, smap) == 0.0)


# =============================================================================
# Comparable pairs and the collar
# =============================================================================

def _comparable_pair(pairf):
    classifier = PairClassifier(pairf.params)
    for k in pairf.ctx_f.diff_scales:
        for q in pairf.index_f.occupied(k):
            for j in pairf.ctx_g.diff_scales:
                for rc in pairf.index_g.occupied(j):
                    if q.side <= rc.side and \
                            classifier.classify(q, rc) is PairClass.COMPARABLE:
                        return q, rc
    raise AssertionError("fixture has no comparable pair")


def test_comparable_partition_and_msum():
    pairf = small_pair(r=4, atoms=32)
    op = small_operator(pairf)
    q, rc = _comparable_pair(pairf)
    rng = np.random.default_rng(9)
    psi = rng.normal(size=pairf.measure.atom_count)
    phiv = rng.normal(size=pairf.measure.atom_count)
    for i in range(2):
        for j in range(2):
            regions = comparable_partition(pairf.measure, q, rc, i, j, 0.1,
                                           pairf.params)
            in_q = np.where(regions.q_child.contains_points(
                pairf.measure.positions))[0]
            got = np.sort(np.concatenate([regions.delta_q, regions.q_sep,
                                          regions.q_boundary]))
            assert np.array_equal(got, in_q)
            res = comparable_msum(op, psi, phiv, regions)
            assert res["residual"] <= 1e-12 * max(abs(res["full"]), 1.0) + 1e-14


def test_comparable_partition_rejects_non_comparable():
    pairf = small_pair(r=4, atoms=32)
    q = pairf.index_f.occupied(pairf.ctx_f.system.k_min + 1)[0]
    top = pairf.index_g.system.top_cube()
    with pytest.raises(ValueError, match="comparable"):
        comparable_partition(pairf.measure, q, top, 0, 0, 0.1, pairf.params)


def test_collar_swallows_small_cube():
    # a collar wide enough to cover the whole neighboring child empties the
    # core and separated parts
    mu = AtomicMeasure(1, 1.0, np.array([[0.26], [0.49]]), np.array([1.0, 1.0]))
    params = DyadicParams(gamma=0.2, r=2, alpha=1.0, d=1.0)
    sysd = standard_system(mu, params, window=(-4, 0))
    sysd2 = standard_system(mu, params, window=(-4, 0))
    q = sysd.cube(-1, (0,))      # [0, 0.5)
    rc = sysd2.cube(-1, (0,))
    regions = comparable_partition(mu, q, rc, 1, 1, 0.9, params)
    # child [0.25, 0.5): both atoms inside the wide collar of the R-child
    assert regions.q_boundary.size == 2
    assert regions.delta_q.size == 0 and regions.q_sep.size == 0


def test_collar_membership_geometry():
    mu = AtomicMeasure(1, 1.0, np.array([[0.5]]), np.array([1.0]))
    params = DyadicParams(gamma=0.2, r=2, alpha=1.0, d=1.0)
    sysd = standard_system(mu, params, window=(-3, 0))
    cube = sysd.cube(0, (0,))
    pts = np.array([[0.005], [0.5], [0.999], [1.04], [1.2]])
    got = collar_membership(pts, cube, 0.1)
    assert list(got) == [True, False, True, True, False]


# =============================================================================
# Boundary collar probability
# =============================================================================

def test_collar_probability_envelope_and_linearity():
    p1, se1 = boundary_probability(1, 2, 0.05, 0, 20_000, seed=3)
    assert p1 <= 4.0 * 1 * 3 * 0.05 + 3.0 * se1
    p2, se2 = boundary_probability(1, 2, 0.025, 0, 20_000, seed=3)
    assert 0.3 <= p2 / p1 <= 0.7


def test_collar_probability_small_eta_limit():
    p, _ = boundary_probability(1, 2, 0.001, 0, 10_000, seed=4)
    assert p <= 0.02


def _ref_boundary_probability(dimension, r, eta, k_scale, trials, seed):
    """The full-width collar kernel: every trial at every scale, floored modulo."""
    rng = rng_for(seed, f"collar:{dimension}:{r}:{eta}")
    guard = math.ceil(math.log2(1.0 / eta)) + 8
    base = k_scale - r - 1 - guard
    shift = rng.uniform(0.0, 2.0 ** base, size=(trials, dimension))
    hit = np.zeros(trials, dtype=bool)
    for m in range(base, k_scale):
        period = 2.0 ** m
        if m >= k_scale - r - 1:
            pos = (-shift) % period
            near = np.minimum(pos, period - pos) <= eta * period / 2.0
            hit |= np.any(near, axis=1)
        shift = shift + rng.integers(0, 2, size=(trials, dimension)) * period
    p_hat = float(np.mean(hit))
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-30) / trials)
    return p_hat, stderr


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("k_scale", [-3, 0, 2])
@pytest.mark.parametrize("r,eta", [(1, 0.2), (2, 0.05), (4, 0.025), (6, 0.001)])
def test_collar_probability_matches_reference_kernel(dimension, k_scale, r, eta):
    for seed in (1, 7):
        got = boundary_probability(dimension, r, eta, k_scale, 10_000, seed)
        assert got == _ref_boundary_probability(dimension, r, eta, k_scale, 10_000,
                                                seed)


@pytest.mark.parametrize("dimension", [1, 3])
def test_collar_probability_odd_trials_match_reference_kernel(dimension):
    # 10,001 N digits per scale: the spare half-word carries to the next scale
    for r, eta in ((2, 0.05), (6, 0.001)):
        got = boundary_probability(dimension, r, eta, 0, 10_001, seed=3)
        assert got == _ref_boundary_probability(dimension, r, eta, 0, 10_001, 3)


def test_collar_probability_all_hit_matches_reference_kernel():
    # eta near 1/4 over many scales: every trial ends in some collar, so the
    # walk stops early
    got = boundary_probability(2, 40, 0.24, 0, 10_000, seed=5)
    assert got[0] == 1.0
    assert got == _ref_boundary_probability(2, 40, 0.24, 0, 10_000, 5)


def test_collar_probability_validation():
    with pytest.raises(ValueError):
        boundary_probability(1, 2, 0.3, 0, 20_000, seed=1)
    with pytest.raises(ValueError):
        boundary_probability(1, 2, 0.05, 0, 100, seed=1)


def test_decay_check_needs_two_system_objects():
    # "two systems" means two objects: the standard pair's systems are equal
    # but distinct, so its pairs are checked; one object checks nothing
    pairf = small_pair(r=4)
    assert pairf.index_f.system == pairf.index_g.system
    assert pairf.index_f.system is not pairf.index_g.system
    op = small_operator(pairf)
    assert decay_bound_check(op, pairf.ctx_f, pairf.ctx_g, pairf.classifier).checked > 0
    assert decay_bound_check(op, pairf.ctx_f, pairf.ctx_f, pairf.classifier).checked == 0
