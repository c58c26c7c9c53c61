import math
import tracemalloc

import numpy as np
import pytest

from dyadlab import measure as ms
from dyadlab.fixtures import battery_measure
from dyadlab.measure import (AtomicMeasure, GrowthReport, LatticeSpace, ball_mass,
                             dumps_measure, generate_random_measure, growth_check,
                             growth_radii, integrate, loads_measure, lp_norm, pair,
                             vector_norm)


def single_atom():
    return AtomicMeasure(1, 1.0, np.array([[0.0]]), np.array([1.0]))


def test_ball_mass_single_atom_inside():
    mu = AtomicMeasure(3, 1.0, np.zeros((1, 3)), np.array([1.0]))
    assert ball_mass(mu, [0.0, 0.0, 0.0], 1.0) == 1.0


def test_ball_mass_empty_ball():
    mu = AtomicMeasure(3, 1.0, np.zeros((1, 3)), np.array([1.0]))
    assert ball_mass(mu, [2.0, 0.0, 0.0], 1.0) == 0.0


def test_ball_mass_boundary_inclusive():
    mu = AtomicMeasure(1, 1.0, np.array([[0.0], [0.5]]), np.array([1.0, 3.0]))
    assert ball_mass(mu, [0.0], 0.5) == 4.0


def test_growth_check_single_atom():
    report = growth_check(single_atom())
    assert report.passed and report.c_gr == 1.0
    assert list(growth_radii(single_atom())) == [1.0]


def test_growth_check_two_atoms_fails_at_two():
    # radius sweep {1/2, 1, 2}: the ratio peaks at 2.0 (mass 2 in the unit ball)
    mu = AtomicMeasure(1, 1.0, np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    report = growth_check(mu)
    assert not report.passed
    assert report.c_gr == pytest.approx(2.0, abs=1e-15)


def test_growth_scaling_linear_in_weights():
    mu = AtomicMeasure(1, 1.0, np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    half = mu.scaled_weights(0.5)
    assert growth_check(half).c_gr == pytest.approx(0.5 * growth_check(mu).c_gr)


def test_growth_check_empty_rejected():
    with pytest.raises(ValueError, match="empty support"):
        AtomicMeasure(1, 1.0, np.empty((0, 1)), np.empty(0))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_duplicate_atoms_rejected(dimension):
    pos = np.random.default_rng(dimension).uniform(0.0, 1.0, size=(40, dimension))
    pos[[2, 9]] = 0.0
    pos[9, -1] = np.nextafter(0.0, 1.0)       # differs from row 2 in one coordinate
    AtomicMeasure(dimension, 1.0, pos, np.ones(40))
    for copy in (pos[5], -pos[2]):             # an exact copy; -0.0 against 0.0
        dup = pos.copy()
        dup[31] = copy
        with pytest.raises(ValueError, match="pairwise distinct"):
            AtomicMeasure(dimension, 1.0, dup, np.ones(40))


def test_distinctness_check_memory():
    # the rows are sorted, so no n x n array is built
    tracemalloc.start()
    AtomicMeasure(1, 1.0, np.linspace(0.0, 1.0, 4096)[:, None], np.ones(4096))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_integrate_constant():
    mu = AtomicMeasure(1, 1.0, np.array([[0.1], [0.4]]), np.array([2.0, 3.0]))
    f = np.full(2, 7.0)
    assert integrate(mu, f) == pytest.approx(7.0 * np.sum(mu.weights))


@pytest.mark.parametrize("profile", ["uniform", "fractal-cantor", "clustered"])
def test_generated_measures_pass_growth(profile):
    mu = generate_random_measure(3, 2, 1.0, 64, profile)
    report = growth_check(mu)
    assert report.passed and report.c_gr <= 1.0 + 1e-12
    assert np.all(mu.positions >= 0.0) and np.all(mu.positions < 1.0)


def test_generated_single_atom():
    mu = generate_random_measure(7, 1, 1.0, 1, "uniform")
    assert mu.atom_count == 1 and mu.weights[0] <= 1.0 + 1e-12


def test_generation_deterministic():
    a = generate_random_measure(11, 2, 0.7, 32, "clustered")
    b = generate_random_measure(11, 2, 0.7, 32, "clustered")
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.weights, b.weights)


def test_measure_roundtrip_bit_exact():
    mu = generate_random_measure(5, 2, 1.3, 17, "uniform")
    back = loads_measure(dumps_measure(mu))
    assert np.array_equal(back.positions, mu.positions)
    assert np.array_equal(back.weights, mu.weights)
    assert dumps_measure(back) == dumps_measure(mu)


def test_lp_norm_homogeneous():
    mu = generate_random_measure(5, 1, 1.0, 16, "uniform")
    rng = np.random.default_rng(0)
    f = rng.normal(size=(16, 3))
    for p in (1.0, 2.0, 3.5, math.inf):
        assert lp_norm(mu, 2.5 * f, p) == pytest.approx(2.5 * lp_norm(mu, f, p))


def test_lattice_monotonicity_of_lp_norm():
    mu = generate_random_measure(6, 1, 1.0, 16, "uniform")
    rng = np.random.default_rng(1)
    g = rng.normal(size=(16, 4))
    f = g * rng.uniform(0.0, 1.0, size=g.shape)     # |f| <= |g| coordinatewise
    for rho in (1.0, 2.0, 4.0, math.inf):
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(mu, f, p, rho=rho) <= lp_norm(mu, g, p, rho=rho) + 1e-12


def test_lattice_space_norm_monotone_random_pairs():
    # the l^3 norm of (R^5, l^3) is a lattice norm
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = rng.normal(size=(1, 5))
        f = g * rng.uniform(0, 1, size=(1, 5))
        assert vector_norm(f, 3.0)[0] <= vector_norm(g, 3.0)[0] + 1e-14


def test_duality_pairing_hoelder():
    # |<phi, xi>| <= |phi|_{rho'} |xi|_rho on (R^6, l^2.5), rho' = 2.5 / 1.5
    rho, rho_dual = 2.5, 2.5 / 1.5
    rng = np.random.default_rng(3)
    for _ in range(50):
        phi = rng.normal(size=(1, 6))
        xi = rng.normal(size=(1, 6))
        lhs = abs(float(np.sum(phi * xi)))
        rhs = float(vector_norm(phi, rho_dual)[0] * vector_norm(xi, rho)[0])
        assert lhs <= rhs + 1e-12


@pytest.mark.parametrize("rho,cotype", [(1.0, 2.0), (1.5, 2.0), (2.0, 2.0), (4.0, 4.0),
                                        (math.inf, 2.0)])
def test_cotype(rho, cotype):
    # max(2, rho), and 2 for the finite-dimensional l^inf_m
    assert LatticeSpace(3, rho).cotype == cotype


def test_pairing_matches_manual_sum():
    mu = AtomicMeasure(1, 1.0, np.array([[0.0], [0.5]]), np.array([2.0, 3.0]))
    g = np.array([[1.0, 2.0], [0.5, -1.0]])
    f = np.array([[2.0, 0.0], [1.0, 1.0]])
    manual = 2.0 * (1 * 2 + 2 * 0) + 3.0 * (0.5 * 1 + (-1) * 1)
    assert pair(mu, g, f) == pytest.approx(manual)


def test_vector_norm_axes():
    a = np.array([[3.0, 4.0]])
    assert vector_norm(a, 2.0)[0] == pytest.approx(5.0)
    assert vector_norm(a, math.inf)[0] == pytest.approx(4.0)
    assert vector_norm(a, 1.0)[0] == pytest.approx(7.0)


# =============================================================================
# Row-block pair geometry against the dense n x n references
# =============================================================================

def _ref_sup_distances(pos):
    """The dense (n, n) sup-norm distance table the row-block scan replaces."""
    return np.max(np.abs(pos[:, None, :] - pos[None, :, :]), axis=-1)


def _ref_min_gap(pos):
    d = _ref_sup_distances(pos)
    return float(np.min(d[~np.eye(pos.shape[0], dtype=bool)]))


def _ref_diameter(pos):
    d = _ref_sup_distances(pos)
    return float(np.max(d[~np.eye(pos.shape[0], dtype=bool)]))


def _ref_nearest(pos):
    d = _ref_sup_distances(pos)
    np.fill_diagonal(d, np.inf)
    return np.min(d, axis=1)


def _ref_growth_check(mu):
    radii = growth_radii(mu)
    diff = _ref_sup_distances(mu.positions)
    c_gr = 0.0
    for r in radii:
        masses = np.sum(np.where(diff <= r, mu.weights[None, :], 0.0), axis=1)
        c_gr = max(c_gr, float(np.max(masses)) / r ** mu.growth_exponent)
    return GrowthReport(c_gr <= 1.0 + 1e-12, c_gr)


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# the most atoms one block of the pair scan holds whole
ONE_BLOCK = math.isqrt(ms.BLOCK_PAIRS)


def _awkward_positions(dimension, n):
    """Signed coordinates over several magnitudes, with +-0.0 entries and
    atoms one ulp apart, all pairwise distinct."""
    rng = np.random.default_rng(100 * dimension + n)
    pos = rng.uniform(-1.0, 1.0, size=(n, dimension)) * 10.0 ** rng.integers(-3, 2, (n, 1))
    if n >= 2:
        pos[1] = np.nextafter(pos[0], np.inf)          # near-equal atoms
    if n >= 3:
        pos[2] = -0.0
    if n >= 4 and dimension > 1:
        pos[3] = 0.0
        pos[3, -1] = 2.0 ** -40                        # +0.0 against row 2's -0.0
    assert np.unique(pos, axis=0).shape[0] == n
    return pos


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, ONE_BLOCK - 1, ONE_BLOCK, ONE_BLOCK + 1,
                               2 * ONE_BLOCK + 1])
def test_pair_geometry_matches_dense_reference(dimension, n):
    pos = _awkward_positions(dimension, n)
    # a small exponent puts c_gr on the balls of many atoms, where the sum order shows
    weights = np.exp(np.random.default_rng(n).normal(0.0, 2.0, n))
    mu = AtomicMeasure(dimension, 0.05, pos, weights)
    if n > ONE_BLOCK:
        assert len(ms.row_blocks(n, n)) >= 2
    if n == 1:
        assert mu.min_gap() == math.inf and mu.diameter() == 0.0
    else:
        assert _same_bits(mu.min_gap(), _ref_min_gap(pos))
        assert _same_bits(mu.diameter(), _ref_diameter(pos))
        assert _same_bits(ms._min_sup_gap(pos), _ref_min_gap(pos))
        assert np.array_equal(ms._nearest_sup_distances(pos), _ref_nearest(pos))
    assert _same_bits(growth_check(mu).c_gr, _ref_growth_check(mu).c_gr)


@pytest.mark.parametrize("block_pairs", [ms.BLOCK_PAIRS, 1000])
@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("profile", ["uniform", "fractal-cantor", "clustered"])
def test_generated_measures_match_dense_reference(monkeypatch, dimension, profile,
                                                  block_pairs):
    # every profile, over several blocks: generating with the block scans
    # gives the bits that the dense tables give (200 atoms, as the 1-D
    # cantor profile cannot place 300)
    n = 200
    monkeypatch.setattr(ms, "BLOCK_PAIRS", block_pairs)
    assert len(ms.row_blocks(n, n)) >= 2
    got = generate_random_measure(9, dimension, 0.5 * dimension, n, profile)
    monkeypatch.setattr(ms, "_min_sup_gap", _ref_min_gap)
    monkeypatch.setattr(ms, "_nearest_sup_distances", _ref_nearest)
    monkeypatch.setattr(ms, "growth_check", _ref_growth_check)
    want = generate_random_measure(9, dimension, 0.5 * dimension, n, profile)
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.weights, want.weights)


def test_battery_measure_memory():
    # the pair geometry never holds an n x n table: 100 MiB at 2048 atoms once
    tracemalloc.start()
    try:
        battery_measure(1, 1, 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
