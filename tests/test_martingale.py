import numpy as np
import pytest

from dyadlab.measure import integrate, pair, restrict
from dyadlab.grid import DyadicParams, locate, standard_system, build_random_system
from dyadlab.accretive import build_layers, generate_accretive
from dyadlab.fixtures import battery_measure
from dyadlab.martingale import (BrokenAccretivityError, MartingaleContext,
                                adapted_adjoint_expectation, adapted_diff,
                                adapted_diff_adjoint, adapted_diff_local,
                                adapted_expectation, adapted_diff_matrix, diff,
                                expectation, expectation_matrix, omega, phi,
                                reconstruct, weighted_adjoint)

from reference_index import RefIndex
from test_accretive import four_atom_fixture


def four_atom_context(delta=0.5):
    mu, index, sys_b = four_atom_fixture(delta)
    layers = build_layers(sys_b, mu, index)
    return MartingaleContext(mu, index, sys_b, layers)


def indicator_context(seed=3, atoms=16, dimension=1):
    mu = battery_measure(seed, dimension, atoms)
    params = DyadicParams(gamma=0.4, r=2, alpha=1.0, d=0.25)
    index = locate(mu, standard_system(mu, params))
    sys_b = generate_accretive(1, mu, index, 0.5, "indicator")
    return MartingaleContext(mu, index, sys_b, build_layers(sys_b, mu, index))


def rich_context(seed=5, atoms=32, delta=0.4):
    mu = battery_measure(seed, 1, atoms)
    params = DyadicParams(gamma=0.4, r=2, alpha=1.0, d=0.25)
    index = locate(mu, build_random_system(seed + 1, mu, params))
    sys_b = generate_accretive(seed + 2, mu, index, delta, "signed-perturbation")
    return MartingaleContext(mu, index, sys_b, build_layers(sys_b, mu, index))


# =============================================================================
# Plain expectations and differences
# =============================================================================

def test_constant_killed_by_differences():
    ctx = indicator_context()
    f = np.full(ctx.measure.atom_count, 3.25)
    for k in ctx.diff_scales:
        assert np.max(np.abs(diff(ctx, f, k))) < 1e-15


def test_bottom_scale_reproduces_function():
    ctx = indicator_context()
    rng = np.random.default_rng(0)
    f = rng.normal(size=ctx.measure.atom_count)
    out = expectation(ctx, f, ctx.system.k_min)
    assert np.max(np.abs(out - f)) <= 1e-15 * np.max(np.abs(f))


def test_tower_property():
    ctx = rich_context()
    rng = np.random.default_rng(1)
    f = rng.normal(size=ctx.measure.atom_count)
    for k in ctx.diff_scales:
        lhs = expectation(ctx, expectation(ctx, f, k - 1), k)
        rhs = expectation(ctx, f, k)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(f))


def test_diff_telescoping_exact():
    ctx = rich_context()
    rng = np.random.default_rng(2)
    f = rng.normal(size=ctx.measure.atom_count)
    total = sum(diff(ctx, f, k) for k in ctx.diff_scales)
    expected = expectation(ctx, f, ctx.system.k_min) - expectation(ctx, f, ctx.system.s)
    assert np.max(np.abs(total - expected)) <= 1e-14 * np.max(np.abs(f))


# =============================================================================
# Adapted expectations
# =============================================================================

def test_indicator_system_reduces_to_classical():
    ctx = indicator_context()
    rng = np.random.default_rng(3)
    f = rng.normal(size=ctx.measure.atom_count)
    for k in ctx.scales:
        assert np.allclose(adapted_expectation(ctx, f, k), expectation(ctx, f, k),
                           rtol=0, atol=1e-14)
    for k in ctx.diff_scales:
        assert np.allclose(adapted_diff(ctx, f, k), diff(ctx, f, k),
                           rtol=0, atol=1e-14)
        assert np.max(np.abs(omega(ctx, k))) == 0.0


def test_adapted_constants_reproduced():
    # the stopped test function itself is a fixed point of E^a_k
    ctx = rich_context()
    for k in ctx.scales:
        bk = ctx.b_adapted[k]
        out = adapted_expectation(ctx, bk, k)
        assert np.max(np.abs(out - bk)) <= 1e-13


def test_top_scale_formula():
    ctx = four_atom_context()
    rng = np.random.default_rng(4)
    f = rng.normal(size=4)
    out = adapted_expectation(ctx, f, ctx.system.s)
    b = np.array([1.0, 1.0, 1.0, -0.6])
    expected = b * np.mean(f) / 0.6       # <f>_Q0 / <b>_Q0 with unit weights
    assert np.allclose(out, expected, rtol=0, atol=1e-13)


def test_adapted_tower():
    ctx = rich_context()
    rng = np.random.default_rng(5)
    f = rng.normal(size=ctx.measure.atom_count)
    scales = list(ctx.scales)
    for k in scales[::2]:
        for l in scales[::2]:
            if l <= k:
                lhs = adapted_expectation(ctx, adapted_expectation(ctx, f, l), k)
                rhs = adapted_expectation(ctx, f, k)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(f))


def test_division_guard_triggers_on_broken_ancestors():
    mu, index, sys_b = four_atom_fixture(0.5)
    layers = build_layers(sys_b, mu, index)
    # corrupt the ancestor map so a cube with near-zero average is its own
    # ancestor, which must trip the delta^2 / 2 floor
    layers.ancestor[(-1, (1,))] = index.system.top_cube().key
    sys_b.values[(0, (0,))] = np.array([1.0, 1.0, 0.01, -0.01])
    with pytest.raises(BrokenAccretivityError):
        MartingaleContext(mu, index, sys_b, layers)


# =============================================================================
# Frame functions and defects
# =============================================================================

def test_phi_indicator_reduction():
    ctx = indicator_context()
    ref = RefIndex(ctx.measure, ctx.system)
    mu = ctx.measure
    for k in ctx.diff_scales:
        for cube in ctx.index.occupied(k):
            for i, child in enumerate(cube.children()):
                pv = phi(ctx, cube, i)
                atoms_child = ref.atoms_of(child)
                if atoms_child.size == 0:
                    assert np.all(pv == 0.0)
                    continue
                expected = np.zeros(mu.atom_count)
                expected[atoms_child] = 1.0
                frac = ref.mass_of(child) / ref.mass_of(cube)
                expected[ref.atoms_of(cube)] -= frac
                assert np.allclose(pv, expected, rtol=0, atol=1e-14)
                assert abs(integrate(mu, pv)) <= 1e-14


def test_phi_zero_mass_child_is_zero():
    ctx = four_atom_context()
    ref = RefIndex(ctx.measure, ctx.system)
    cube = ctx.system.cube(-2, (0,))      # [0, 0.25): child [0.125, 0.25) empty
    kids = cube.children()
    empty = [i for i, c in enumerate(kids) if ref.atoms_of(c).size == 0]
    assert empty
    assert np.all(phi(ctx, cube, empty[0]) == 0.0)


def test_phi_expansion_and_bounds():
    ctx = rich_context()
    ref = RefIndex(ctx.measure, ctx.system)
    mu = ctx.measure
    delta = ctx.delta
    rng = np.random.default_rng(6)
    f = rng.normal(size=mu.atom_count)
    for k in ctx.diff_scales:
        for cube in ctx.index.occupied(k):
            dq = adapted_diff_local(ctx, f, cube)
            combo = np.zeros(mu.atom_count)
            # phi of an empty child is zero (test_phi_zero_mass_child_is_zero)
            for i, child in ref.occupied_children(cube):
                mass = ref.mass_of(child)
                pv = phi(ctx, cube, i)
                combo += integrate(mu, f, ref.atoms_of(child)) / mass * pv
                assert np.max(np.abs(pv)) <= 2.0 / delta ** 2 + 1e-12
                assert abs(integrate(mu, pv)) <= 1e-12 * max(ref.mass_of(cube), 1.0)
                l1 = float(np.dot(mu.weights, np.abs(pv)))
                assert l1 <= 2.0 / delta ** 2 * mass + 1e-12
            assert np.max(np.abs(dq - combo)) <= 1e-12 * max(np.max(np.abs(f)), 1.0)


def test_omega_vanishes_without_layer_transition():
    ctx = rich_context()
    for k in ctx.diff_scales:
        om = omega(ctx, k)
        off = ~ctx.chi_mask(k - 1)
        assert np.all(om[off] == 0.0)
        if not np.any(ctx.chi_mask(k - 1)):
            assert np.all(om == 0.0)


def test_omega_conditional_mean_zero_and_sup():
    ctx = rich_context()
    delta = ctx.delta
    for k in ctx.diff_scales:
        om = omega(ctx, k)
        assert np.max(np.abs(expectation(ctx, om, k - 1))) <= 1e-12
        assert np.max(np.abs(om)) <= delta ** -2 + delta ** -4 + 1e-12


def test_omega_local_l1_bounds():
    ctx = rich_context()
    ref = RefIndex(ctx.measure, ctx.system)
    mu = ctx.measure
    delta = ctx.delta
    bound = delta ** -2 + delta ** -4
    for k in ctx.diff_scales:
        om = omega(ctx, k)
        for cube in ctx.index.occupied(k):
            om_q = restrict(om, ref.atoms_of(cube))
            assert float(np.dot(mu.weights, np.abs(om_q))) <= \
                bound * ref.mass_of(cube) + 1e-12
            for child in cube.children():
                om_qi = restrict(om, ref.atoms_of(child))
                assert float(np.dot(mu.weights, np.abs(om_qi))) <= \
                    bound * ref.mass_of(child) + 1e-12


def test_projection_square_identity():
    ctx = rich_context()
    rng = np.random.default_rng(7)
    f = rng.normal(size=ctx.measure.atom_count)
    for k in ctx.diff_scales:
        lhs = adapted_diff(ctx, adapted_diff(ctx, f, k), k)
        rhs = adapted_diff(ctx, f, k) + omega(ctx, k) * expectation(ctx, f, k)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(f))


def test_local_projection_square_identity():
    ctx = rich_context()
    ref = RefIndex(ctx.measure, ctx.system)
    rng = np.random.default_rng(8)
    f = rng.normal(size=ctx.measure.atom_count)
    for k in ctx.diff_scales:
        om, ef = omega(ctx, k), expectation(ctx, f, k)
        for cube in ctx.index.occupied(k):
            atoms = ref.atoms_of(cube)
            dq = adapted_diff_local(ctx, f, cube)
            lhs = adapted_diff_local(ctx, dq, cube)
            rhs = dq + restrict(om, atoms) * restrict(ef, atoms)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(f))


def test_equal_set_averages_agree():
    ctx = rich_context()
    for k in ctx.diff_scales:
        eq = ~ctx.chi_mask(k - 1)
        lhs = expectation(ctx, ctx.b_adapted[k - 1], k - 1)
        rhs = expectation(ctx, ctx.b_adapted[k], k - 1)
        assert np.max(np.abs((lhs - rhs)[eq])) == 0.0


def test_local_diff_support_and_locality():
    # D_Q depends only on f inside Q and is supported inside Q
    ctx = rich_context()
    ref = RefIndex(ctx.measure, ctx.system)
    rng = np.random.default_rng(9)
    f = rng.normal(size=ctx.measure.atom_count)
    k = list(ctx.diff_scales)[len(list(ctx.diff_scales)) // 2]
    for cube in ctx.index.occupied(k):
        atoms = ref.atoms_of(cube)
        outside = np.setdiff1d(np.arange(ctx.measure.atom_count), atoms)
        dq = adapted_diff_local(ctx, f, cube)
        assert np.all(dq[outside] == 0.0)
        g = f.copy()
        g[outside] += rng.normal(size=outside.size)
        assert np.allclose(adapted_diff_local(ctx, g, cube)[atoms], dq[atoms],
                           rtol=0, atol=1e-12)


# =============================================================================
# Adjoints
# =============================================================================

def test_indicator_adjoint_is_self():
    ctx = indicator_context()
    rng = np.random.default_rng(10)
    g = rng.normal(size=ctx.measure.atom_count)
    for k in ctx.diff_scales:
        assert np.allclose(adapted_diff_adjoint(ctx, g, k), diff(ctx, g, k),
                           rtol=0, atol=1e-13)


def test_adjoint_duality_random_pairs():
    ctx = rich_context()
    mu = ctx.measure
    rng = np.random.default_rng(11)
    for _ in range(100):
        f = rng.normal(size=mu.atom_count)
        g = rng.normal(size=mu.atom_count)
        k = rng.choice(list(ctx.diff_scales))
        lhs = pair(mu, adapted_diff_adjoint(ctx, g, k), f)
        rhs = pair(mu, g, adapted_diff(ctx, f, k))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_adjoint_expectation_duality():
    ctx = rich_context()
    mu = ctx.measure
    rng = np.random.default_rng(12)
    f = rng.normal(size=mu.atom_count)
    g = rng.normal(size=mu.atom_count)
    for k in ctx.scales:
        lhs = pair(mu, adapted_adjoint_expectation(ctx, g, k), f)
        rhs = pair(mu, g, adapted_expectation(ctx, f, k))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_adjoint_matches_weighted_transpose():
    ctx = rich_context(atoms=32)
    mu = ctx.measure
    k = list(ctx.diff_scales)[2]
    mat = adapted_diff_matrix(ctx, k)
    adj = weighted_adjoint(mu, mat)
    direct = np.column_stack([adapted_diff_adjoint(ctx, e, k)
                              for e in np.eye(mu.atom_count)])
    assert np.max(np.abs(adj - direct)) <= 1e-12


def _ref_expectation_matrix(ctx, k):
    """The dense matrix of E_k, filled cube by cube."""
    ref = RefIndex(ctx.measure, ctx.system)
    n = ctx.measure.atom_count
    out = np.zeros((n, n))
    w = ctx.measure.weights
    for cube in ctx.index.occupied(k):
        atoms = ref.atoms_of(cube)
        out[np.ix_(atoms, atoms)] = w[atoms][None, :] / ref.mass_of(cube)
    return out


def _ref_adapted_diff_matrix(ctx, k):
    def adapted(j):
        ratio = ctx.b_adapted[j] / ctx.eb_adapted[j]
        return ratio[:, None] * _ref_expectation_matrix(ctx, j)
    return adapted(k - 1) - adapted(k)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dimension", [1, 2])
def test_row_block_matrices_match_dense(dimension):
    # a row block of each matrix, and the matching column block of the
    # weighted adjoint, hold the dense matrices' bits entry by entry
    mu = battery_measure(5, dimension, 48)
    params = DyadicParams(gamma=0.4, r=2, alpha=1.0, d=0.25)
    index = locate(mu, build_random_system(6, mu, params))
    sys_b = generate_accretive(7, mu, index, 0.4, "signed-perturbation")
    ctx = MartingaleContext(mu, index, sys_b, build_layers(sys_b, mu, index))
    n = mu.atom_count
    blocks = [slice(0, 1), slice(1, 17), slice(17, n), np.array([40, 3, 3, 47])]
    for k in ctx.diff_scales:
        assert _same_bits(expectation_matrix(ctx, k), _ref_expectation_matrix(ctx, k))
        dense = adapted_diff_matrix(ctx, k)
        assert _same_bits(dense, _ref_adapted_diff_matrix(ctx, k))
        adj = weighted_adjoint(mu, dense)
        for rows in blocks:
            block = adapted_diff_matrix(ctx, k, rows)
            assert _same_bits(block, dense[rows])
            assert _same_bits(expectation_matrix(ctx, k, rows),
                              expectation_matrix(ctx, k)[rows])
            assert _same_bits(weighted_adjoint(mu, block, rows), adj[:, rows])


# =============================================================================
# Reconstruction
# =============================================================================

def test_reconstruct_top_term_fixed_point():
    ctx = rich_context()
    f = ctx.b_adapted[ctx.system.s].copy()   # the top test function itself
    rec = reconstruct(ctx, f)
    assert np.max(np.abs(sum(rec.diff_terms.values()))) <= 1e-12
    assert rec.residual <= 1e-12


def test_reconstruct_indicator_classical():
    ctx = indicator_context()
    rng = np.random.default_rng(13)
    f = rng.normal(size=ctx.measure.atom_count)
    assert reconstruct(ctx, f).residual <= 1e-14


def test_reconstruct_rich_fixture():
    ctx = rich_context(atoms=64)
    rng = np.random.default_rng(14)
    f = rng.normal(size=ctx.measure.atom_count)
    rec = reconstruct(ctx, f)
    assert rec.residual <= 1e-10
    assert all(k > ctx.system.k_min for k in rec.diff_terms)


def test_vector_valued_coordinatewise():
    ctx = rich_context()
    rng = np.random.default_rng(15)
    f = rng.normal(size=(ctx.measure.atom_count, 3))
    for k in list(ctx.diff_scales)[:3]:
        full = adapted_diff(ctx, f, k)
        for j in range(3):
            assert np.allclose(full[:, j], adapted_diff(ctx, f[:, j], k),
                               rtol=0, atol=0)
    rec = reconstruct(ctx, f)
    assert rec.residual <= 1e-10

