import json

import numpy as np
import pytest

from dyadlab.measure import AtomicMeasure, generate_random_measure
from dyadlab.grid import DyadicParams, locate, standard_system, build_random_system
from dyadlab.accretive import (AccretiveSystem, build_layers, check_layer_decay,
                               dumps_accretive, generate_accretive,
                               layer_decay_report, layer_decay_tau, loads_accretive,
                               overlap_l1_bound, verify_accretive)
from dyadlab.fixtures import battery_measure


def four_atom_fixture(delta=0.5):
    """Four unit atoms at 0.1, 0.3, 0.6, 0.9 with b on [0,1) = (1, 1, 1, -0.6)."""
    mu = AtomicMeasure(1, 1.0, np.array([[0.1], [0.3], [0.6], [0.9]]), np.ones(4))
    params = DyadicParams(gamma=0.2, r=2, alpha=1.0, d=1.0)
    system = standard_system(mu, params, window=(-3, 0))
    index = locate(mu, system)
    values = {}
    for k in system.scales:
        for p, key in enumerate(index.cube_keys(k)):
            values[key] = np.ones(index.atoms_at(k, p).size)
    values[(0, (0,))] = np.array([1.0, 1.0, 1.0, -0.6])
    return mu, index, AccretiveSystem(delta, values)


def indicator_fixture(seed=3, delta=0.9, atoms=16):
    mu = generate_random_measure(seed, 1, 1.0, atoms, "uniform")
    params = DyadicParams(gamma=0.2, r=2, alpha=1.0, d=1.0)
    system = standard_system(mu, params)
    index = locate(mu, system)
    sys_b = generate_accretive(1, mu, index, delta, "indicator")
    return mu, index, sys_b


# =============================================================================
# Verification
# =============================================================================

def test_indicator_system_passes_any_delta():
    mu, index, sys_b = indicator_fixture(delta=0.999)
    report = verify_accretive(sys_b, mu, index)
    assert report.passed
    # the indicator has cube mean exactly one
    assert report.worst_margin() == pytest.approx(1.0 - 0.999)


def test_zero_test_function_fails_mean_bound():
    mu, index, sys_b = indicator_fixture(delta=0.5)
    key = index.occupied(index.system.k_min)[0].key
    sys_b.values[key] = np.zeros_like(sys_b.values[key])
    report = verify_accretive(sys_b, mu, index)
    assert not report.passed and key in report.mean_violations


def test_four_atom_mean_bound():
    mu, index, sys_b = four_atom_fixture(delta=0.5)
    report = verify_accretive(sys_b, mu, index)
    assert report.passed
    # |integral| = 2.4 over mass 4 at delta = 0.5
    assert report.margins[(0, (0,))] == pytest.approx(2.4 / 4.0 - 0.5)


def test_missing_test_function_is_error():
    mu, index, sys_b = indicator_fixture()
    del sys_b.values[index.occupied(index.system.k_min)[0].key]
    with pytest.raises(KeyError):
        verify_accretive(sys_b, mu, index)


def test_sup_bound_violation_detected():
    mu, index, sys_b = four_atom_fixture()
    sys_b.values[(0, (0,))] = np.array([1.5, 1.0, 1.0, -0.6])
    report = verify_accretive(sys_b, mu, index)
    assert (0, (0,)) in report.sup_violations


# =============================================================================
# Layers
# =============================================================================

def test_indicator_has_no_stopping():
    mu, index, sys_b = indicator_fixture(delta=0.9)
    layers = build_layers(sys_b, mu, index)
    assert len(layers.generations) == 1


def test_four_atom_first_layer():
    mu, index, sys_b = four_atom_fixture(delta=0.5)
    layers = build_layers(sys_b, mu, index)
    # right child [0.5, 1): |int b| = 0.4 < 0.25 * mass 2 = 0.5
    assert layers.generations[1] == [(-1, (1,))]
    assert len(layers.generations) == 2


def test_four_atom_ancestor_assignment():
    mu, index, sys_b = four_atom_fixture(delta=0.5)
    layers = build_layers(sys_b, mu, index)
    system = index.system
    # every occupied cube strictly inside [0.5, 1) maps to it
    for k in (-3, -2):
        for cube in index.occupied(k):
            if cube.lower[0] >= 0.5:
                assert layers.ancestor[cube.key] == (-1, (1,))
            else:
                assert layers.ancestor[cube.key] == system.top_cube().key
    assert layers.ancestor[(-1, (1,))] == (-1, (1,))


def test_ancestor_isolation_bound_everywhere():
    mu = battery_measure(9, 1, 32)
    params = DyadicParams(gamma=0.4, r=2, alpha=1.0, d=0.25)
    system = build_random_system(5, mu, params)
    index = locate(mu, system)
    delta = 0.4
    sys_b = generate_accretive(7, mu, index, delta, "signed-perturbation")
    layers = build_layers(sys_b, mu, index)
    for k in system.scales:
        for p, cube in enumerate(index.occupied(k)):
            anc = system.cube(*layers.ancestor[cube.key])
            atoms = index.atoms_at(k, p)
            integral = float(np.dot(mu.weights[atoms],
                                    sys_b.as_function(index, anc)[atoms]))
            assert abs(integral) >= delta ** 2 * index.masses(k)[p] - 1e-12


def test_layer_decay_four_atom_value():
    mu, index, sys_b = four_atom_fixture(delta=0.5)
    layers = build_layers(sys_b, mu, index)
    report = layer_decay_report(layers, mu, index)
    top_rows = [r for r in report["rows"] if r["layer"] == 0 and r["j"] == 1]
    assert len(top_rows) == 1
    assert top_rows[0]["ratio"] == pytest.approx(0.5)
    assert top_rows[0]["ratio"] <= 1.0 / (1.0 + 0.5)


def test_layer_decay_no_stopping_all_zero():
    mu, index, sys_b = indicator_fixture(delta=0.9)
    layers = build_layers(sys_b, mu, index)
    report = layer_decay_report(layers, mu, index)
    assert all(r["ratio"] == 0.0 for r in report["rows"])


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.8])
def test_layer_decay_bound_generated(delta):
    mu = battery_measure(21, 1, 32)
    params = DyadicParams(gamma=0.4, r=2, alpha=1.0, d=0.25)
    system = build_random_system(17, mu, params)
    index = locate(mu, system)
    sys_b = generate_accretive(23, mu, index, delta, "signed-perturbation")
    layers = build_layers(sys_b, mu, index)
    ok, slack = check_layer_decay(layers, delta, mu, index)
    assert ok and slack >= 0.0


def test_overlap_l1_bound():
    mu, index, sys_b = four_atom_fixture(delta=0.5)
    layers = build_layers(sys_b, mu, index)
    total, bound = overlap_l1_bound(layers, 0.5, mu, index)
    assert total == pytest.approx(4.0 + 2.0)     # top cube mass + one stopping cube
    assert total <= bound
    assert layer_decay_tau(0.5) == pytest.approx(1.0 / 3.0)


def test_layer_generations_disjoint():
    mu = battery_measure(31, 2, 32)
    params = DyadicParams(gamma=0.4, r=2, alpha=1.0, d=0.25)
    system = build_random_system(19, mu, params)
    index = locate(mu, system)
    sys_b = generate_accretive(29, mu, index, 0.4, "signed-perturbation")
    layers = build_layers(sys_b, mu, index)
    seen = set()
    for gen in layers.generations:
        for key in gen:
            assert key not in seen
            seen.add(key)
        # cubes within one generation are pairwise disjoint
        cubes = [system.cube(*key) for key in gen]
        for a in range(len(cubes)):
            for b in range(a + 1, len(cubes)):
                la, ua = cubes[a].lower, cubes[a].upper
                lb, ub = cubes[b].lower, cubes[b].upper
                assert np.any(ua <= lb) or np.any(ub <= la)


# =============================================================================
# Generation styles
# =============================================================================

def test_generate_indicator_style():
    mu, index, sys_b = indicator_fixture(delta=0.25)
    for vals in sys_b.values.values():
        assert np.all(vals == 1.0)


def test_generate_deterministic():
    mu = generate_random_measure(3, 1, 1.0, 24, "uniform")
    params = DyadicParams(gamma=0.2, r=2, alpha=1.0, d=1.0)
    index = locate(mu, standard_system(mu, params))
    a = generate_accretive(5, mu, index, 0.4, "signed-perturbation")
    b = generate_accretive(5, mu, index, 0.4, "signed-perturbation")
    assert all(np.array_equal(a.values[k], b.values[k]) for k in a.values)


@pytest.mark.parametrize("style", ["signed-perturbation", "oscillatory"])
def test_generate_styles_verify(style):
    mu = battery_measure(13, 1, 64)
    params = DyadicParams(gamma=0.4, r=2, alpha=1.0, d=0.25)
    index = locate(mu, standard_system(mu, params))
    sys_b = generate_accretive(11, mu, index, 0.4, style)
    assert verify_accretive(sys_b, mu, index).passed


def test_signed_perturbation_has_nontrivial_layers():
    mu = battery_measure(13, 1, 64)
    params = DyadicParams(gamma=0.4, r=2, alpha=1.0, d=0.25)
    index = locate(mu, standard_system(mu, params))
    sys_b = generate_accretive(11, mu, index, 0.4, "signed-perturbation")
    layers = build_layers(sys_b, mu, index)
    assert len(layers.generations) > 1 and len(layers.generations[1]) >= 1


def test_unknown_style_rejected():
    mu, index, _ = indicator_fixture()
    with pytest.raises(ValueError, match="unknown style"):
        generate_accretive(1, mu, index, 0.5, "bogus")


# =============================================================================
# Fixture files
# =============================================================================

def test_accretive_roundtrip():
    mu, index, sys_b = four_atom_fixture()
    back = loads_accretive(dumps_accretive(sys_b))
    assert back.delta == sys_b.delta
    assert set(back.values) == set(sys_b.values)
    for key in sys_b.values:
        assert np.array_equal(back.values[key], sys_b.values[key])


def test_accretive_file_without_testing_bound():
    # files written before carry a "testing_bound" key; it is read past
    _, _, sys_b = four_atom_fixture()
    payload = json.loads(dumps_accretive(sys_b))
    assert "testing_bound" not in payload
    payload["testing_bound"] = 3.5
    back = loads_accretive(json.dumps(payload))
    assert back.delta == sys_b.delta and set(back.values) == set(sys_b.values)
