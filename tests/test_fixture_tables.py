"""The table-driven fixture builders against cube-by-cube references.

The ``_ref_*`` builders below build a fixture pair one cube at a time, from
``Cube`` objects, cube keys and n-length vectors.  The grid index, the
accretive values, the layers and the martingale context built from the
per-scale tables of ``GridIndex`` must equal theirs exactly: the same
floats, keys and orders, and the same generator state afterwards.
"""
import math

import numpy as np
import pytest

from dyadlab import accretive as acc
from dyadlab import grid as gr
from dyadlab._seeds import rng_for
from dyadlab.accretive import AccretiveSystem, Layers, build_layers, generate_accretive
from dyadlab.fixtures import battery_measure, battery_params, build_fixture_pair, \
    decoupling_blocks
from dyadlab.grid import build_random_system, locate, standard_system
from dyadlab.martingale import MartingaleContext
from dyadlab.measure import generate_random_measure
from dyadlab.randnorms import DecouplingBlock

from reference_index import RefIndex


# =============================================================================
# Cube-by-cube references
# =============================================================================

def _ref_as_function(values, ref, cube):
    out = np.zeros(ref.measure.atom_count)
    out[ref.atoms_of(cube)] = values[cube.key]
    return out


def _ref_verify(values, delta, mu, ref):
    sup_bad, mean_bad, margins = [], [], {}
    for k in ref.system.scales:
        for cube in ref.cubes[k]:
            atoms, vals = ref.atoms_of(cube), values[cube.key]
            if np.max(np.abs(vals)) > 1.0 + 1e-12:
                sup_bad.append(cube.key)
            mean = float(np.dot(mu.weights[atoms], vals)) / ref.mass_of(cube)
            margins[cube.key] = abs(mean) - delta
            if abs(mean) < delta * (1.0 - 1e-12) - 1e-12:
                mean_bad.append(cube.key)
    return sup_bad, mean_bad, margins


def _ref_small_descendant(rng, ref, cube, delta):
    limit = 0.5 * (1.0 - delta) * ref.mass_of(cube)
    pool = []
    stack = [c for _, c in ref.occupied_children(cube)]
    while stack:
        q = stack.pop()
        if ref.mass_of(q) <= limit:
            pool.append(q)
        else:
            stack.extend(c for _, c in ref.occupied_children(q))
    if not pool:
        return None
    return pool[int(rng.integers(0, len(pool)))]


def _ref_signed_perturbation(rng, mu, ref, cube, delta):
    atoms = ref.atoms_of(cube)
    vals = np.ones(atoms.size)
    w = mu.weights[atoms]
    mass = ref.mass_of(cube)
    if atoms.size > 1:
        jitter = rng.uniform(-0.35, 0.35, size=atoms.size)
        for _ in range(12):
            trial = np.clip(vals + jitter, -1.0, 1.0)
            if abs(np.dot(w, trial)) >= (delta + 0.05 * (1 - delta)) * mass:
                vals = trial
                break
            jitter *= 0.5
        target = _ref_small_descendant(rng, ref, cube, delta)
        if target is not None:
            local = np.searchsorted(atoms, ref.atoms_of(target))
            damped = vals.copy()
            damped[local] = delta ** 2 / 4.0
            if abs(np.dot(w, damped)) >= delta * mass:
                vals = damped
    return np.clip(vals, -1.0, 1.0)


def _ref_oscillatory(rng, mu, ref, cube, delta):
    atoms = ref.atoms_of(cube)
    if atoms.size == 1:
        return np.ones(1)
    w = mu.weights[atoms]
    mass = ref.mass_of(cube)
    theta_dir = rng.normal(size=mu.dimension)
    theta_dir /= max(np.max(np.abs(theta_dir)), 1e-12)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    osc = np.cos(2.0 * math.pi * (mu.positions[atoms] @ theta_dir) / cube.side + phase)

    def mean_at(bias):
        return float(np.dot(w, np.clip(0.5 * osc + bias, -1.0, 1.0))) / mass

    lo, hi = 0.0, 1.0
    target = min(1.0, delta + 0.05 * (1.0 - delta))
    if mean_at(hi) < target:
        return np.ones(atoms.size)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) >= target:
            hi = mid
        else:
            lo = mid
    return np.clip(0.5 * osc + hi, -1.0, 1.0)


def _ref_generate(seed, mu, ref, delta, style):
    rng = rng_for(seed, f"accretive:{style}:{delta}")
    values = {}
    for k in ref.system.scales:
        for cube in ref.cubes[k]:
            if style == "indicator":
                values[cube.key] = np.ones(ref.atoms_of(cube).size)
            elif style == "signed-perturbation":
                values[cube.key] = _ref_signed_perturbation(rng, mu, ref, cube, delta)
            else:
                values[cube.key] = _ref_oscillatory(rng, mu, ref, cube, delta)
    return values, rng


def _ref_build_layers(values, delta, mu, ref):
    delta2 = delta ** 2
    top = ref.system.top_cube()
    generations = [[top.key]]
    current = [top]
    while current:
        next_gen = []
        for parent_cube in current:
            b_full = _ref_as_function(values, ref, parent_cube)
            frontier = [c for _, c in ref.occupied_children(parent_cube)]
            while frontier:
                q = frontier.pop()
                atoms = ref.atoms_of(q)
                integral = float(np.dot(mu.weights[atoms], b_full[atoms]))
                if abs(integral) < delta2 * ref.mass_of(q):
                    next_gen.append(q)
                else:
                    frontier.extend(c for _, c in ref.occupied_children(q))
        if not next_gen:
            break
        generations.append([q.key for q in next_gen])
        current = next_gen
    return generations, _ref_ancestor_map(ref, generations)


def _ref_ancestor_map(ref, generations):
    layer_set = {k for gen in generations for k in gen}
    system = ref.system
    top_key = system.top_cube().key
    ancestor = {top_key: top_key}
    for k in reversed(range(system.k_min, system.s)):
        for cube in ref.cubes[k]:
            if cube.key in layer_set:
                ancestor[cube.key] = cube.key
            else:
                ancestor[cube.key] = ancestor[cube.parent().key]
    return ancestor


def _ref_decoupling_blocks(ref, rng, max_blocks):
    candidates = []
    for k in ref.system.scales:
        if k == ref.system.k_min:
            continue
        for cube in ref.cubes[k]:
            cells = [ref.atoms_of(c) for _, c in ref.occupied_children(cube)]
            candidates.append((len(cells), k, cube, cells))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2].key))
    chosen_scales = sorted({k for ncells, k, _, _ in candidates[:max_blocks]
                            if ncells > 1}) or [candidates[0][1]]
    blocks = []
    for ncells, k, cube, cells in candidates:
        if k not in chosen_scales[:2] or len(blocks) >= max_blocks:
            continue
        vals = np.zeros(ref.measure.atom_count)
        for cell in cells:
            vals[cell] = rng.normal()
        blocks.append(DecouplingBlock(k, ref.atoms_of(cube), vals, cells=cells))
    return blocks


def _ref_average_by_cube(values, ref, k):
    w = ref.measure.weights
    cid = np.empty(ref.measure.atom_count, dtype=np.int64)
    for i, atoms in enumerate(ref.atoms[k]):
        cid[atoms] = i
    mass = ref.masses[k]
    columns = values.reshape(values.shape[0], -1)
    out = np.empty_like(columns)
    for j in range(columns.shape[1]):
        sums = np.bincount(cid, weights=w * columns[:, j], minlength=mass.size)
        out[:, j] = (sums / mass)[cid]
    return out.reshape(values.shape)


def _ref_context(values, layers, mu, ref):
    n = mu.atom_count
    top_key = ref.system.top_cube().key
    layer_set = {key for gen in layers.generations for key in gen}
    b_adapted, eb_adapted, chi = {}, {}, {}
    for k in ref.system.scales:
        b_k = np.empty(n)
        chi_k = np.zeros(n, dtype=bool)
        for cube in ref.cubes[k]:
            atoms = ref.atoms_of(cube)
            anc = ref.system.cube(*layers.ancestor[cube.key])
            b_k[atoms] = _ref_as_function(values, ref, anc)[atoms]
            if cube.key in layer_set and cube.key != top_key:
                chi_k[atoms] = True
        b_adapted[k], chi[k] = b_k, chi_k
        eb_adapted[k] = _ref_average_by_cube(b_k, ref, k)
    return b_adapted, eb_adapted, chi


# =============================================================================
# Cases
# =============================================================================

def _measure(dimension, n):
    if n <= 2:      # the battery layout places at least one atom per cluster
        return generate_random_measure(4, dimension, 0.25, n, "uniform")
    return battery_measure(11, dimension, n)


def _system(mu, grids, seed=3):
    params = battery_params(4)
    if grids == "standard":
        return standard_system(mu, params)
    return build_random_system(seed, mu, params)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SIZES = [1, 2, 64, 300, 512]


@pytest.mark.parametrize("grids", ["standard", "random"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dimension", [1, 2])
def test_grid_index_tables_match_reference(dimension, n, grids):
    mu = _measure(dimension, n)
    system = _system(mu, grids)
    index, ref = locate(mu, system), RefIndex(mu, system)
    assert mu.atom_count == n or n <= 2
    for k in system.scales:
        keys = [c.key for c in ref.cubes[k]]
        assert index.cube_keys(k) == keys
        assert _same(index.masses(k), ref.masses[k])
        order, starts = index.atom_order(k), index.atom_starts(k)
        assert [order[a:b].tolist() for a, b in zip(starts[:-1], starts[1:])] == \
            [a.tolist() for a in ref.atoms[k]]
        starts, kids, corners = index.child_table(k)
        below = index.cube_keys(k - 1) if k > system.k_min else []
        for p, cube in enumerate(ref.cubes[k]):
            row = slice(starts[p], starts[p + 1])
            assert [(i, below[c]) for i, c in zip(corners[row].tolist(), kids[row].tolist())] \
                == [(i, c.key) for i, c in ref.occupied_children(cube)]
            assert index.position(cube.key) == p
            assert _same(index.atoms_at(k, p), ref.atoms_of(cube))
        if k < system.s:
            above = {c.key: i for i, c in enumerate(ref.cubes[k + 1])}
            assert index.parents(k).tolist() == [above[c.parent().key] for c in ref.cubes[k]]


@pytest.mark.parametrize("style", ["indicator", "signed-perturbation", "oscillatory"])
@pytest.mark.parametrize("grids", ["standard", "random"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dimension", [1, 2])
def test_fixture_tables_match_reference(dimension, n, grids, style):
    mu = _measure(dimension, n)
    system = _system(mu, grids)
    index, ref = locate(mu, system), RefIndex(mu, system)
    delta, seed = 0.5, 17

    sys_b = generate_accretive(seed, mu, index, delta, style)
    want, ref_rng = _ref_generate(seed, mu, ref, delta, style)
    assert list(sys_b.values) == list(want)
    assert all(_same(sys_b.values[key], want[key]) for key in want)
    rng = rng_for(seed, f"accretive:{style}:{delta}")
    with pytest.MonkeyPatch.context() as mp:   # the generator the build used
        mp.setattr(acc, "rng_for", lambda *a: rng)
        generate_accretive(seed, mu, index, delta, style)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    report = acc.verify_accretive(sys_b, mu, index)
    sup_bad, mean_bad, margins = _ref_verify(want, delta, mu, ref)
    assert (report.sup_violations, report.mean_violations) == (sup_bad, mean_bad)
    assert list(report.margins.items()) == list(margins.items())

    layers = build_layers(sys_b, mu, index)
    generations, ancestor = _ref_build_layers(want, delta, mu, ref)
    assert layers.generations == generations
    assert list(layers.ancestor.items()) == list(ancestor.items())

    ctx = MartingaleContext(mu, index, sys_b, layers)
    b_adapted, eb_adapted, chi = _ref_context(want, layers, mu, ref)
    for k in system.scales:
        assert _same(ctx.b_adapted[k], b_adapted[k])
        assert _same(ctx.eb_adapted[k], eb_adapted[k])
        assert _same(ctx.chi[k], chi[k])


@pytest.mark.parametrize("max_blocks", [1, 4, 10])
@pytest.mark.parametrize("grids", ["standard", "random"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dimension", [1, 2])
def test_decoupling_blocks_match_reference(dimension, n, grids, max_blocks):
    mu = _measure(dimension, n)
    system = _system(mu, grids)
    index, ref = locate(mu, system), RefIndex(mu, system)
    rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
    blocks = decoupling_blocks(index, rng, max_blocks)
    want = _ref_decoupling_blocks(ref, ref_rng, max_blocks)
    assert [b.scale for b in blocks] == [b.scale for b in want]
    for got, ref_block in zip(blocks, want):
        assert _same(got.atoms, ref_block.atoms) and _same(got.values, ref_block.values)
        assert len(got.cells) == len(ref_block.cells)
        assert all(_same(a, b) for a, b in zip(got.cells, ref_block.cells))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("dimension, profile", [(1, "uniform"), (2, "battery")])
def test_stopping_scan_orders_several_parents(dimension, profile):
    # generations of many cubes: the next one lists their stopping cubes
    # parent by parent, as the cube-by-cube scan does
    if profile == "battery":
        mu = battery_measure(5, dimension, 128)
    else:
        mu = generate_random_measure(5, dimension, 0.5 * dimension, 128, profile)
    system = _system(mu, "random", seed=8)
    index, ref = locate(mu, system), RefIndex(mu, system)
    sys_b = generate_accretive(2, mu, index, 0.9, "signed-perturbation")
    layers = build_layers(sys_b, mu, index)
    assert max(len(gen) for gen in layers.generations) > 20
    generations, ancestor = _ref_build_layers(sys_b.values, 0.9, mu, ref)
    assert layers.generations == generations
    assert list(layers.ancestor.items()) == list(ancestor.items())
    ctx = MartingaleContext(mu, index, sys_b, layers)
    b_adapted, eb_adapted, chi = _ref_context(sys_b.values, layers, mu, ref)
    for k in system.scales:
        assert _same(ctx.b_adapted[k], b_adapted[k]) and _same(ctx.chi[k], chi[k])
        assert _same(ctx.eb_adapted[k], eb_adapted[k])


def test_average_by_cube_columns_match_one_column_at_a_time():
    mu = battery_measure(11, 1, 300)
    index = locate(mu, _system(mu, "random"))
    sys_b = generate_accretive(17, mu, index, 0.5, "signed-perturbation")
    ctx = MartingaleContext(mu, index, sys_b, build_layers(sys_b, mu, index))
    block = np.random.default_rng(0).normal(size=(mu.atom_count, 5))
    ref = RefIndex(mu, index.system)
    for k in index.system.scales:
        got = ctx._average_by_cube(block, k)
        assert got.flags.c_contiguous
        assert _same(got, _ref_average_by_cube(block, ref, k))
        assert all(_same(got[:, j], ctx._average_by_cube(block[:, j].copy(), k))
                   for j in range(block.shape[1]))


def test_context_reads_a_replaced_ancestor_map():
    # the context follows layers.ancestor as given, also where it names a
    # cube that is no layer cube
    mu = battery_measure(11, 1, 64)
    system = _system(mu, "random")
    index, ref = locate(mu, system), RefIndex(mu, system)
    sys_b = generate_accretive(17, mu, index, 0.5, "indicator")
    layers = build_layers(sys_b, mu, index)
    ancestor = dict(layers.ancestor)
    k = system.k_min + 2
    for cube in index.occupied(k):
        ancestor[cube.key] = cube.parent().key
    replaced = Layers(layers.generations, ancestor)
    ctx = MartingaleContext(mu, index, sys_b, replaced)
    b_adapted, _, _ = _ref_context(sys_b.values, replaced, mu, ref)
    assert all(_same(ctx.b_adapted[j], b_adapted[j]) for j in system.scales)


# =============================================================================
# No per-cube lookups in the pair build
# =============================================================================

def test_build_fixture_pair_makes_no_per_cube_lookups(monkeypatch):
    """Call-count guard: building a pair and its decoupling blocks reads the
    grid index tables only.

    Any call below during ``build_fixture_pair`` or ``decoupling_blocks``
    means a per-cube lookup (a ``Cube`` object, its key, an atom list or an
    n-length vector) crept back into the build.
    """
    calls = {}

    def counted(owner, name):
        attr = owner.__dict__[name]
        if isinstance(attr, property):
            def fget(self, _get=attr.fget):
                calls[name] = calls.get(name, 0) + 1
                return _get(self)
            monkeypatch.setattr(owner, name, property(fget))
        else:
            def wrapper(*args, _fn=attr, **kw):
                calls[name] = calls.get(name, 0) + 1
                return _fn(*args, **kw)
            monkeypatch.setattr(owner, name, wrapper)

    for owner, names in ((gr.GridIndex, ("occupied",)),
                         (gr.Cube, ("key", "__init__", "children", "parent")),
                         (AccretiveSystem, ("as_function",)),
                         (MartingaleContext, ("b_anc",))):
        for name in names:
            counted(owner, name)
    mu = battery_measure(11, 2, 64)
    for grids in ("standard", "random"):
        pairf = build_fixture_pair(5, mu, battery_params(4), 0.5, "signed-perturbation",
                                   grids=grids)
        decoupling_blocks(pairf.index_f, np.random.default_rng(0), 10)
    assert calls == {}
