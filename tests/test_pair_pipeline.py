"""The array pair pipeline against per-pair references.

``PairClassifier.classify_block`` must give every pair the class the scalar
``classify`` gives it, and the ledger and the decay check, which pair cached
rows against stacked functions, must reproduce a per-pair evaluation of
(w psi) @ M @ phi with ``==``: same values, same sums, same row order.  The
stopping map, read from the block classes, must equal the map found by
walking each cube's containing chain.
"""
import csv
import io
import json
import math

import numpy as np
import pytest

import dyadlab.operator as operator
from dyadlab.fixtures import battery_measure, battery_params, build_fixture_pair
from dyadlab.grid import DyadicParams, contains, long_distance, set_distance
from dyadlab.harness import (ExperimentConfig, SuiteReport, _comparable_pairs,
                             emit_report, run_suite)
from dyadlab.martingale import adapted_diff, adapted_expectation
from dyadlab.measure import lp_norm, restrict
from dyadlab.operator import (PAIR_CLASSES, DiscreteOperator, GeometryError, PairClass,
                              PairClassifier, _class_matrix, _pair_menu,
                              chain_constant, decay_bound_check, kernel_by_name,
                              pairing_decomposition, paraproduct_smap)

from reference_index import RefIndex

FIXTURES = [(1, "standard"), (1, "random"), (2, "standard"), (2, "random")]


def _fixture(dim, grids, r=3, atoms=24, seed=5):
    mu = battery_measure(seed, dim, atoms)
    pairf = build_fixture_pair(seed, mu, battery_params(r), 0.5, grids=grids)
    kernel = kernel_by_name("hilbert" if dim == 1 else "riesz", mu.growth_exponent)
    return pairf, DiscreteOperator(kernel, mu)


def _scalar_code(classifier, q, r):
    try:
        return PAIR_CLASSES.index(classifier.classify(q, r))
    except GeometryError:
        return -1


def _element(op, psi, phi_vals):
    """<psi, T phi> as the one expression (w psi) @ M @ phi, product by product."""
    return float((op.measure.weights * psi) @ op.action @ phi_vals)


def _bilinear(op, g, f):
    if f.ndim == 1:
        return _element(op, g, f)
    total = 0.0           # coordinates added left to right
    for j in range(f.shape[1]):
        total += _element(op, g[:, j], f[:, j])
    return total


def _rows(table):
    """The rows of a column table as dicts of Python values."""
    columns = [col.tolist() if isinstance(col, np.ndarray) else col
               for col in table.values()]
    return [dict(zip(table, cells)) for cells in zip(*columns)]


# =============================================================================
# Classification
# =============================================================================

@pytest.mark.parametrize("dim,grids", FIXTURES)
def test_classify_block_equals_scalar_classify(dim, grids):
    pairf, _ = _fixture(dim, grids)
    block = PairClassifier(pairf.params)
    scalar = PairClassifier(pairf.params)
    seen = set()
    for small, large in ((pairf.index_f, pairf.index_g), (pairf.index_g, pairf.index_f)):
        for k in small.system.scales:
            for j in large.system.scales:
                if j < k:
                    continue
                qs, rs = small.occupied(k), large.occupied(j)
                codes = block.classify_block(qs, rs)
                want = [[_scalar_code(scalar, q, r) for r in rs] for q in qs]
                assert codes.tolist() == want
                seen.update(codes.ravel().tolist())
    assert {0, 1, 2, 3} <= seen


class _NeverBad(PairClassifier):
    """Every cube good: straddling deep pairs then match no class."""

    def _is_bad(self, q, other, r_scale):
        return False


@pytest.mark.parametrize("dim,grids", FIXTURES)
@pytest.mark.parametrize("kind", [PairClassifier, _NeverBad])
def test_classify_block_on_dense_cube_grids(dim, grids, kind):
    # every cube of a box at each scale, occupied or not: touching cubes,
    # gaps of exactly one side and shared faces all occur; without badness,
    # also good cubes on a face of a larger one
    pairf, _ = _fixture(dim, grids, r=4)
    sys_f, sys_g = pairf.index_f.system, pairf.index_g.system
    block = kind(pairf.params)
    scalar = kind(pairf.params)
    seen = set()

    def box(system, k, point, width):
        # the width^N cubes of scale k centred on the one holding the point
        corner = system.cube_index_at(point[None, :], k)[0] - width // 2
        return [system.cube(k, corner + np.array(offset))
                for offset in np.ndindex(*(width,) * dim)]

    for k in range(sys_f.k_min + 1, sys_f.s - 1):
        for j in range(k, min(k + 7, sys_g.s + 1)):
            rs = box(sys_g, j, np.full(dim, 1.0 / 3.0), 3)
            # the Q straddle a corner of the middle R
            qs = box(sys_f, k, rs[len(rs) // 2].lower, 6 if dim == 1 else 4)
            codes = block.classify_block(qs, rs)
            assert codes.tolist() == [[_scalar_code(scalar, q, r) for r in rs]
                                      for q in qs]
            seen.update(codes.ravel().tolist())
    assert {PAIR_CLASSES.index(cls) for cls in (
        PairClass.SEPARATED, PairClass.COMPARABLE)} <= seen


def test_unmatched_pairs_flagged_and_raised():
    pairf, _ = _fixture(1, "random")
    classifier = _NeverBad(pairf.params)
    unmatched = 0
    for k in pairf.ctx_f.diff_scales:
        for j in pairf.ctx_g.diff_scales:
            if j < k:
                continue
            qs, rs = pairf.index_f.occupied(k), pairf.index_g.occupied(j)
            codes = classifier.classify_block(qs, rs)
            want = [[_scalar_code(classifier, q, r) for r in rs] for q in qs]
            assert codes.tolist() == want
            unmatched += int(np.sum(codes == -1))
    assert unmatched > 0
    qs = [c for k in pairf.ctx_f.diff_scales for c in pairf.index_f.occupied(k)]
    rs = [c for k in pairf.ctx_g.diff_scales for c in pairf.index_g.occupied(k)]
    with pytest.raises(GeometryError, match="matches no class"):
        _class_matrix(classifier, rs, qs)


@pytest.mark.parametrize("dim,grids", FIXTURES)
def test_comparable_pairs_equal_scalar_scan(dim, grids):
    pairf, _ = _fixture(dim, grids)
    params = pairf.params
    classifier = PairClassifier(params)
    want = []
    for k in pairf.ctx_f.diff_scales:
        for q in pairf.index_f.occupied(k):
            for j in range(k, pairf.index_g.system.s + 1):
                for r in pairf.index_g.occupied(j):
                    if (2.0 ** (-params.r) * r.side <= q.side
                            and set_distance(q, r) < q.side
                            and classifier.classify(q, r) is PairClass.COMPARABLE):
                        want.append((q.key, r.key))
    got = [(q.key, r.key) for q, r in _comparable_pairs(pairf)]
    assert got == want and got


def test_run_scans_each_profile_once(monkeypatch):
    # every pair-class consumer of a fixture pair reads that pair's one
    # classifier, so no badness profile is scanned twice
    scan = operator.witness_scale
    scans, systems = [], []

    def counted(q, other, params):
        systems.append(other)       # pinned, so each id stays one system's
        scans.append((id(other), q.key))
        return scan(q, other, params)

    monkeypatch.setattr(operator, "witness_scale", counted)
    run_suite(ExperimentConfig(atom_count=16, mc_trials=20_000, seed=3,
                               suites=("matrix", "paraproduct", "comparable", "ledger")))
    assert scans and len(scans) == len(set(scans))


# =============================================================================
# Stopping map
# =============================================================================

def _reference_smap(ctx_f, other, params):
    """The stopping map by each cube's containing chain and a separate
    deeply-nested rule ``_chi``, one pair at a time."""
    classifier = PairClassifier(params)
    sys2 = other.system
    out = {}
    for k in ctx_f.diff_scales:
        for q_cube in ctx_f.index.occupied(k):
            chain = _containing_chain(q_cube, sys2)
            flags = [(r, _chi(classifier, params, q_cube, r)) for r in chain]
            qualifying = [r for r, ok in flags if ok]
            # monotonicity along the chain: once 1, always 1
            seen = False
            for r, ok in flags:
                if seen and not ok:
                    raise GeometryError("stopping indicator is not monotone "
                                        f"along the chain of {q_cube.key}")
                seen = seen or ok
            if not qualifying:
                out[q_cube.key] = None
                continue
            r_min = qualifying[0]
            host = [c for c in r_min.children() if contains(c, q_cube)]
            if len(host) != 1:
                raise GeometryError(f"no single child of {r_min.key} hosts "
                                    f"{q_cube.key}")
            out[q_cube.key] = host[0]
    return out


def _containing_chain(q_cube, sys2):
    chain = []
    for j in range(q_cube.scale, sys2.s + 1):
        r = sys2.cube_containing(q_cube.center, j)
        if contains(r, q_cube):
            chain.append(r)
    return chain


def _chi(classifier, params, q_cube, r_cube):
    if not q_cube.side < 2.0 ** (-params.r) * r_cube.side:
        return False
    if not contains(r_cube, q_cube):
        return False
    return not classifier.is_bad(q_cube, r_cube)


@pytest.mark.parametrize("dim,grids", FIXTURES)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_smap_equals_chain_reference(dim, grids, r):
    pairf, _ = _fixture(dim, grids, r=r)
    smap = paraproduct_smap(pairf.ctx_f, pairf.index_g, pairf.classifier)
    assert smap == _reference_smap(pairf.ctx_f, pairf.index_g, pairf.params)
    assert any(s is not None for s in smap.values())


@pytest.mark.parametrize("dim,grids", FIXTURES)
def test_smap_equals_chain_reference_past_the_window(dim, grids):
    # with r larger than the whole window no cube can be deeply nested
    pairf, _ = _fixture(dim, grids)
    deep_params = DyadicParams(gamma=0.4, r=30, alpha=1.0, d=0.25)
    smap = paraproduct_smap(pairf.ctx_f, pairf.index_g, PairClassifier(deep_params))
    assert smap == _reference_smap(pairf.ctx_f, pairf.index_g, deep_params)
    assert smap and all(s is None for s in smap.values())


# =============================================================================
# Ledger
# =============================================================================

def _reference_ledger(op, ctx_f, ctx_g, f, g, params):
    """Block by block: one full product per pair, one scalar class per pair."""
    def blocks(ctx, values):
        ref = RefIndex(ctx.measure, ctx.system)
        return [(cube, restrict(adapted_diff(ctx, values, k), ref.atoms_of(cube)))
                for k in ctx.diff_scales for cube in ctx.index.occupied(k)]

    classifier = PairClassifier(params)
    class_mass, rows, block_sum = {}, [], 0.0
    for r_cube, dg in blocks(ctx_g, g):
        for q_cube, df in blocks(ctx_f, f):
            val = _bilinear(op, dg, df)
            block_sum += val
            small, large = (q_cube, r_cube) if q_cube.side <= r_cube.side \
                else (r_cube, q_cube)
            name = classifier.classify(small, large).value
            class_mass[name] = class_mass.get(name, 0.0) + abs(val)
            rows.append({"q": q_cube.key, "r": r_cube.key, "class": name, "value": val,
                         "long_distance": long_distance(q_cube, r_cube)})
    top_f = adapted_expectation(ctx_f, f, ctx_f.system.s)
    top_g = adapted_expectation(ctx_g, g, ctx_g.system.s)
    return (block_sum, class_mass, rows, _bilinear(op, top_g, f - top_f),
            _bilinear(op, g, top_f), _bilinear(op, g, f))


def _bits(rows, key):
    return [math.copysign(1.0, row[key]) for row in rows]


@pytest.mark.parametrize("dim,grids", FIXTURES)
@pytest.mark.parametrize("coords", [None, 3])
def test_ledger_equals_per_pair_reference(dim, grids, coords):
    pairf, op = _fixture(dim, grids)
    rng = np.random.default_rng(17 + dim)
    shape = (pairf.measure.atom_count,) if coords is None \
        else (pairf.measure.atom_count, coords)
    f, g = rng.normal(size=shape), rng.normal(size=shape)
    led = pairing_decomposition(op, pairf.ctx_f, pairf.ctx_g, f, g, pairf.classifier)
    block_sum, class_mass, rows, small, large, total = _reference_ledger(
        op, pairf.ctx_f, pairf.ctx_g, f, g, pairf.params)
    assert led.block_sum == block_sum
    assert list(led.class_mass.items()) == list(class_mass.items())
    assert _rows(led.pair_table) == rows
    assert _bits(_rows(led.pair_table), "value") == _bits(rows, "value")
    assert (led.boundary_small, led.boundary_large) == (small, large)
    assert led.identity_residual == abs(total - (block_sum + small + large)) \
        / max(abs(total), 1e-30)
    assert op.bilinear(g, f) == total


# =============================================================================
# Decay check
# =============================================================================

def _reference_decay(op, ctx_f, ctx_g, params):
    """Every pair classified by ``classify``, every element its own product."""
    mu = op.measure
    c_chain = chain_constant(op.kernel, min(ctx_f.delta, ctx_g.delta))
    alpha, d = op.kernel.alpha, op.kernel.d
    classifier = PairClassifier(params)
    ref_g = RefIndex(mu, ctx_g.system)
    out = {"checked": 0, "failures": [], "worst": math.inf, "rows": []}

    def record(kind, q, r, val, bound, ddist):
        out["checked"] += 1
        if val > bound + 1e-14:
            out["failures"].append({"kind": kind, "q": q.key, "r": r.key,
                                    "value": val, "bound": bound})
        out["worst"] = min(out["worst"], bound / val if val > 0 else math.inf)
        out["rows"].append({"kind": kind, "lq": q.side, "lr": r.side, "D": ddist,
                            "value": val, "bound": bound})

    def l1(v):
        return lp_norm(mu, np.abs(v), 1.0)

    f_menu = _pair_menu(ctx_f)
    for r, psis in _pair_menu(ctx_g):
        for q, phis in f_menu:
            if q.side > r.side:
                continue
            cls = classifier.classify(q, r)
            ddist = long_distance(q, r)
            if cls is PairClass.SEPARATED:
                dist = set_distance(q, r)
                deep = q.side <= 2.0 ** (-params.r) * r.side
                for _, mass_rj, psi in psis:
                    for _, mass_qi, phi_vals in phis:
                        val = abs(_element(op, psi, phi_vals))
                        record("separated-smooth", q, r, val,
                               c_chain * q.side ** alpha / dist ** (d + alpha)
                               * l1(phi_vals) * l1(psi), ddist)
                        if deep:
                            record("separated-longdist", q, r, val,
                                   c_chain * q.side ** (alpha / 2.0)
                                   * r.side ** (alpha / 2.0) / ddist ** (d + alpha)
                                   * mass_qi * mass_rj, ddist)
            elif cls is PairClass.DEEP_NESTED:
                kids = r.children()
                host = [m for m, child in enumerate(kids) if contains(child, q)][0]
                mass_r = ref_g.mass_of(r)
                ratio = (q.side / r.side) ** (alpha / 2.0)
                for _, mass_rj, psi_full in psis:
                    for m, child in ref_g.occupied_children(r):
                        if m == host:
                            continue
                        psi = restrict(psi_full, ref_g.atoms_of(child))
                        for _, mass_qi, phi_vals in phis:
                            record("nested-offchild", q, r,
                                   abs(_element(op, psi, phi_vals)),
                                   c_chain * ratio * mass_rj * mass_qi / mass_r, ddist)
                comp = np.ones(mu.atom_count, dtype=bool)
                comp[ref_g.atoms_of(kids[host])] = False
                for src in (r, kids[host]):
                    psi = ctx_g.b_anc(src) * comp
                    for _, mass_qi, phi_vals in phis:
                        record("nested-complement", q, r,
                               abs(_element(op, psi, phi_vals)),
                               c_chain * ratio * mass_qi, ddist)
    return out


@pytest.mark.parametrize("dim,grids", FIXTURES)
def test_decay_check_equals_per_pair_reference(dim, grids):
    pairf, op = _fixture(dim, grids, r=2)
    res = decay_bound_check(op, pairf.ctx_f, pairf.ctx_g, pairf.classifier)
    ref = _reference_decay(op, pairf.ctx_f, pairf.ctx_g, pairf.params)
    assert res.checked == ref["checked"] > 0
    assert res.failures == ref["failures"]
    assert res.worst_margin == ref["worst"]
    assert _rows(res.table) == ref["rows"]
    kinds = set(res.table["kind"])
    assert {"separated-smooth", "nested-offchild", "nested-complement"} <= kinds


def _reference_csv(rows):
    """Dict rows as CSV bytes: repr for floats, JSON for cube keys."""
    def cell(v):
        if isinstance(v, float):
            return repr(float(v))
        return json.dumps(v) if isinstance(v, tuple) else v

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: cell(v) for k, v in row.items()})
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("dim,grids", FIXTURES)
def test_emitted_pair_tables_equal_reference_csv(dim, grids, tmp_path):
    pairf, op = _fixture(dim, grids, r=2)
    rng = np.random.default_rng(23 + dim)
    f, g = rng.normal(size=(2, pairf.measure.atom_count))
    led = pairing_decomposition(op, pairf.ctx_f, pairf.ctx_g, f, g, pairf.classifier)
    res = decay_bound_check(op, pairf.ctx_f, pairf.ctx_g, pairf.classifier)
    report = SuiteReport("0", 0, tables={"ledger_pairs": led.pair_table,
                                         "decay_pairs": res.table})
    emit_report(report, tmp_path)
    ledger_rows = _reference_ledger(op, pairf.ctx_f, pairf.ctx_g, f, g, pairf.params)[2]
    decay_rows = _reference_decay(op, pairf.ctx_f, pairf.ctx_g, pairf.params)["rows"]
    assert (tmp_path / "ledger_pairs.csv").read_bytes() == _reference_csv(ledger_rows)
    assert (tmp_path / "decay_pairs.csv").read_bytes() == _reference_csv(decay_rows)


def test_row_then_dot_is_the_matrix_element():
    pairf, op = _fixture(2, "random")
    rng = np.random.default_rng(3)
    psi = rng.normal(size=pairf.measure.atom_count)
    for _ in range(5):
        phi_vals = rng.normal(size=pairf.measure.atom_count)
        assert op.matrix_element(psi, phi_vals) == _element(op, psi, phi_vals)
        assert float(op.row(psi) @ phi_vals) == _element(op, psi, phi_vals)
