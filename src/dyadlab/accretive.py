"""Accretive test-function systems and their stopping-time layers.

A system assigns to every occupied cube Q a function b_Q supported on Q with
|b_Q| <= 1 and |int_Q b_Q dmu| >= delta mu(Q).  Scanning top-down for maximal
cubes where the running test function degenerates below delta^2 produces the
layers: generation j+1 inside a generation-j cube R consists of the maximal
cubes Q with |int_Q b_R dmu| < delta^2 mu(Q).  The ancestor map sends a cube
to the smallest layer cube containing it, and by maximality the ancestor's
test function keeps modulus >= delta^2 on every occupied cube.

Mass decay between layers comes with an explicit constant: splitting the
accretivity of b_Q over the stopping children S gives

    delta mu(Q) <= mu(Q) - (1 - delta^2) sum mu(S),

hence sum mu(S) <= mu(Q) / (1 + delta), i.e. the per-generation contraction
factor is 1 - tau with tau = delta / (1 + delta).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from dyadlab._seeds import rng_for
from dyadlab.grid import Cube, GridIndex, contains
from dyadlab.measure import AtomicMeasure

__all__ = [
    "AccretiveSystem",
    "Layers",
    "AccretiveReport",
    "verify_accretive",
    "build_layers",
    "layer_decay_report",
    "layer_decay_tau",
    "generate_accretive",
    "STYLES",
    "dumps_accretive",
    "loads_accretive",
]

CubeKey = Tuple[int, Tuple[int, ...]]


# =============================================================================
# Types
# =============================================================================

@dataclass
class AccretiveSystem:
    """Per-cube test functions b_Q on the occupied cubes of a grid index.

    ``values[key]`` holds b_Q at the atoms of Q, ordered like
    ``index.atoms_at(k, p)`` for Q at scale k and position p; unoccupied
    cubes implicitly carry b_Q = 0 and are excluded from every stopping scan.

    ``generate_accretive`` builds the values a scale at a time, as one array
    laid out like ``index.atom_order(k)``, and ``values[key]`` is the cube's
    slice of it.  Readers that work a scale at a time gather the entries
    back into that layout (``scale_values``), so they read an entry replaced
    after generation as the per-cube readers do.
    """

    delta: float
    values: Dict[CubeKey, np.ndarray]

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")

    def on_key(self, key: CubeKey) -> np.ndarray:
        """Values of b_Q at the atoms of Q, for the cube with this key."""
        got = self.values.get(key)
        if got is None:
            raise KeyError(f"missing test function for cube {key}")
        return got

    def as_function(self, index: GridIndex, cube: Cube) -> np.ndarray:
        """b_Q extended by zero to all atoms."""
        out = np.zeros(index.measure.atom_count)
        out[index.atoms_at(cube.scale, index.position(cube.key))] = self.on_key(cube.key)
        return out

    def scale_values(self, index: GridIndex, k: int) -> np.ndarray:
        """b_Q of every occupied scale-k cube Q, laid out like
        ``index.atom_order(k)``."""
        keys = index.cube_keys(k)
        parts = [self.on_key(key) for key in keys]
        sizes = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
        wrong = np.flatnonzero(sizes != np.diff(index.atom_starts(k)))
        if wrong.size:
            raise ValueError(f"test function for {keys[wrong[0]]} has wrong length")
        return np.concatenate(parts)


@dataclass
class Layers:
    """Stopping-time generations and the ancestor map."""

    generations: List[List[CubeKey]]
    ancestor: Dict[CubeKey, CubeKey]

    def marks(self, index: GridIndex) -> Dict[int, np.ndarray]:
        """Per scale, which occupied cubes of ``index`` (by position) are
        layer cubes."""
        marks = {k: np.zeros(index.masses(k).size, dtype=bool) for k in index.system.scales}
        for gen in self.generations:
            for key in gen:
                p = index.position(key)
                if p is not None:
                    marks[key[0]][p] = True
        return marks


@dataclass
class AccretiveReport:
    passed: bool
    sup_violations: List[CubeKey]
    mean_violations: List[CubeKey]
    margins: Dict[CubeKey, float]     # |<b_Q>_Q| - delta, per occupied cube

    def worst_margin(self) -> float:
        return min(self.margins.values()) if self.margins else math.inf


# =============================================================================
# Verification
# =============================================================================

def verify_accretive(sys_b: AccretiveSystem, mu: AtomicMeasure,
                     index: GridIndex) -> AccretiveReport:
    """Check support, sup bound and mean lower bound on every occupied cube,
    each with an absolute tolerance of 1e-12."""
    return _accretive_report(sys_b.delta, mu, index,
                             {k: sys_b.scale_values(index, k) for k in index.system.scales})


def _accretive_report(delta: float, mu: AtomicMeasure, index: GridIndex,
                      scale_values: Dict[int, np.ndarray]) -> AccretiveReport:
    """``verify_accretive`` on values laid out like ``index.atom_order(k)``:
    per cube one ``np.dot`` of its weights and values, over its atoms in
    increasing order, divided by its mass."""
    sup_bad: List[CubeKey] = []
    mean_bad: List[CubeKey] = []
    margins: Dict[CubeKey, float] = {}
    floor = delta * (1.0 - 1e-12) - 1e-12
    for k in index.system.scales:
        vals = scale_values[k]
        starts = index.atom_starts(k)
        w = mu.weights[index.atom_order(k)]
        bounds = starts.tolist()
        mean = np.array([np.dot(w[a:b], vals[a:b])
                         for a, b in zip(bounds[:-1], bounds[1:])]) / index.masses(k)
        keys = index.cube_keys(k)
        sup = np.maximum.reduceat(np.abs(vals), starts[:-1]) > 1.0 + 1e-12
        sup_bad.extend(keys[i] for i in np.flatnonzero(sup).tolist())
        mean_bad.extend(keys[i] for i in np.flatnonzero(np.abs(mean) < floor).tolist())
        margins.update(zip(keys, (np.abs(mean) - delta).tolist()))
    return AccretiveReport(not sup_bad and not mean_bad, sup_bad, mean_bad, margins)


# =============================================================================
# Layers
# =============================================================================

def build_layers(sys_b: AccretiveSystem, mu: AtomicMeasure, index: GridIndex) -> Layers:
    """Top-down stopping construction of the layer generations.

    Inside each generation-j cube R, a scan over occupied strict subcubes
    admits a cube to generation j+1 when |int_Q b_R| < delta^2 mu(Q) and
    none of its window ancestors inside R triggered first; admitted cubes
    are not descended into, which is exactly maximality.

    The scan runs a scale at a time over the tables of ``index``, for all
    cubes of a generation at once (they are disjoint, so one vector holds
    every b_R).  Each visited cube's integral is one ``np.dot`` over its
    atoms, as in a cube-by-cube scan.  Generation j+1 lists its cubes by
    the rank of their generation-j cube, then last child first: the order
    of a depth-first scan that pops the last occupied child first.
    """
    system = index.system
    delta2 = sys_b.delta ** 2
    w = mu.weights
    tree_rank = index.tree_rank()
    generations: List[List[CubeKey]] = [[index.cube_keys(system.s)[0]]]
    current = [(system.s, 0)]                  # (scale, position)
    while current:
        b_current = np.zeros(mu.atom_count)
        entering: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        for rank, (j, p) in enumerate(current):
            b_current[index.atoms_at(j, p)] = sys_b.on_key(index.cube_keys(j)[p])
            if j > system.k_min:
                child_starts, children, _ = index.child_table(j)
                row = children[child_starts[p]:child_starts[p + 1]]
                entering.setdefault(j - 1, []).append((row, np.full(row.size, rank)))
        found = []                             # (owner rank, tree rank, scale, position)
        cubes = owners = np.empty(0, dtype=np.int64)
        for k in reversed(range(system.k_min, system.s)):
            parts = [(cubes, owners)] + entering.get(k, [])
            cubes = np.concatenate([c for c, _ in parts])
            owners = np.concatenate([o for _, o in parts])
            if not cubes.size:
                continue
            order, starts = index.atom_order(k), index.atom_starts(k)
            wk, bk = w[order], b_current[order]
            integrals = np.array([np.dot(wk[a:b], bk[a:b]) for a, b in
                                  zip(starts[cubes].tolist(), starts[cubes + 1].tolist())])
            stop = np.abs(integrals) < delta2 * index.masses(k)[cubes]
            found.extend(zip(owners[stop].tolist(),
                             tree_rank[order[starts[cubes[stop]]]].tolist(),
                             [k] * int(stop.sum()), cubes[stop].tolist()))
            cubes, owners = cubes[~stop], owners[~stop]
            if k > system.k_min:
                cubes, owners = _expand(index.child_table(k), cubes, owners)
        if not found:
            break
        found.sort(key=lambda t: (t[0], -t[1]))
        current = [(k, p) for _, _, k, p in found]
        generations.append([index.cube_keys(k)[p] for k, p in current])

    layers = Layers(generations, {})
    layers.ancestor = _ancestor_map(index, layers.marks(index))
    return layers


def _expand(table, cubes: np.ndarray, owners: np.ndarray):
    """The occupied children of ``cubes`` (positions) from a child table,
    each with the owner of its parent."""
    starts, children, _ = table
    counts = starts[cubes + 1] - starts[cubes]
    first = np.repeat(starts[cubes] - (np.cumsum(counts) - counts), counts)
    return children[first + np.arange(first.size)], np.repeat(owners, counts)


def _ancestor_map(index: GridIndex, layer: Dict[int, np.ndarray]) -> Dict[CubeKey, CubeKey]:
    """Each occupied cube's smallest layer cube, ``layer`` marking the layer
    cubes of each scale by position."""
    system = index.system
    top_key = index.cube_keys(system.s)[0]
    ancestor: Dict[CubeKey, CubeKey] = {top_key: top_key}
    anc_scale, anc_pos = np.array([system.s]), np.array([0])
    for k in reversed(range(system.k_min, system.s)):       # top-down in size
        parents = index.parents(k)
        anc_scale = np.where(layer[k], k, anc_scale[parents])
        anc_pos = np.where(layer[k], np.arange(parents.size), anc_pos[parents])
        ancestor.update(zip(index.cube_keys(k),
                            [index.cube_keys(j)[p]
                             for j, p in zip(anc_scale.tolist(), anc_pos.tolist())]))
    return ancestor


# =============================================================================
# Layer decay report
# =============================================================================

def layer_decay_tau(delta: float) -> float:
    """The derived contraction constant tau = delta / (1 + delta)."""
    return delta / (1.0 + delta)


def layer_decay_report(layers: Layers, mu: AtomicMeasure, index: GridIndex) -> dict:
    """Mass ratios of deeper generations inside each layer cube.

    For every layer cube Q in generation M and every j >= 1, the total mass
    of generation M+j cubes strictly inside Q must not exceed
    (1 + delta)^(-j) mu(Q).  Each row records the observed ratio;
    :func:`check_layer_decay` holds it against that bound.
    """
    system = index.system
    rows = []
    for m_gen, gen in enumerate(layers.generations):
        for key in gen:
            q = system.cube(*key)
            mass_q = _mass(index, key)
            if mass_q == 0.0:
                continue
            for j in range(1, len(layers.generations) - m_gen):
                total = 0.0
                for skey in layers.generations[m_gen + j]:
                    if skey[0] < q.scale and contains(q, system.cube(*skey)):
                        total += _mass(index, skey)
                ratio = total / mass_q
                rows.append({"layer": m_gen, "cube": key, "j": j, "ratio": ratio})
    return {"rows": rows}


def _mass(index: GridIndex, key: CubeKey) -> float:
    """The mass of the cube with this key, 0.0 if it holds no atom."""
    p = index.position(key)
    return 0.0 if p is None else float(index.masses(key[0])[p])


def check_layer_decay(layers: Layers, delta: float, mu: AtomicMeasure,
                      index: GridIndex) -> Tuple[bool, float]:
    """True iff every ratio of :func:`layer_decay_report` meets its bound.

    Returns the pass flag and the worst slack bound - ratio (negative on
    failure).
    """
    report = layer_decay_report(layers, mu, index)
    tau = layer_decay_tau(delta)
    worst = math.inf
    ok = True
    for row in report["rows"]:
        bound = (1.0 - tau) ** row["j"]
        slack = bound - row["ratio"]
        worst = min(worst, slack)
        if slack < -1e-12:
            ok = False
    return ok, worst


def overlap_l1_bound(layers: Layers, delta: float, mu: AtomicMeasure,
                     index: GridIndex) -> Tuple[float, float]:
    """L^1 mass of the layer-overlap function against its geometric bound.

    f = sum over generations of the layer-cube indicator has
    ||f||_{L^1(Q_0)} <= mu(Q_0) (1 + sum_j (1-tau)^j).
    """
    total = 0.0
    for gen in layers.generations:
        for key in gen:
            total += _mass(index, key)
    tau = layer_decay_tau(delta)
    mass0 = float(index.masses(index.system.s)[0])
    bound = mass0 * (1.0 + (1.0 - tau) / tau) if tau > 0 else math.inf
    return total, bound


# =============================================================================
# Generation
# =============================================================================

STYLES = ("indicator", "signed-perturbation", "oscillatory")


def generate_accretive(seed: int, mu: AtomicMeasure, index: GridIndex, delta: float,
                       style: str = "indicator") -> AccretiveSystem:
    """Deterministic accretive system of the requested style.

    ``indicator`` takes b_Q = 1 on Q.  ``signed-perturbation`` starts from the
    indicator, damps b_Q on one small occupied descendant far enough below
    delta^2 to force a stopping cube, and jitters the rest while projecting
    back into the constraint set.  ``oscillatory`` uses a clipped cosine with
    its bias bisected until the cube mean clears delta.

    The values are built a scale at a time over the tables of ``index``.
    The generator makes its draws cube by cube, scales upward and cubes by
    position, the same calls in the same order whatever the layout.
    """
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")
    rng = rng_for(seed, f"accretive:{style}:{delta}")
    scale_values: Dict[int, np.ndarray] = {}
    if style == "signed-perturbation":
        # each atom's cube mass at every scale, a row per scale like
        # index.cube_id_rows()
        chain_masses = np.stack([index.masses(k)[index.cube_ids(k)]
                                 for k in index.system.scales])
    for k in index.system.scales:
        if style == "indicator":
            scale_values[k] = np.ones(mu.atom_count)
        elif style == "signed-perturbation":
            scale_values[k] = _signed_perturbation(rng, mu, index, k, delta, chain_masses)
        else:
            scale_values[k] = _oscillatory(rng, mu, index, k, delta)
    values: Dict[CubeKey, np.ndarray] = {}
    for k, vals in scale_values.items():
        bounds = index.atom_starts(k).tolist()
        values.update(zip(index.cube_keys(k),
                          [vals[a:b] for a, b in zip(bounds[:-1], bounds[1:])]))
    sys_b = AccretiveSystem(delta, values)
    report = _accretive_report(delta, mu, index, scale_values)
    if not report.passed:
        raise RuntimeError("projection failed: generated system violates the "
                           f"accretivity constraints on {report.mean_violations[:3]}")
    return sys_b


def _signed_perturbation(rng, mu, index, k, delta, chain_masses):
    """The signed-perturbation values of the scale-k cubes.

    Per cube of more than one atom, in position order, the jitter is drawn
    and then, when the cube has small descendants, the one to damp.  Every
    jitter retreat step and the damping are then decided cube by cube, each
    by one ``np.dot`` over the cube's atoms.
    """
    order, starts = index.atom_order(k), index.atom_starts(k)
    masses = index.masses(k)
    w = mu.weights[order]
    vals = np.ones(order.size)
    bounds = starts.tolist()
    spans = [(q, a, b) for q, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])) if b - a > 1]
    if not spans:
        return vals
    pool_starts, pool, member = _small_descendants(index, k, delta, chain_masses)
    pool_bounds = pool_starts.tolist()
    jitter = np.zeros(order.size)
    target = np.full(masses.size, -1, dtype=np.int64)
    for q, a, b in spans:
        jitter[a:b] = rng.uniform(-0.35, 0.35, size=b - a)
        size = pool_bounds[q + 1] - pool_bounds[q]
        if size:
            target[q] = pool[pool_bounds[q] + int(rng.integers(0, size))]
    # mild signed jitter, then retreat until the mean constraint clears
    floor = (delta + 0.05 * (1 - delta)) * masses
    pending = spans
    for _ in range(12):
        trial = np.clip(1.0 + jitter, -1.0, 1.0)
        left = []
        for q, a, b in pending:
            if abs(np.dot(w[a:b], trial[a:b])) >= floor[q]:
                vals[a:b] = trial[a:b]
            else:
                left.append((q, a, b))
        pending = left
        if not pending:
            break
        jitter *= 0.5
    # damp one small strict descendant below the stopping threshold
    damped = vals.copy()
    chosen = member[order]
    damped[(chosen >= 0) & (chosen == target[index.cube_ids(k)[order]])] = delta ** 2 / 4.0
    for q in np.flatnonzero(target >= 0).tolist():
        a, b = bounds[q], bounds[q + 1]
        if abs(np.dot(w[a:b], damped[a:b])) >= delta * masses[q]:
            vals[a:b] = damped[a:b]
    return np.clip(vals, -1.0, 1.0)


def _small_descendants(index, k, delta, chain_masses):
    """The damping candidates of every scale-k cube Q: its maximal strict
    descendants of mass at most 0.5 (1 - delta) mu(Q).

    Returns compressed rows (starts, members) by cube position, and each
    atom's candidate (-1 for none).  A candidate is coded as row * n +
    position, its row counting scales up from the bottom of the window as
    in ``index.cube_id_rows()`` and ``chain_masses``, each atom's cube mass
    at every scale.  Each cube lists its candidates by descending tree rank:
    the order in which a depth-first walk that pops the last occupied child
    first meets them.
    """
    n = index.measure.atom_count
    ids = index.cube_ids(k)
    rows = k - index.system.k_min               # the scales below k
    member = np.full(n, -1, dtype=np.int64)
    if rows:
        hit = chain_masses[:rows] <= (0.5 * (1.0 - delta) * index.masses(k))[ids]
        # the highest scale on each atom's chain whose cube is light enough
        row = rows - 1 - np.argmax(hit[::-1], axis=0)
        atoms = np.flatnonzero(hit.any(axis=0))
        member[atoms] = row[atoms] * n + index.cube_id_rows()[row[atoms], atoms]
    atoms = np.flatnonzero(member >= 0)
    cube, code = ids[atoms], member[atoms]
    sort = np.lexsort((-index.tree_rank()[atoms], cube))
    cube, code = cube[sort], code[sort]
    # a candidate's atoms are consecutive in tree rank
    first = np.ones(cube.size, dtype=bool)
    first[1:] = (cube[1:] != cube[:-1]) | (code[1:] != code[:-1])
    cube, code = cube[first], code[first]
    starts = np.zeros(index.masses(k).size + 1, dtype=np.int64)
    np.cumsum(np.bincount(cube, minlength=starts.size - 1), out=starts[1:])
    return starts, code, member


def _oscillatory(rng, mu, index, k, delta):
    """The oscillatory values of the scale-k cubes, cube by cube."""
    order, starts = index.atom_order(k), index.atom_starts(k)
    masses = index.masses(k)
    side = 2.0 ** k
    vals = np.ones(order.size)
    bounds = starts.tolist()
    for q, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if b - a > 1:
            vals[a:b] = _oscillation(rng, mu, order[a:b], float(masses[q]), side, delta)
    return vals


def _oscillation(rng, mu, atoms, mass, side, delta):
    w = mu.weights[atoms]
    theta_dir = rng.normal(size=mu.dimension)
    theta_dir /= max(np.max(np.abs(theta_dir)), 1e-12)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    osc = np.cos(2.0 * math.pi * (mu.positions[atoms] @ theta_dir) / side + phase)

    def mean_at(bias):
        return float(np.dot(w, np.clip(0.5 * osc + bias, -1.0, 1.0))) / mass

    lo, hi = 0.0, 1.0
    target = min(1.0, delta + 0.05 * (1.0 - delta))
    if mean_at(hi) < target:         # clipping floor; fall back to indicator
        return np.ones(atoms.size)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) >= target:
            hi = mid
        else:
            lo = mid
    return np.clip(0.5 * osc + hi, -1.0, 1.0)


# =============================================================================
# Fixture files
# =============================================================================

def dumps_accretive(sys_b: AccretiveSystem) -> str:
    payload = {
        "delta": sys_b.delta,
        "cubes": {
            f"{k}|{','.join(str(i) for i in m)}": [float(v) for v in vals]
            for (k, m), vals in sorted(sys_b.values.items())
        },
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def loads_accretive(text: str) -> AccretiveSystem:
    data = json.loads(text)
    values: Dict[CubeKey, np.ndarray] = {}
    for key, vals in data["cubes"].items():
        k_str, m_str = key.split("|")
        m = tuple(int(p) for p in m_str.split(",")) if m_str else ()
        values[(int(k_str), m)] = np.asarray(vals, dtype=float)
    return AccretiveSystem(float(data["delta"]), values)
