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
from dyadlab.measure import AtomicMeasure, integrate

__all__ = [
    "AccretiveSystem",
    "Layers",
    "AccretiveReport",
    "verify_accretive",
    "build_layers",
    "layer_decay_report",
    "layer_decay_tau",
    "generate_accretive",
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
    ``index.atoms_of(Q)``; unoccupied cubes implicitly carry b_Q = 0 and are
    excluded from every stopping scan.
    """

    delta: float
    values: Dict[CubeKey, np.ndarray]

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")

    def on(self, cube: Cube) -> np.ndarray:
        """Values of b_Q at the atoms of Q."""
        got = self.values.get(cube.key)
        if got is None:
            raise KeyError(f"missing test function for cube {cube.key}")
        return got

    def as_function(self, index: GridIndex, cube: Cube) -> np.ndarray:
        """b_Q extended by zero to all atoms."""
        out = np.zeros(index.measure.atom_count)
        out[index.atoms_of(cube)] = self.on(cube)
        return out


@dataclass
class Layers:
    """Stopping-time generations and the ancestor map."""

    generations: List[List[CubeKey]]
    ancestor: Dict[CubeKey, CubeKey]


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
    sup_bad: List[CubeKey] = []
    mean_bad: List[CubeKey] = []
    margins: Dict[CubeKey, float] = {}
    for k in index.system.scales:
        for cube in index.occupied(k):
            atoms = index.atoms_of(cube)
            vals = sys_b.on(cube)
            if vals.shape[0] != atoms.shape[0]:
                raise ValueError(f"test function for {cube.key} has wrong length")
            if np.max(np.abs(vals)) > 1.0 + 1e-12:
                sup_bad.append(cube.key)
            mean = float(np.dot(mu.weights[atoms], vals)) / index.mass_of(cube)
            margins[cube.key] = abs(mean) - sys_b.delta
            if abs(mean) < sys_b.delta * (1.0 - 1e-12) - 1e-12:
                mean_bad.append(cube.key)
    return AccretiveReport(not sup_bad and not mean_bad, sup_bad, mean_bad, margins)


# =============================================================================
# Layers
# =============================================================================

def build_layers(sys_b: AccretiveSystem, mu: AtomicMeasure, index: GridIndex) -> Layers:
    """Top-down stopping construction of the layer generations.

    Inside each generation-j cube R, a breadth-first scan over occupied strict
    subcubes admits a cube to generation j+1 when |int_Q b_R| < delta^2 mu(Q)
    and none of its window ancestors inside R triggered first; admitted cubes
    are not descended into, which is exactly maximality.
    """
    system = index.system
    delta2 = sys_b.delta ** 2
    top = system.top_cube()
    generations: List[List[CubeKey]] = [[top.key]]
    current = [top]
    while current:
        next_gen: List[Cube] = []
        for parent_cube in current:
            b_full = sys_b.as_function(index, parent_cube)
            frontier = [c for _, c in index.occupied_children(parent_cube)]
            while frontier:
                q = frontier.pop()
                integral = integrate(mu, b_full, index.atoms_of(q))
                if abs(integral) < delta2 * index.mass_of(q):
                    next_gen.append(q)
                else:
                    frontier.extend(c for _, c in index.occupied_children(q))
        if not next_gen:
            break
        generations.append([q.key for q in next_gen])
        current = next_gen

    return Layers(generations, _ancestor_map(index, generations))


def _ancestor_map(index: GridIndex, generations: List[List[CubeKey]]) -> Dict[CubeKey, CubeKey]:
    layer_set = {k for gen in generations for k in gen}
    system = index.system
    top_key = system.top_cube().key
    ancestor: Dict[CubeKey, CubeKey] = {top_key: top_key}
    for k in reversed(range(system.k_min, system.s)):       # top-down in size
        for cube in index.occupied(k):
            if cube.key in layer_set:
                ancestor[cube.key] = cube.key
            else:
                ancestor[cube.key] = ancestor[cube.parent().key]
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
            mass_q = index.mass_of(q)
            if mass_q == 0.0:
                continue
            for j in range(1, len(layers.generations) - m_gen):
                deeper = layers.generations[m_gen + j]
                total = 0.0
                for skey in deeper:
                    s_cube = system.cube(*skey)
                    if s_cube.scale < q.scale and contains(q, s_cube):
                        total += index.mass_of(s_cube)
                ratio = total / mass_q
                rows.append({"layer": m_gen, "cube": key, "j": j, "ratio": ratio})
    return {"rows": rows}


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
            total += index.mass_of(index.system.cube(*key))
    tau = layer_decay_tau(delta)
    mass0 = index.mass_of(index.system.top_cube())
    bound = mass0 * (1.0 + (1.0 - tau) / tau) if tau > 0 else math.inf
    return total, bound


# =============================================================================
# Generation
# =============================================================================

_STYLES = ("indicator", "signed-perturbation", "oscillatory")


def generate_accretive(seed: int, mu: AtomicMeasure, index: GridIndex, delta: float,
                       style: str = "indicator") -> AccretiveSystem:
    """Deterministic accretive system of the requested style.

    ``indicator`` takes b_Q = 1 on Q.  ``signed-perturbation`` starts from the
    indicator, damps b_Q on one small occupied descendant far enough below
    delta^2 to force a stopping cube, and jitters the rest while projecting
    back into the constraint set.  ``oscillatory`` uses a clipped cosine with
    its bias bisected until the cube mean clears delta.
    """
    if style not in _STYLES:
        raise ValueError(f"unknown style {style!r}; expected one of {_STYLES}")
    rng = rng_for(seed, f"accretive:{style}:{delta}")
    values: Dict[CubeKey, np.ndarray] = {}
    for k in index.system.scales:
        for cube in index.occupied(k):
            atoms = index.atoms_of(cube)
            if style == "indicator":
                vals = np.ones(atoms.size)
            elif style == "signed-perturbation":
                vals = _signed_perturbation(rng, mu, index, cube, delta)
            else:
                vals = _oscillatory(rng, mu, index, cube, delta)
            values[cube.key] = vals
    sys_b = AccretiveSystem(delta, values)
    report = verify_accretive(sys_b, mu, index)
    if not report.passed:
        raise RuntimeError("projection failed: generated system violates the "
                           f"accretivity constraints on {report.mean_violations[:3]}")
    return sys_b


def _signed_perturbation(rng, mu, index, cube, delta):
    atoms = index.atoms_of(cube)
    vals = np.ones(atoms.size)
    w = mu.weights[atoms]
    mass = index.mass_of(cube)
    if atoms.size > 1:
        # mild signed jitter, then retreat until the mean constraint clears
        jitter = rng.uniform(-0.35, 0.35, size=atoms.size)
        for _ in range(12):
            trial = np.clip(vals + jitter, -1.0, 1.0)
            if abs(np.dot(w, trial)) >= (delta + 0.05 * (1 - delta)) * mass:
                vals = trial
                break
            jitter *= 0.5
        # damp one small strict descendant below the stopping threshold
        target = _small_descendant(rng, mu, index, cube, delta)
        if target is not None:
            local = np.searchsorted(atoms, index.atoms_of(target))
            damped = vals.copy()
            damped[local] = delta ** 2 / 4.0
            if abs(np.dot(w, damped)) >= delta * mass:
                vals = damped
    return np.clip(vals, -1.0, 1.0)


def _small_descendant(rng, mu, index, cube, delta):
    mass = index.mass_of(cube)
    limit = 0.5 * (1.0 - delta) * mass
    pool = []
    stack = [c for _, c in index.occupied_children(cube)]
    while stack:
        q = stack.pop()
        if index.mass_of(q) <= limit:
            pool.append(q)
        else:
            stack.extend(c for _, c in index.occupied_children(q))
    if not pool:
        return None
    return pool[int(rng.integers(0, len(pool)))]


def _oscillatory(rng, mu, index, cube, delta):
    atoms = index.atoms_of(cube)
    if atoms.size == 1:
        return np.ones(1)
    w = mu.weights[atoms]
    mass = index.mass_of(cube)
    theta_dir = rng.normal(size=mu.dimension)
    theta_dir /= max(np.max(np.abs(theta_dir)), 1e-12)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    osc = np.cos(2.0 * math.pi * (mu.positions[atoms] @ theta_dir) / cube.side + phase)

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
