"""Atomic measures with power growth, lattice value spaces, and integration.

The basic object is a finite weighted point set in R^N whose mass on balls is
controlled by a power law: mu(B(x, r)) <= c_gr * r^d for all atom centers x
and radii r in a dyadic sweep spanning the geometry of the support.  All
distances are sup-norm distances and all balls are closed sup-norm balls.

Functions on such a measure are atom-indexed arrays, either scalar or with
values in a finite-dimensional sequence lattice (R^m, l^rho).  "Defined
mu-a.e." means defined at every atom, so identities that hold at every atom
hold exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from dyadlab._seeds import rng_for

__all__ = [
    "AtomicMeasure",
    "LatticeSpace",
    "GrowthReport",
    "ball_mass",
    "growth_check",
    "growth_radii",
    "integrate",
    "pair",
    "lp_norm",
    "vector_norm",
    "vector_norm_into",
    "restrict",
    "mult",
    "row_blocks",
    "generate_random_measure",
    "save_measure",
    "load_measure",
    "dumps_measure",
    "loads_measure",
]


# =============================================================================
# Core types
# =============================================================================

@dataclass(frozen=True)
class AtomicMeasure:
    """A finite, compactly supported atomic measure on R^N.

    Attributes
    ----------
    dimension : int
        Ambient dimension N >= 1.
    growth_exponent : float
        Exponent d in (0, N] of the power growth bound.
    positions : (n, N) float array
        Pairwise distinct atom locations.
    weights : (n,) float array
        Strictly positive atom masses.
    """

    dimension: int
    growth_exponent: float
    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.ascontiguousarray(np.atleast_2d(np.asarray(self.positions, dtype=float)))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float).reshape(-1))
        if pos.ndim != 2 or pos.shape[1] != self.dimension:
            raise ValueError(f"positions must be (n, {self.dimension})")
        if pos.shape[0] != w.shape[0]:
            raise ValueError("positions and weights disagree in length")
        if pos.shape[0] == 0:
            raise ValueError("empty support")
        if not np.all(np.isfinite(pos)):
            raise ValueError("support is not bounded")
        if not np.all(w > 0):
            raise ValueError("weights must be strictly positive")
        if self.atom_count > 1:
            # equal rows sort next to each other; == makes 0.0 and -0.0 one point
            rows = pos[np.lexsort(pos.T[::-1])]
            if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
                raise ValueError("atom positions must be pairwise distinct")
        if not (0.0 < self.growth_exponent <= self.dimension):
            raise ValueError("growth exponent must lie in (0, N]")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @property
    def atom_count(self) -> int:
        return self.positions.shape[0]

    def min_gap(self) -> float:
        """Smallest pairwise sup-norm distance between atoms (inf for one atom).

        Memory O(n) in 1-D and O(``BLOCK_PAIRS``) beyond; see ``_min_sup_gap``
        for why the bits are those of the smallest entry of the dense n x n
        distance table.
        """
        if self.atom_count < 2:
            return math.inf
        return _min_sup_gap(self.positions)

    def diameter(self) -> float:
        """Largest pairwise sup-norm distance between atoms (0 for one atom).

        The largest per-axis max - min, in O(n) time and memory.  It has the
        bits of the largest entry of the dense distance table: rounded
        subtraction is monotone in each operand and |a - b| = |b - a|, so the
        pair of an axis's extremes gives that axis's largest rounded
        distance, and a maximum taken in any order is exact.
        """
        if self.atom_count < 2:
            return 0.0
        pos = self.positions
        return float(np.max(np.max(pos, axis=0) - np.min(pos, axis=0)))

    def scaled_weights(self, factor: float) -> "AtomicMeasure":
        return AtomicMeasure(self.dimension, self.growth_exponent,
                             self.positions.copy(), self.weights * factor)


# most (row atom, column atom) entries one block of a pairwise scan holds
BLOCK_PAIRS = 1 << 15


def row_blocks(rows: int, width: int) -> List[Tuple[int, int]]:
    """The (lo, hi) ranges that split rows [0, rows) of a (rows, width)
    pairwise table into blocks of at most ``BLOCK_PAIRS`` entries (one row at
    least), so a scan over them never holds the whole table."""
    step = max(1, BLOCK_PAIRS // max(width, 1))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _sup_distance_rows(pos: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, n): the sup-norm distance from each atom lo..hi-1 to every
    atom, by the same subtraction, abs and max as the dense table."""
    diff = pos[lo:hi, None, :] - pos[None, :, :]
    return np.max(np.abs(diff, out=diff), axis=-1)


def _nearest_sup_distances(pos: np.ndarray) -> np.ndarray:
    """Each atom's sup-norm distance to its nearest other atom (inf alone).

    One row-block scan with the diagonal set to +inf: a row lies in one
    block, so its minimum is the minimum of its dense row.
    """
    n = pos.shape[0]
    out = np.empty(n)
    for lo, hi in row_blocks(n, n):
        dist = _sup_distance_rows(pos, lo, hi)
        dist[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        np.min(dist, axis=1, out=out[lo:hi])
    return out


def _min_sup_gap(pos: np.ndarray) -> float:
    """Smallest sup-norm distance between two of at least two points.

    In 1-D the smallest gap between sorted neighbours: rounded subtraction is
    monotone, so no pair further apart in the order rounds to less.  Beyond,
    the smallest nearest-neighbour distance of the row-block scan.  Either
    way it is the smallest entry of the dense table, bit for bit.
    """
    if pos.shape[1] == 1:
        return float(np.min(np.abs(np.diff(np.sort(pos[:, 0])))))
    return float(np.min(_nearest_sup_distances(pos)))


@dataclass(frozen=True)
class LatticeSpace:
    """The sequence lattice (R^m, l^rho).

    Its norm, ``vector_norm`` at exponent rho along the last axis, is a
    lattice norm: coordinatewise domination of absolute values implies
    domination of norms.
    """

    m: int
    rho: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("value dimension m must be >= 1")
        if not (self.rho >= 1.0):
            raise ValueError("lattice exponent rho must lie in [1, inf]")

    @property
    def cotype(self) -> float:
        """Cotype exponent of the lattice: max(2, rho), and 2 at rho = inf,
        since l^inf_m is finite-dimensional and so has cotype 2 (with a
        constant that grows with m)."""
        return 2.0 if math.isinf(self.rho) else max(2.0, self.rho)


def vector_norm(values: np.ndarray, rho: float) -> np.ndarray:
    """l^rho norm along the last axis of ``values``; the input is not changed.

    A copy of the input goes through ``vector_norm_into``, the one l^rho
    kernel, so this returns its bits.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim <= 1:
        return np.abs(v)
    return vector_norm_into(v.copy(), rho, np.empty(v.shape[:-1]))


def vector_norm_into(values: np.ndarray, rho: float, out: np.ndarray) -> np.ndarray:
    """l^rho norm along the last axis of the float array ``values`` into
    ``out`` (shape ``values.shape[:-1]``); returns ``out``.

    ``values`` is overwritten: its coordinates are squared (rho = 2), or
    made absolute and raised to rho, in place, in one pass over the whole
    array, which is cheapest when it is contiguous.  The columns are then
    added into ``out`` one at a time, left to right (at rho = inf their
    running maximum is taken), and ``out`` is finished with ``sqrt`` or
    ``** (1/rho)``.  For up to seven coordinates that is the order
    ``np.sum`` adds them in, so the result is the same bit for bit; from
    eight on numpy sums pairwise, and the two orders may differ in the last
    bit.

    At rho = 2 the signed coordinates are squared: x * x equals |x| * |x|
    bit for bit except in the sign of a NaN, and the final ``abs`` clears
    that sign (a sum of squares is never negative, so it moves no other
    bit).
    """
    if rho == 2.0:
        np.multiply(values, values, out=values)
    else:
        np.abs(values, out=values)
        if not (math.isinf(rho) or rho == 1.0):
            values **= rho                     # the same power path as c ** rho
    # every term is >= 0 or NaN, so (0.0 + a) + b equals a + b bit for bit
    # (and max(max(0.0, a), b) equals max(a, b)): from two columns on, the
    # first two are combined at once instead of starting from zeros
    combine = np.maximum if math.isinf(rho) else np.add
    m = values.shape[-1]
    if m >= 2:
        combine(values[..., 0], values[..., 1], out=out)
    else:
        out.fill(0.0)
    for j in range(2 if m >= 2 else 0, m):
        combine(out, values[..., j], out=out)
    if rho == 2.0:
        np.abs(np.sqrt(out, out=out), out=out)
    elif not (math.isinf(rho) or rho == 1.0):
        out **= 1.0 / rho
    return out


# =============================================================================
# Integration and norms
# =============================================================================

def ball_mass(mu: AtomicMeasure, x: Sequence[float], r: float) -> float:
    """Mass of the closed sup-norm ball of radius r > 0 around x."""
    if not r > 0:
        raise ValueError("radius must be positive")
    x = np.asarray(x, dtype=float).reshape(1, -1)
    dist = np.max(np.abs(mu.positions - x), axis=1)
    return float(np.sum(mu.weights[dist <= r]))


def integrate(mu: AtomicMeasure, values: np.ndarray, where: Optional[np.ndarray] = None):
    """Weighted sum of ``values`` over all atoms, or over the index set ``where``."""
    values = np.asarray(values, dtype=float)
    if where is None:
        w = mu.weights
    else:
        w = mu.weights[where]
        values = values[where]
    if values.ndim == 1:
        return float(np.dot(w, values))
    return w @ values


def pair(mu: AtomicMeasure, g: np.ndarray, f: np.ndarray) -> float:
    """The mu-duality pairing <g, f> = sum_atoms w(x) sum_j g_j(x) f_j(x)."""
    g = np.asarray(g, dtype=float)
    f = np.asarray(f, dtype=float)
    prod = g * f
    if prod.ndim == 2:
        prod = np.sum(prod, axis=1)
    return float(np.dot(mu.weights, prod))


def lp_norm(mu: AtomicMeasure, values: np.ndarray, p: float, rho: float = 2.0) -> float:
    """The L^p(mu) norm of an atom-indexed function with l^rho value norms."""
    norms = vector_norm(np.asarray(values, dtype=float), rho)
    if math.isinf(p):
        return float(np.max(norms)) if norms.size else 0.0
    return float(np.dot(mu.weights, norms ** p) ** (1.0 / p))


def restrict(values: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """1_A f: ``values`` on the atom set ``atoms`` and zero on every other atom.

    Scalar and lattice-valued functions keep their shape; the zeros come
    from ``np.zeros_like``, so the restriction of a float array is float.
    """
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    out[atoms] = values[atoms]
    return out


def mult(scalar: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Pointwise product of a scalar function with a scalar or lattice-valued one.

    A lattice-valued function is scaled coordinatewise: every coordinate at
    an atom is multiplied by the scalar at that atom.
    """
    if values.ndim == 1:
        return scalar * values
    return scalar[:, None] * values


# =============================================================================
# Growth check
# =============================================================================

@dataclass(frozen=True)
class GrowthReport:
    passed: bool
    c_gr: float


def growth_radii(mu: AtomicMeasure) -> np.ndarray:
    """Dyadic radius sweep used by :func:`growth_check`.

    Radii 2^k with the smallest one strictly above min_gap / 4 and the largest
    at least 2 * diameter; a single atom is swept at radius 1 only.  Testing
    dyadic radii only can understate the continuum supremum by at most 2^d,
    which is the documented tolerance policy of every growth-based bound here.
    """
    if mu.atom_count == 1:
        return np.array([1.0])
    g4 = mu.min_gap() / 4.0
    k_lo = math.ceil(math.log2(g4))
    if 2.0 ** k_lo <= g4:
        k_lo += 1
    k_hi = max(k_lo, math.ceil(math.log2(2.0 * mu.diameter())))
    return 2.0 ** np.arange(k_lo, k_hi + 1)


def growth_check(mu: AtomicMeasure) -> GrowthReport:
    """Largest ratio mu(B(x, r)) / r^d over atom centers and the dyadic sweep.

    Passes iff the ratio never exceeds 1 + 1e-12 (mass normalized so the
    growth constant is at most one).

    The ball masses are summed in row blocks of at most ``BLOCK_PAIRS``
    (center, atom) entries, so memory stays O(``BLOCK_PAIRS`` * N) at any
    atom count.  Each block's rows are contiguous rows of a C-order array,
    which numpy sums one by one, so every ball mass keeps the bits of the
    dense (n, n) sum; the heaviest ball per radius is a maximum over blocks,
    which is exact.
    """
    if mu.atom_count == 0:
        raise ValueError("empty support")
    radii = growth_radii(mu)
    d = mu.growth_exponent
    n = mu.atom_count
    heaviest = np.zeros(radii.size)
    for lo, hi in row_blocks(n, n):
        dist = _sup_distance_rows(mu.positions, lo, hi)
        for i, r in enumerate(radii):
            masses = np.sum(np.where(dist <= r, mu.weights[None, :], 0.0), axis=1)
            heaviest[i] = max(heaviest[i], np.max(masses))
    c_gr = 0.0
    for r, mass in zip(radii, heaviest):
        c_gr = max(c_gr, float(mass) / r ** d)
    return GrowthReport(c_gr <= 1.0 + 1e-12, c_gr)


# =============================================================================
# Fixture generation
# =============================================================================

_PROFILES = ("uniform", "fractal-cantor", "clustered")


def generate_random_measure(seed: int, dimension: int, growth_exponent: float,
                            atom_count: int, profile: str = "uniform") -> AtomicMeasure:
    """Deterministic random measure in [0,1)^N passing the growth check.

    Atoms are kept apart by a profile-dependent dyadic gap so that every atom
    is isolated at a moderate dyadic scale (this keeps scale windows short).
    Weights are drawn by the profile and then rescaled by the measured growth
    constant, which makes the check pass with c_gr = 1 exactly (the sweep
    ratio is linear in a global weight factor).
    """
    if atom_count < 1:
        raise ValueError("atom_count must be >= 1")
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {_PROFILES}")
    rng = rng_for(seed, f"measure:{profile}:{dimension}:{atom_count}")

    if profile == "uniform":
        positions = _jittered_grid(rng, dimension, atom_count)
        weights = rng.uniform(0.5, 1.5, size=atom_count)
    elif profile == "fractal-cantor":
        positions = _cantor_points(rng, dimension, atom_count)
        weights = np.full(atom_count, 1.0)
    else:  # clustered
        positions = _clustered_points(rng, dimension, atom_count)
        weights = np.exp(rng.normal(0.0, 0.4, size=atom_count))

    mu = AtomicMeasure(dimension, growth_exponent, positions, weights)
    report = growth_check(mu)
    if not math.isfinite(report.c_gr) or report.c_gr <= 0:
        raise RuntimeError(f"weight rescaling failed: degenerate cluster (c_gr={report.c_gr})")
    mu = mu.scaled_weights(1.0 / report.c_gr)
    assert growth_check(mu).passed
    return mu


def _jittered_grid(rng, dimension, atom_count):
    # one atom per chosen cell of a dyadic grid, jittered within the central
    # half of its cell: adjacent atoms stay >= half a cell apart
    per_axis = 1
    while per_axis ** dimension < 2 * atom_count:
        per_axis *= 2
    cells = per_axis ** dimension
    chosen = rng.choice(cells, size=atom_count, replace=False)
    idx = np.stack(np.unravel_index(chosen, (per_axis,) * dimension), axis=1)
    h = 1.0 / per_axis
    jitter = rng.uniform(0.25 * h, 0.75 * h, size=(atom_count, dimension))
    return idx * h + jitter


def _cantor_points(rng, dimension, atom_count):
    # random walk down a quarter-scale refinement tree; survivors at the leaf
    # level sit on a sparse self-similar set near dyadic boundaries
    levels = max(2, math.ceil(math.log(atom_count, 2)) + 1)
    pts = np.zeros((atom_count, dimension))
    scale = 1.0
    for _ in range(levels):
        scale /= 4.0
        corner = rng.integers(0, 2, size=(atom_count, dimension))
        pts = pts + corner * 3.0 * scale
    pts += scale * 0.5
    # perturb duplicates deterministically until pairwise distinct
    for attempt in range(32):
        if atom_count == 1 or _min_sup_gap(pts) > scale / 8.0:
            return pts
        jig = rng.uniform(-scale / 4.0, scale / 4.0, size=pts.shape)
        pts = np.clip(pts + jig, 0.0, 1.0 - scale)
    raise RuntimeError("weight rescaling failed: degenerate cluster in cantor profile")


def _clustered_points(rng, dimension, atom_count):
    n_clusters = max(2, atom_count // 16)
    centers = rng.uniform(0.2, 0.8, size=(n_clusters, dimension))
    which = rng.integers(0, n_clusters, size=atom_count)
    pts = centers[which] + rng.normal(0.0, 0.05, size=(atom_count, dimension))
    pts = np.clip(pts, 0.0, 1.0 - 1e-9)
    # snap to a fine dyadic lattice and separate collisions
    h = 2.0 ** -12
    pts = np.round(pts / h) * h
    for attempt in range(64):
        if atom_count == 1:
            return pts
        clash = np.where(_nearest_sup_distances(pts) < h / 2)[0]
        if clash.size == 0:
            return pts
        pts[clash] = np.clip(pts[clash] + rng.choice([-h, h], size=(clash.size, dimension)),
                             0.0, 1.0 - 1e-9)
    raise RuntimeError("weight rescaling failed: degenerate cluster in clustered profile")


# =============================================================================
# Fixture files (decimal text, 17 significant digits, bit-exact round trip)
# =============================================================================

def dumps_measure(mu: AtomicMeasure) -> str:
    atoms = ",\n".join(
        "    [[" + ", ".join(f"{c:.17g}" for c in mu.positions[i]) + f"], {mu.weights[i]:.17g}]"
        for i in range(mu.atom_count)
    )
    return ("{\n"
            f'  "dimension": {mu.dimension},\n'
            f'  "growth_exponent": {mu.growth_exponent:.17g},\n'
            '  "atoms": [\n' + atoms + "\n  ]\n}\n")


def loads_measure(text: str) -> AtomicMeasure:
    data = json.loads(text)
    atoms = data["atoms"]
    positions = np.array([a[0] for a in atoms], dtype=float)
    weights = np.array([a[1] for a in atoms], dtype=float)
    return AtomicMeasure(int(data["dimension"]), float(data["growth_exponent"]),
                         positions, weights)


def save_measure(mu: AtomicMeasure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_measure(mu))


def load_measure(path) -> AtomicMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_measure(fh.read())
