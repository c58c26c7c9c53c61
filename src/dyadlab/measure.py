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
from typing import Optional, Sequence

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
    "average",
    "pair",
    "lp_norm",
    "restrict",
    "mult",
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
            d = _pairwise_sup_distances(pos)
            if np.min(d) == 0.0:
                raise ValueError("atom positions must be pairwise distinct")
        if not (0.0 < self.growth_exponent <= self.dimension):
            raise ValueError("growth exponent must lie in (0, N]")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @property
    def atom_count(self) -> int:
        return self.positions.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def min_gap(self) -> float:
        """Smallest pairwise sup-norm distance between atoms (inf for one atom)."""
        if self.atom_count < 2:
            return math.inf
        return float(np.min(_pairwise_sup_distances(self.positions)))

    def diameter(self) -> float:
        """Largest pairwise sup-norm distance between atoms (0 for one atom)."""
        if self.atom_count < 2:
            return 0.0
        return float(np.max(_pairwise_sup_distances(self.positions)))

    def scaled_weights(self, factor: float) -> "AtomicMeasure":
        return AtomicMeasure(self.dimension, self.growth_exponent,
                             self.positions.copy(), self.weights * factor)


def _pairwise_sup_distances(pos: np.ndarray) -> np.ndarray:
    diff = pos[:, None, :] - pos[None, :, :]
    d = np.max(np.abs(diff), axis=-1)
    n = pos.shape[0]
    return d[~np.eye(n, dtype=bool)]


@dataclass(frozen=True)
class LatticeSpace:
    """The sequence lattice (R^m, l^rho) together with its dual exponent.

    The norm is a lattice norm: coordinatewise domination of absolute values
    implies domination of norms.  The dual pairing is the plain coordinate
    sum, and Hoelder gives |<phi, xi>| <= |phi|_{rho'} |xi|_rho.
    """

    m: int
    rho: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("value dimension m must be >= 1")
        if not (self.rho >= 1.0):
            raise ValueError("lattice exponent rho must lie in [1, inf]")

    @property
    def rho_dual(self) -> float:
        if self.rho == 1.0:
            return math.inf
        if math.isinf(self.rho):
            return 1.0
        return self.rho / (self.rho - 1.0)

    @property
    def cotype(self) -> float:
        """Cotype exponent of the lattice: max(2, rho)."""
        return max(2.0, self.rho) if not math.isinf(self.rho) else math.inf

    def norm(self, values: np.ndarray) -> np.ndarray:
        """l^rho norm along the last axis; scalar arrays pass through as |.|"""
        values = np.asarray(values, dtype=float)
        if values.ndim == 0 or values.shape[-1:] == () or self.m == 1 and values.ndim == 1:
            return np.abs(values)
        return vector_norm(values, self.rho)

    def dual_norm(self, values: np.ndarray) -> np.ndarray:
        return vector_norm(np.asarray(values, dtype=float), self.rho_dual)


def vector_norm(values: np.ndarray, rho: float) -> np.ndarray:
    """l^rho norm along the last axis of ``values``.

    The coordinates are combined one column at a time, left to right.  For
    up to seven coordinates that is the order ``np.sum`` adds them in, so
    the result is the same bit for bit; from eight on numpy sums pairwise,
    and the two orders may differ in the last bit.  The column loop never
    builds a strided reduction over a short last axis, which is what makes
    the lattice-valued randomized norms cheap.

    Each column goes through one reused buffer, and the input is never
    copied.  At rho = 2 the signed coordinates are squared: x * x equals
    |x| * |x| bit for bit except in the sign of a NaN, and the final
    ``abs`` clears that sign (a sum of squares is never negative, so it
    moves no other bit).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim <= 1:
        return np.abs(v)
    # every term is >= 0, so starting from zeros changes no bit
    total = np.zeros(v.shape[:-1])
    buf = np.empty_like(total)
    for j in range(v.shape[-1]):
        c = v[..., j]
        if rho == 2.0:
            np.multiply(c, c, out=buf)
        else:
            np.abs(c, out=buf)
            if not (math.isinf(rho) or rho == 1.0):
                buf **= rho                    # the same power path as c ** rho
        if math.isinf(rho):
            np.maximum(total, buf, out=total)
        else:
            total += buf
    if math.isinf(rho) or rho == 1.0:
        return total
    if rho == 2.0:
        return np.abs(np.sqrt(total, out=total), out=total)
    total **= 1.0 / rho
    return total


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


def average(mu: AtomicMeasure, values: np.ndarray, where: Optional[np.ndarray] = None):
    """Mass-normalized integral; a zero-mass region averages to zero."""
    mass = mu.total_mass if where is None else float(np.sum(mu.weights[where]))
    if mass == 0.0:
        values = np.asarray(values, dtype=float)
        return 0.0 if values.ndim == 1 else np.zeros(values.shape[1])
    out = integrate(mu, values, where)
    return out / mass


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
    radii: np.ndarray
    worst_radius: float

    def __iter__(self):
        # unpack as (passed, c_gr)
        return iter((self.passed, self.c_gr))


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


def growth_check(mu: AtomicMeasure, tolerance: float = 1e-12) -> GrowthReport:
    """Largest ratio mu(B(x, r)) / r^d over atom centers and the dyadic sweep.

    Passes iff the ratio never exceeds 1 + tolerance (mass normalized so the
    growth constant is at most one).
    """
    if mu.atom_count == 0:
        raise ValueError("empty support")
    radii = growth_radii(mu)
    d = mu.growth_exponent
    diff = np.max(np.abs(mu.positions[:, None, :] - mu.positions[None, :, :]), axis=-1)
    c_gr = 0.0
    worst_r = radii[0]
    for r in radii:
        masses = np.sum(np.where(diff <= r, mu.weights[None, :], 0.0), axis=1)
        ratio = float(np.max(masses)) / r ** d
        if ratio > c_gr:
            c_gr = ratio
            worst_r = r
    return GrowthReport(c_gr <= 1.0 + tolerance, c_gr, radii, float(worst_r))


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
        if atom_count == 1 or np.min(_pairwise_sup_distances(pts)) > scale / 8.0:
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
        d = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1)
        np.fill_diagonal(d, np.inf)
        clash = np.where(np.min(d, axis=1) < h / 2)[0]
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
