"""Randomly shifted dyadic systems over a finite scale window.

A system is parametrized by per-scale binary shifts: the grid at scale k is
the standard grid 2^k(m + [0,1)^N) translated by x_k = sum_{j<k} beta_j 2^j
with beta_j in {0,1}^N.  Summing binary digits guarantees that every cube of
scale k-1 sits inside exactly one cube of scale k for any shift choice, so
the shifted grids form a genuine dyadic lattice.

The window [k_min, s] is finite: shifts below k_min are fixed to zero (they
would only translate the whole picture at scales finer than any structure),
and the top cube at scale s contains the support of the measure.

Good and bad cubes: a cube Q of one system is n-bad with respect to another
system when some much larger cube R of the other system has its boundary
within distance l(Q)^gamma l(R)^(1-gamma) of Q; the probability of this decays
geometrically in the scale gap, which the Monte-Carlo estimator here checks
against the explicit envelope 2N 2^(-(r v n) gamma) / (1 - 2^(-gamma)).
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from dyadlab._seeds import _uint32_words, rng_for
from dyadlab.measure import AtomicMeasure

CubeKey = Tuple[int, Tuple[int, ...]]

__all__ = [
    "DyadicParams",
    "theta",
    "Cube",
    "DyadicSystem",
    "GridIndex",
    "BadnessScan",
    "standard_system",
    "build_random_system",
    "locate",
    "long_distance",
    "set_distance",
    "boundary_distance",
    "contains",
    "badness_scan",
    "witness_scale",
    "collar_witness",
    "shift_walk_hits",
    "bad_probability_mc",
    "bad_probability_bound",
    "dumps_system",
    "loads_system",
]


# =============================================================================
# Parameters
# =============================================================================

@dataclass(frozen=True)
class DyadicParams:
    """Geometry parameters (gamma, r) tied to kernel data (alpha, d).

    gamma must satisfy both d*gamma/(1-gamma) <= alpha/4 and
    gamma <= alpha / (2 (d + alpha)); invalid combinations are rejected.
    """

    gamma: float
    r: int
    alpha: float
    d: float

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if self.r < 1 or int(self.r) != self.r:
            raise ValueError("r must be a positive integer")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        eps = 1e-12
        if self.d * self.gamma / (1.0 - self.gamma) > self.alpha / 4.0 + eps:
            raise ValueError("gamma violates d*gamma/(1-gamma) <= alpha/4")
        if self.gamma > self.alpha / (2.0 * (self.d + self.alpha)) + eps:
            raise ValueError("gamma violates gamma <= alpha/(2(d+alpha))")


def theta(j: int, params: DyadicParams) -> int:
    """ceil((gamma*j + r) / (1 - gamma)) with exact rational arithmetic."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    g = Fraction(params.gamma)
    value = (g * j + params.r) / (1 - g)
    return int(math.ceil(value))


# =============================================================================
# Systems and cubes
# =============================================================================

@dataclass(frozen=True)
class DyadicSystem:
    """A shifted dyadic lattice over the scale window [k_min, s].

    The cumulative shifts x_k are computed once, at construction, into a
    read-only table with one row per scale in [k_min, s].  Row k is
    accumulated digit by digit in increasing j, the order of the digit sum
    itself, so it is that sum bit for bit.  Each entry is a sum of distinct
    powers 2^j with k_min <= j < s: a dyadic number that float64 holds
    exactly while the window spans at most 53 scales (the default windows
    span about twenty).
    """

    dimension: int
    k_min: int
    s: int
    betas: Tuple[Tuple[int, ...], ...]   # betas[j - k_min] in {0,1}^N, j in [k_min, s)
    top_index: Tuple[int, ...]           # index of the top cube Q_0 at scale s

    def __post_init__(self):
        if self.s < self.k_min:
            raise ValueError("window is empty")
        if len(self.betas) != self.s - self.k_min:
            raise ValueError("need one shift vector per scale in [k_min, s)")
        table = np.zeros((self.s - self.k_min + 1, self.dimension))
        for i, beta in enumerate(self.betas):
            table[i + 1] = table[i] + np.asarray(beta, dtype=float) * (2.0 ** (self.k_min + i))
        table.flags.writeable = False
        # not dataclass fields: equality and hashing stay on the shift digits
        object.__setattr__(self, "_shift_table", table)
        object.__setattr__(self, "_shift_rows", tuple(map(tuple, table.tolist())))
        # the hash the dataclass would compute from the field values, once
        object.__setattr__(self, "_hash", hash((self.dimension, self.k_min, self.s,
                                                self.betas, self.top_index)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def scales(self) -> range:
        return range(self.k_min, self.s + 1)

    def _row(self, k: int) -> int:
        return min(max(k, self.k_min), self.s) - self.k_min

    def shift(self, k: int) -> np.ndarray:
        """Cumulative shift x_k = sum_{k_min <= j < k} beta_j 2^j, read-only.

        Zero below the window; above it, the shift of the top scale s.
        """
        return self._shift_table[self._row(k)]

    def _shift_floats(self, k: int) -> Tuple[float, ...]:
        return self._shift_rows[self._row(k)]

    def beta(self, j: int) -> Tuple[int, ...]:
        """The shift digits of scale j; zeros outside [k_min, s)."""
        if j < self.k_min or j >= self.s:
            return (0,) * self.dimension
        return self.betas[j - self.k_min]

    # -- cube accessors --------------------------------------------------
    def cube(self, k: int, index: Iterable[int]) -> "Cube":
        return Cube(self, k, tuple(int(i) for i in index))

    def top_cube(self) -> "Cube":
        return self.cube(self.s, self.top_index)

    def cube_index_at(self, points: np.ndarray, k: int) -> np.ndarray:
        """Integer index of the scale-k cube containing each point (row)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.floor((pts - self.shift(k)[None, :]) / (2.0 ** k)).astype(np.int64)

    def cube_containing(self, point, k: int) -> "Cube":
        idx = self.cube_index_at(np.asarray(point, dtype=float)[None, :], k)[0]
        return self.cube(k, idx)


@dataclass(frozen=True)
class Cube:
    """A half-open dyadic cube: shift + 2^k (m + [0,1)^N)."""

    system: DyadicSystem
    scale: int
    index: Tuple[int, ...]

    @cached_property
    def side(self) -> float:
        return 2.0 ** self.scale

    @cached_property
    def bounds(self) -> Tuple[Tuple[float, float], ...]:
        """Per-axis (lower, upper) as Python floats: shift + 2^k m and + 2^k."""
        return _bounds(self.system._shift_floats(self.scale), self.side, self.index)

    @property
    def lower(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.bounds])

    @property
    def upper(self) -> np.ndarray:
        return np.array([up for _, up in self.bounds])

    @property
    def center(self) -> np.ndarray:
        return self.lower + 0.5 * self.side

    @property
    def key(self) -> Tuple[int, Tuple[int, ...]]:
        return (self.scale, self.index)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo, up = self.lower, self.upper
        return np.all((pts >= lo) & (pts < up), axis=1)

    def parent(self) -> "Cube":
        if self.scale >= self.system.s:
            raise ValueError("parent would leave the scale window")
        b = self.system.beta(self.scale)
        return Cube(self.system, self.scale + 1,
                    tuple((m - bi) >> 1 for m, bi in zip(self.index, b)))

    def children(self) -> List["Cube"]:
        if self.scale <= self.system.k_min:
            raise ValueError("children would leave the scale window")
        b = self.system.beta(self.scale - 1)
        base = [2 * m + bi for m, bi in zip(self.index, b)]
        return [Cube(self.system, self.scale - 1,
                     tuple(v + ((corner >> a) & 1) for a, v in enumerate(base)))
                for corner in range(2 ** self.system.dimension)]

    def __repr__(self):
        return f"Cube(k={self.scale}, m={self.index})"


# -- cube geometry (product sets: everything reduces to per-axis intervals) --
#
# The helpers work axis by axis on the Python floats of ``Cube.bounds``.  A
# bound is a window shift plus an integer multiple of a power of two: a dyadic
# number, exact in float64, and so is every difference of two bounds.  No
# step rounds, so each comparison and each returned float is the one an array
# formula over ``lower``/``upper`` gives, bit for bit.

def _bounds(shift: Sequence[float], side: float,
            index: Sequence[int]) -> Tuple[Tuple[float, float], ...]:
    out = []
    for x, m in zip(shift, index):
        lo = x + side * m
        out.append((lo, lo + side))
    return tuple(out)


def _gap(qb, rb) -> float:
    gap = 0.0
    for (ql, qu), (rl, ru) in zip(qb, rb):
        gap = max(gap, ql - ru, rl - qu)
    return gap


def _boundary_gap(qb, rb) -> float:
    margin = math.inf
    for (ql, qu), (rl, ru) in zip(qb, rb):
        if ql < rl or qu > ru:
            return _gap(qb, rb)
        margin = min(margin, ql - rl, ru - qu)
    return margin


def set_distance(q: Cube, r: Cube) -> float:
    """Sup-norm distance between the two cubes as point sets."""
    return _gap(q.bounds, r.bounds)


def long_distance(q: Cube, r: Cube) -> float:
    """l(Q) + dist(Q, R) + l(R)."""
    return q.side + set_distance(q, r) + r.side


def contains(outer: Cube, inner: Cube) -> bool:
    return all(ol <= il and iu <= ou
               for (il, iu), (ol, ou) in zip(inner.bounds, outer.bounds))


def boundary_distance(q: Cube, r: Cube) -> float:
    """Sup-norm distance from Q to the boundary of R.

    Inside: the smallest face margin.  Outside: the plain set distance (the
    nearest point of R lies on its boundary).  Straddling: zero.
    """
    return _boundary_gap(q.bounds, r.bounds)


# =============================================================================
# Construction
# =============================================================================

def isolation_scale(mu: AtomicMeasure) -> int:
    """Largest k with 2^k <= min gap: every atom is alone in its scale-k cube."""
    gap = mu.min_gap()
    if math.isinf(gap):
        return 0
    return math.floor(math.log2(gap))


def standard_system(mu: AtomicMeasure, params: DyadicParams,
                    window: Optional[Tuple[int, int]] = None) -> DyadicSystem:
    """The unshifted grid (all shift digits zero) over a window covering mu."""
    k_min, s = window if window is not None else _default_window(mu, params)
    zero = tuple([tuple([0] * mu.dimension)] * (s - k_min))
    sys0 = DyadicSystem(mu.dimension, k_min, s, zero, tuple([0] * mu.dimension))
    top = _common_top_index(sys0, mu)
    if top is None:
        raise ValueError("support not contained in one top-scale cube; widen the window")
    return DyadicSystem(mu.dimension, k_min, s, zero, top)


def build_random_system(seed: int, mu: AtomicMeasure, params: DyadicParams,
                        window: Optional[Tuple[int, int]] = None) -> DyadicSystem:
    """Random shifted system with i.i.d. uniform binary shift digits.

    If the support is split between top-scale cubes, the top scale is raised
    by one and the shifts are resampled; almost surely this terminates, and
    a budget of 64 tries turns the remaining probability-zero event into an
    error.
    """
    k_min, s = window if window is not None else _default_window(mu, params)
    if s - k_min < params.r + 4:
        raise ValueError("window must span at least r + 4 scales above the "
                         "atom-separation scale")
    rng = rng_for(seed, "dyadic-system")
    for attempt in range(64):
        betas = tuple(tuple(int(b) for b in rng.integers(0, 2, size=mu.dimension))
                      for _ in range(k_min, s))
        sys0 = DyadicSystem(mu.dimension, k_min, s, betas, tuple([0] * mu.dimension))
        top = _common_top_index(sys0, mu)
        if top is not None:
            return DyadicSystem(mu.dimension, k_min, s, betas, top)
        s += 1
    raise RuntimeError("retry budget exhausted while seeking a covering top cube; "
                       "the window is misconfigured")


def _default_window(mu: AtomicMeasure, params: DyadicParams) -> Tuple[int, int]:
    k_min = isolation_scale(mu)
    s = max(1, math.ceil(math.log2(max(2.0 * max(mu.diameter(), 0.5), 1.0))) + 1)
    s = max(s, k_min + params.r + 4)
    return k_min, s


def _common_top_index(system: DyadicSystem, mu: AtomicMeasure) -> Optional[Tuple[int, ...]]:
    idx = system.cube_index_at(mu.positions, system.s)
    first = idx[0]
    if np.all(idx == first[None, :]):
        return tuple(int(i) for i in first)
    return None


# =============================================================================
# Locating atoms
# =============================================================================

class GridIndex:
    """Scale-by-scale partition of the atoms of a measure by a dyadic system.

    The one owner of the partition; other modules read it from here.  Every
    table below is built once, at construction, with array operations over
    all atoms of a scale, and is read-only.  Per scale k:

    * the occupied cubes, sorted lexicographically by index (a cube's
      *position* is its place in that order): ``cube_keys(k)``, and as
      ``Cube`` objects, made on first use, ``occupied(k)``;
    * ``atom_order(k)``: the atoms cube by cube in position order, each
      cube's atoms in increasing atom order, with ``atom_starts(k)`` the
      offsets of the cubes in it (compressed rows: cube i holds
      ``atom_order(k)[atom_starts(k)[i]:atom_starts(k)[i + 1]]``, the view
      ``atoms_at(k, i)``);
    * ``cube_ids(k)``: each atom's cube position;
    * ``masses(k)``: each cube's mass, one ``np.add.reduce`` (the reduction
      ``np.sum`` calls) over the weights of its atoms in that order;
    * ``parents(k)``: each cube's parent position at scale k + 1, below s;
    * ``child_table(k)``: each cube's occupied children at scale k - 1 as
      compressed rows (starts, positions, corners), every row in
      ``Cube.children()`` order; a child's corner is its place in that list.
      At the bottom scale every row is empty.

    Over the whole tree, ``tree_rank()`` gives each atom's place in the
    depth-first walk that visits children in ``Cube.children()`` order, so
    disjoint cubes follow each other in that walk as the tree ranks of any
    of their atoms do.

    Report bits depend on these orders: the masses divide every average, and
    the cube and child orders fix the order of every per-cube loop and sum.
    Keeping atoms in increasing order inside each cube is what keeps every
    mass the sum the reports were built with.  Storing the atoms in tree
    order instead (sorted by cube at every scale, so each cube is a
    contiguous slice) would regroup these sums and move last bits; such a
    change needs a golden update.
    """

    def __init__(self, mu: AtomicMeasure, system: DyadicSystem):
        self.measure = mu
        self.system = system
        top = system.cube_index_at(mu.positions, system.s)
        if not np.all(top == np.asarray(system.top_index, dtype=np.int64)[None, :]):
            raise ValueError("atom outside the window top cube")
        n = mu.atom_count
        self._id_rows = np.empty((len(system.scales), n), dtype=np.int64)
        self._index_rows: Dict[int, np.ndarray] = {}
        self._order: Dict[int, np.ndarray] = {}
        self._starts: Dict[int, np.ndarray] = {}
        self._cube_ids: Dict[int, np.ndarray] = {}
        self._masses: Dict[int, np.ndarray] = {}
        self._parents: Dict[int, np.ndarray] = {}
        self._child_tables: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for k in system.scales:
            rows = system.cube_index_at(mu.positions, k)
            # a stable sort on the index rows, axis 0 first: the cubes come
            # in the order of sorted() on their index tuples, and each
            # cube's atoms in increasing order
            order = np.lexsort(rows.T[::-1])
            rows = rows[order]
            head = np.ones(n, dtype=bool)
            head[1:] = np.any(rows[1:] != rows[:-1], axis=1)
            ids = self._id_rows[k - system.k_min]
            ids[order] = np.cumsum(head) - 1
            starts = np.append(np.flatnonzero(head), n)
            w = mu.weights[order]
            bounds = starts.tolist()
            masses = np.array([float(np.add.reduce(w[a:b]))
                               for a, b in zip(bounds[:-1], bounds[1:])])
            self._index_rows[k] = rows[head]
            self._order[k], self._starts[k] = order, starts
            self._cube_ids[k], self._masses[k] = ids, masses
        corners = {}
        for k in system.scales:
            count = self._masses[k].size
            if k == system.k_min:
                empty = np.empty(0, dtype=np.int64)
                self._child_tables[k] = (np.zeros(count + 1, dtype=np.int64), empty, empty)
                continue
            below = k - 1
            parents = np.empty(self._masses[below].size, dtype=np.int64)
            parents[self._cube_ids[below]] = self._cube_ids[k]
            # Cube.children() numbers corner c by the bits c >> a of each axis
            # a, the low bit of the child index less the shift digit
            offsets = (self._index_rows[below]
                       - np.asarray(system.beta(below), dtype=np.int64)[None, :]) & 1
            corner = offsets @ (1 << np.arange(system.dimension, dtype=np.int64))
            rows = np.lexsort((corner, parents))
            starts = np.zeros(count + 1, dtype=np.int64)
            np.cumsum(np.bincount(parents, minlength=count), out=starts[1:])
            self._parents[below] = parents
            self._child_tables[k] = (starts, rows, corner[rows])
            corners[below] = corner
        # the depth-first walk orders atoms by their corner paths, top first
        paths = [corners[k][self._cube_ids[k]] for k in range(system.k_min, system.s)]
        walk = np.lexsort(paths) if paths else np.arange(n)
        self._tree_rank = np.empty(n, dtype=np.int64)
        self._tree_rank[walk] = np.arange(n)
        tables = [self._tree_rank, self._id_rows, *self._order.values(),
                  *self._starts.values(), *self._masses.values(),
                  *self._parents.values(), *self._index_rows.values()]
        for table in tables + [t for triple in self._child_tables.values() for t in triple]:
            table.flags.writeable = False
        # made on first use, by scale
        self._keys: Dict[int, List[CubeKey]] = {}
        self._positions: Dict[int, Dict[Tuple[int, ...], int]] = {}
        self._cubes: Dict[int, List[Cube]] = {}

    # -- tables -----------------------------------------------------------
    def cube_keys(self, k: int) -> List[CubeKey]:
        """The keys of the occupied scale-k cubes, by position (shared list)."""
        keys = self._keys.get(k)
        if keys is None:
            keys = self._keys[k] = [(k, m) for m in map(tuple, self._index_rows[k].tolist())]
        return keys

    def atom_order(self, k: int) -> np.ndarray:
        """The atoms cube by cube, each cube's atoms in increasing order."""
        return self._order[k]

    def atom_starts(self, k: int) -> np.ndarray:
        """Offsets of the cubes in ``atom_order(k)``, one more than the cubes."""
        return self._starts[k]

    def cube_ids(self, k: int) -> np.ndarray:
        """Each atom's cube position at scale k."""
        return self._cube_ids[k]

    def cube_id_rows(self) -> np.ndarray:
        """(scales, atoms): row k - k_min is ``cube_ids(k)``."""
        return self._id_rows

    def masses(self, k: int) -> np.ndarray:
        """The masses of the occupied scale-k cubes, by cube position."""
        return self._masses[k]

    def parents(self, k: int) -> np.ndarray:
        """Each scale-k cube's parent position at scale k + 1 (k < s)."""
        return self._parents[k]

    def child_table(self, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, positions, corners): cube i's occupied children at scale
        k - 1 are ``positions[starts[i]:starts[i + 1]]``, in corner order."""
        return self._child_tables[k]

    def tree_rank(self) -> np.ndarray:
        """Each atom's place in the depth-first walk of the tree."""
        return self._tree_rank

    def position(self, key: CubeKey) -> Optional[int]:
        """The position of the cube with this key, None if it holds no atom."""
        k, m = key
        found = self._positions.get(k)
        if found is None:
            if k not in self._index_rows:
                return None
            found = self._positions[k] = {
                idx: i for i, (_, idx) in enumerate(self.cube_keys(k))}
        return found.get(m)

    def atoms_at(self, k: int, p: int) -> np.ndarray:
        """The atoms of the scale-k cube at position p: a view of ``atom_order(k)``."""
        starts = self._starts[k]
        return self._order[k][starts[p]:starts[p + 1]]

    def occupied(self, k: int) -> List[Cube]:
        """The occupied scale-k cubes by position: a fresh list of shared ``Cube``s."""
        cubes = self._cubes.get(k)
        if cubes is None:
            cubes = self._cubes[k] = [Cube(self.system, k, m) for _, m in self.cube_keys(k)]
        return list(cubes)


def locate(mu: AtomicMeasure, system: DyadicSystem) -> GridIndex:
    return GridIndex(mu, system)


# =============================================================================
# Good and bad cubes
# =============================================================================

@dataclass(frozen=True)
class BadnessScan:
    bad: bool
    truncated: bool


def badness_scan(q: Cube, other: DyadicSystem, n: int, params: DyadicParams) -> BadnessScan:
    """Whether the other system holds a witness making Q n-bad.

    A witness R satisfies l(Q) <= 2^-(n v r) l(R) and dist(Q, bd R) <=
    l(Q)^gamma l(R)^(1-gamma), so Q is n-bad when ``witness_scale`` reaches
    scale(Q) + max(n, r).  Only scales inside the finite window are
    scanned; if the window reaches fewer than max(n, r) + 2 scales above Q,
    the result is flagged as truncated.
    """
    gap = max(n, params.r)
    j = witness_scale(q, other, params)
    return BadnessScan(j is not None and j >= q.scale + gap, other.s - q.scale < gap + 2)


def witness_scale(q: Cube, other: DyadicSystem, params: DyadicParams) -> Optional[int]:
    """The largest scale j >= scale(Q) + r of the window holding a witness
    for Q (``collar_witness``), or None; scanned downward from the top.

    Q is n-bad exactly when this scale is at least scale(Q) + max(n, r).
    """
    for j in range(other.s, q.scale + params.r - 1, -1):
        if collar_witness(q, other, j, params.gamma) is not None:
            return j
    return None


def collar_witness(q: Cube, other: DyadicSystem, j: int,
                   gamma: float) -> Optional[Tuple[int, ...]]:
    """Index of the first scale-j cube R of the other system with
    dist(Q, bd R) <= l(Q)^gamma l(R)^(1-gamma), or None.

    Only the cubes meeting Q's bounding box grown by the threshold can
    qualify; they are tried in lexicographic index order.  The threshold is
    not dyadic, but it and the index range are the same float operations in
    the same order on every path, so every scan finds the same witness.
    """
    period = 2.0 ** j
    thr = q.side ** gamma * period ** (1.0 - gamma)
    qb = q.bounds
    shift = other._shift_floats(j)
    ranges = [range(math.floor((ql - thr - x) / period),
                    math.floor((qu + thr - x) / period) + 1)
              for (ql, qu), x in zip(qb, shift)]
    for m in itertools.product(*ranges):
        if _boundary_gap(qb, _bounds(shift, period, m)) <= thr:
            return m
    return None


# =============================================================================
# Monte-Carlo probability of badness
# =============================================================================

def bad_probability_bound(dimension: int, n: int, params: DyadicParams) -> float:
    """The envelope 2N 2^(-(r v n) gamma) / (1 - 2^(-gamma))."""
    g = params.gamma
    return 2.0 * dimension * 2.0 ** (-max(n, params.r) * g) / (1.0 - 2.0 ** (-g))


# the (trial, axis) elements whose digits the shift walk draws and handles
# at a time; rounded down to whole trials
_WALK_CHUNK = 2 ** 15


def _period_minus_remainder(shift: np.ndarray, period: float,
                            out: np.ndarray) -> np.ndarray:
    """period - fmod(shift, period) for shift in [0, period], into ``out``.

    Below period, fmod(shift, period) is the shift itself, so this is one
    subtraction; at shift = period, fmod is 0, and the difference, which is
    0 there and only there, becomes period.  So it equals
    ``period - np.fmod(shift, period)`` bit for bit on [0, period].
    """
    np.subtract(period, shift, out=out)
    out[out == 0.0] = period
    return out


def _spare_half(bitgen: np.random.PCG64) -> Optional[np.uint32]:
    """The high half-word PCG64 keeps for its next 32-bit draw, or None."""
    state = bitgen.state
    return np.uint32(state["uinteger"]) if state["has_uint32"] else None


def _keep_spare_half(bitgen: np.random.PCG64, spare: Optional[np.uint32]) -> None:
    """Leave ``spare`` as the half-word PCG64 hands out on its next 32-bit draw."""
    state = bitgen.state
    state["has_uint32"] = int(spare is not None)
    if spare is not None:
        state["uinteger"] = int(spare)
    bitgen.state = state


def shift_walk_hits(rng: np.random.Generator, trials: int, dimension: int,
                    base: int, first: int, stop: int,
                    event: Callable[[float, np.ndarray, np.ndarray], None]) -> int:
    """Count the trials of a random dyadic shift walk that meet an event.

    Each trial's shift starts uniform on [0, 2^base)^N, drawn as one
    ``rng.uniform`` array, and after each scale j it gains beta_j 2^j per
    axis.  At each scale j in [first, stop), ``event(period, pos, flags)``
    receives period = 2^j and pos = period - fmod(shift, period) for a block
    of trials as an (m, N) array that it may overwrite, and fills the (m, N)
    boolean ``flags`` with the axes on which the event occurs.  A trial
    flagged on any axis is hit.

    Digit source: the digits beta_j of all trials, in (trials, N) row-major
    order, are the top bits of the next trials N 32-bit draws of the
    generator, read from ``random_raw`` words in PCG64's half-word order
    (``_uint32_words``): the digits ``rng.integers(0, 2, size=(trials, N))``
    gives, bit for bit, at a fraction of its cost.  They are drawn in chunks
    of whole trials, about ``_WALK_CHUNK`` digits each, in trial order, with
    the high half-word a chunk leaves over carried to the next chunk and to
    the next scale; successive draws so carried concatenate to one draw per
    scale.  The walk starts from, and leaves behind, the half-word PCG64
    keeps in its state, as ``integers`` would.  The estimates, and so the
    report bits, depend on this half-word order, which holds for PCG64 only:
    any other bit generator raises TypeError.

    Lazy compaction: a hit trial stays hit whatever its later digits are.
    The held trials keep their original order in the first m rows of the
    one (trials, N) shift array, and a per-row hit mask counts the held
    trials hit so far.  A hit row stays in place, and its later verdicts are
    discarded, until at least half of the held rows are hit; then the rest
    are moved up, in order, and the trials dropped are marked in a
    per-trial mask, which maps each chunk of draws to its held rows.  The
    draws are still made for all trials, and each held trial reads the
    digits of its own trial, so every trial sees the shifts and verdicts of
    the uncompacted walk bit for bit.  The walk stops once every held trial
    is hit, and never draws the digits of the last scale: the count is fixed
    by then and the generator belongs to the caller, so the skipped draws
    change nothing observable.  Besides the shift array and the two masks,
    the scratch arrays hold one chunk.

    The remainder needs no division: after the scale-j step the shift lies
    in [0, 2^j].  It starts below 2^base, each step adds at most 2^(j-1) to
    a value of at most 2^(j-1), and rounding is monotone.  So
    fmod(shift, 2^j) is the shift itself except at shift = 2^j, where it is
    0 (``_period_minus_remainder``).
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError("shift_walk_hits reads its digits from PCG64 words in "
                        "PCG64's half-word order; got a generator over "
                        f"{type(bitgen).__name__}")
    shift = rng.uniform(0.0, 2.0 ** base, size=(trials, dimension))
    spare = _spare_half(bitgen)
    rows = max(1, _WALK_CHUNK // dimension)         # trials per chunk
    pos = np.empty((min(rows, trials), dimension))
    held_words = np.empty(pos.shape, dtype="<u4")
    digits = np.empty(pos.shape, dtype=bool)
    flags = np.empty(pos.shape, dtype=bool)
    hit = np.zeros(trials, dtype=bool)    # by held row: hit since it was held
    dropped = None                        # by trial: compacted away
    m = trials                            # the held rows are shift[:m]
    caught = 0                            # the held rows hit
    for j in range(base, stop):
        period = 2.0 ** j
        h = 0                             # the first held row of the chunk
        for a in range(0, trials, rows):
            b = min(a + rows, trials)
            if dropped is None:
                k = b - a
            else:
                held = np.logical_not(dropped[a:b])
                k = int(np.count_nonzero(held))
            s, p = shift[h:h + k], pos[:k]
            if j > base:
                words, spare = _uint32_words(bitgen, (b - a) * dimension, spare)
                words = words.reshape(b - a, dimension)
                if dropped is not None:
                    words = np.compress(held, words, axis=0, out=held_words[:k])
                np.greater_equal(words, 2 ** 31, out=digits[:k])    # the top bit
                np.add(s, np.multiply(digits[:k], 2.0 ** (j - 1), out=p), out=s)
                del words
            if j >= first and k:
                event(period, _period_minus_remainder(s, period, p), flags[:k])
                hit_k = hit[h:h + k]
                for axis in range(dimension):
                    np.logical_or(hit_k, flags[:k, axis], out=hit_k)
            h += k
        if j < first:
            continue
        caught = int(np.count_nonzero(hit[:m]))
        if caught == m:
            break
        # compacting at every scale with a hit would move nearly all held
        # rows at nearly every scale for a few hits
        if 2 * caught >= m:
            if dropped is None:
                dropped = hit.copy()
            else:
                dropped[~dropped] = hit[:m]
            kept = 0
            for a in range(0, m, rows):
                b = min(a + rows, m)
                keep = np.logical_not(hit[a:b])
                count = int(np.count_nonzero(keep))
                # the rows move up, never past a row still to be read
                np.compress(keep, shift[a:b], axis=0, out=pos[:count])
                shift[kept:kept + count] = pos[:count]
                kept += count
            hit[:kept] = False
            m, caught = kept, 0
    _keep_spare_half(bitgen, spare)
    return trials - m + caught


def bad_probability_mc(dimension: int, q_scale: int, n: int, params: DyadicParams,
                       trials: int, seed: int,
                       extra_scales: Optional[int] = None) -> Tuple[float, float]:
    """Monte-Carlo estimate of P[Q is n-bad] over independent random systems.

    The cube Q = [0, 2^q_scale)^N is fixed and the other system is resampled
    each trial.  Per scale j, the event "some R in the scale-j grid has its
    boundary within the collar threshold of Q" depends only on the position
    of Q inside its cell, which is computed in closed form, so no cubes are
    enumerated.  Scales are scanned from the badness gap up to a tail cutoff
    whose contribution is far below the Monte-Carlo standard error.

    The low-order digits below q_scale act as one shared uniform offset;
    ``shift_walk_hits`` builds the nested shifts scale by scale, drops a
    trial once it is bad (badness only accumulates) and stops when every
    trial is bad.
    """
    if trials < 1000:
        raise ValueError("need at least 1e3 trials")
    rng = rng_for(seed, f"badmc:{dimension}:{q_scale}:{n}")
    gap = max(n, params.r)
    if extra_scales is None:
        extra_scales = max(12, math.ceil(16.0 / params.gamma))
    side = 2.0 ** q_scale

    def near_boundary(period, pos, flags):
        thr = side ** params.gamma * period ** (1.0 - params.gamma)
        # Q is bad at scale j when its margin min(pos, period - pos - side)
        # to the faces of its cell is at most thr, that is when either term
        # is.  Where Q straddles a face (pos + side > period, which includes
        # pos = period where fmod(shift, period) is 0) the second term is
        # negative, so Q is bad there with no separate test: side <= period/2
        # makes period - pos exact, and the exact difference is then < 0
        np.less_equal(pos, thr, out=flags)
        np.subtract(period, pos, out=pos)
        pos -= side
        flags |= pos <= thr

    bad = shift_walk_hits(rng, trials, dimension, q_scale, q_scale + gap,
                          q_scale + gap + extra_scales + 1, near_boundary)
    p_hat = bad / trials
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-30) / trials)
    return p_hat, stderr


# =============================================================================
# Dump / replay
# =============================================================================

def dumps_system(system: DyadicSystem) -> str:
    return json.dumps({
        "dimension": system.dimension,
        "k_min": system.k_min,
        "s": system.s,
        "betas": [list(b) for b in system.betas],
        "top_index": list(system.top_index),
    }, sort_keys=True, indent=2) + "\n"


def loads_system(text: str) -> DyadicSystem:
    data = json.loads(text)
    return DyadicSystem(
        dimension=int(data["dimension"]),
        k_min=int(data["k_min"]),
        s=int(data["s"]),
        betas=tuple(tuple(int(v) for v in b) for b in data["betas"]),
        top_index=tuple(int(v) for v in data["top_index"]),
    )
