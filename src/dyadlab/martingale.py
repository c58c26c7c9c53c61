"""Adapted martingale calculus on an atomic measure.

Plain conditional expectations average over the cubes of one scale; the
adapted versions weight them by the stopped test function

    b_k = sum_{Q in D_k} 1_Q b_{Q^a},    E^a_k f = b_k E_k f / E_k b_k,

whose averages E_k b_k stay >= delta^2 in modulus at every atom because the
ancestor map only stops where the averaged test function degenerates.  The
adapted differences D^a_k = E^a_{k-1} - E^a_k telescope exactly over the
finite window: at the isolation scale every atom sits alone in its cube, so
E^a_{k_min} f = f atomwise and the reconstruction has no truncation error.

All operators here are scalar multipliers combined with cube averaging, so
they act on lattice-valued functions coordinatewise; each one can also be
materialized as an explicit matrix on atom space, which makes adjointness a
literal weighted-transpose statement and keeps every identity testable at
machine precision.

The set {b_{k-1} != b_k} is by definition the union of the scale-(k-1) layer
cubes other than the top cube (not the pointwise disequality, which could
accidentally fail at individual atoms); the correction function

    omega_k = 1_{that set} (b_k / E_k b_k  -  b_{k-1} E_{k-1} b_k
                            / (E_{k-1} b_{k-1} E_k b_k))

measures the failure of D^a_k to be a projection: (D^a_k)^2 = D^a_k +
omega_k E_k.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from dyadlab.accretive import AccretiveSystem, Layers
from dyadlab.grid import Cube, CubeKey, GridIndex
from dyadlab.measure import AtomicMeasure, mult, restrict

__all__ = [
    "MartingaleContext",
    "expectation",
    "diff",
    "adapted_expectation",
    "adapted_diff",
    "adapted_diff_local",
    "cube_integrals",
    "frame_block",
    "phi",
    "omega",
    "adapted_adjoint_expectation",
    "adapted_diff_adjoint",
    "reconstruct",
    "expectation_matrix",
    "adapted_expectation_matrix",
    "adapted_diff_matrix",
    "weighted_adjoint",
]


class BrokenAccretivityError(RuntimeError):
    """Raised when |E_k b_k| dips below delta^2 / 2 at some atom."""


# =============================================================================
# Context
# =============================================================================

class MartingaleContext:
    """Caches the stopped test functions and layer sets of each scale.

    Parameters
    ----------
    mu, index, system_b, layers:
        The measure, its grid index, the accretive system on the occupied
        cubes, and the stopping layers built from it.
    """

    def __init__(self, mu: AtomicMeasure, index: GridIndex,
                 system_b: AccretiveSystem, layers: Layers):
        self.measure = mu
        self.index = index
        self.accretive = system_b
        self.layers = layers
        self.system = index.system
        self.delta = system_b.delta

        self.b_adapted: Dict[int, np.ndarray] = {}
        self.eb_adapted: Dict[int, np.ndarray] = {}
        self.chi: Dict[int, np.ndarray] = {}

        # b_k at an atom is b_{Q^a} there, Q its scale-k cube: read from one
        # row per scale of ancestor values (the ancestors of one scale are
        # disjoint), and 0 where Q^a misses the atom
        scales = list(self.scales)
        row_of = {k: r for r, k in enumerate(scales)}
        atoms = np.arange(mu.atom_count)
        cube_ids = index.cube_id_rows()
        held = np.zeros(cube_ids.shape)
        placed: Dict[CubeKey, Tuple[int, int]] = {}

        def place(key: CubeKey) -> Tuple[int, int]:
            vals = system_b.on_key(key)
            p = index.position(key)
            if p is None:                       # holds no atom: b_{Q^a} is 0 on Q
                return 0, -1
            held[row_of[key[0]], index.atoms_at(key[0], p)] = vals
            return row_of[key[0]], p

        layer = layers.marks(index)
        layer[self.system.s][:] = False        # the top cube, the one cube of scale s
        for k in scales:
            anc = [placed.get(a) or placed.setdefault(a, place(a))
                   for a in map(layers.ancestor.__getitem__, index.cube_keys(k))]
            ids = index.cube_ids(k)
            rows, positions = np.array(anc, dtype=np.int64).reshape(-1, 2)[ids].T
            self.b_adapted[k] = np.where(cube_ids[rows, atoms] == positions,
                                         held[rows, atoms], 0.0)
            self.eb_adapted[k] = self._average_by_cube(self.b_adapted[k], k)
            self.chi[k] = layer[k][ids]
            self._guard(k)

    # -- internals ---------------------------------------------------------
    def _average_by_cube(self, values: np.ndarray, k: int) -> np.ndarray:
        w = self.measure.weights
        cid = self.index.cube_ids(k)
        mass = self.index.masses(k)
        columns = values.reshape(values.shape[0], -1)     # scalar values: one column
        # one bincount over every column, column j in bins j * cubes + cid:
        # each bin still adds its atoms' terms in atom order
        width = columns.shape[1]
        bins = (cid[:, None] + mass.size * np.arange(width)).ravel()
        sums = np.bincount(bins, weights=(w[:, None] * columns).ravel(),
                           minlength=mass.size * width).reshape(width, mass.size)
        return (sums / mass).T[cid].reshape(values.shape)

    def _guard(self, k: int) -> None:
        floor = np.min(np.abs(self.eb_adapted[k]))
        if floor < self.delta ** 2 / 2.0:
            raise BrokenAccretivityError(
                f"|E_k b_k| = {floor:.3e} < delta^2/2 at scale {k}; "
                "the stopping construction is broken")

    # -- conveniences --------------------------------------------------------
    @property
    def scales(self):
        return self.system.scales

    @property
    def diff_scales(self):
        """Scales k where D_k and D^a_k act: (k_min, s]."""
        return range(self.system.k_min + 1, self.system.s + 1)

    def chi_mask(self, k: int) -> np.ndarray:
        """Indicator of {b_k != b_{k+1}}: layer cubes at scale k, top excluded."""
        return self.chi[k]

    def b_anc(self, cube: Cube) -> np.ndarray:
        """b_{Q^a} on all atoms, for an occupied cube Q of this context's system.

        Q^a is the layer ancestor of Q (the smallest stopping cube containing
        it), and its test function is extended by zero outside Q^a.  This is
        the one place the ancestor map meets the accretive system.  On the
        atoms of Q, at scale k, b_{Q^a} equals ``b_adapted[k]``, which
        callers read there; this serves the reads of b_{Q^a} off Q.
        """
        anc = self.system.cube(*self.layers.ancestor[cube.key])
        return self.accretive.as_function(self.index, anc)


# =============================================================================
# Plain martingale operators
# =============================================================================

def expectation(ctx: MartingaleContext, values: np.ndarray, k: int) -> np.ndarray:
    """E_k: average over each scale-k cube, constant on its atoms."""
    return ctx._average_by_cube(np.asarray(values, dtype=float), k)


def diff(ctx: MartingaleContext, values: np.ndarray, k: int) -> np.ndarray:
    """D_k = E_{k-1} - E_k."""
    v = np.asarray(values, dtype=float)
    return expectation(ctx, v, k - 1) - expectation(ctx, v, k)


# =============================================================================
# Adapted operators
# =============================================================================

def adapted_expectation(ctx: MartingaleContext, values: np.ndarray, k: int) -> np.ndarray:
    """E^a_k f = b_k E_k f / E_k b_k (coordinatewise for lattice values)."""
    v = np.asarray(values, dtype=float)
    ratio = ctx.b_adapted[k] / ctx.eb_adapted[k]
    return mult(ratio, expectation(ctx, v, k))


def adapted_diff(ctx: MartingaleContext, values: np.ndarray, k: int) -> np.ndarray:
    """D^a_k f = E^a_{k-1} f - E^a_k f."""
    v = np.asarray(values, dtype=float)
    return adapted_expectation(ctx, v, k - 1) - adapted_expectation(ctx, v, k)


def adapted_diff_local(ctx: MartingaleContext, values: np.ndarray, cube: Cube) -> np.ndarray:
    """D^a_Q f = 1_Q D^a_k f for an occupied cube Q at scale k."""
    index, k = ctx.index, cube.scale
    return restrict(adapted_diff(ctx, values, k), index.atoms_at(k, index.position(cube.key)))


def cube_integrals(ctx: MartingaleContext, values: np.ndarray, k: int,
                   cubes: Optional[np.ndarray] = None) -> np.ndarray:
    """The integral of the scalar function ``values`` over each occupied
    scale-k cube, by position, or over the cubes at positions ``cubes``.

    One ``np.dot`` per cube of its weights and values, over its atoms in
    increasing order (``index.atoms_at(k, p)`` for the cube at position p):
    the bits of ``integrate(mu, values, index.atoms_at(k, p))``.
    """
    order, starts = ctx.index.atom_order(k), ctx.index.atom_starts(k)
    w, v = ctx.measure.weights[order], np.asarray(values, dtype=float)[order]
    lo, hi = (starts[:-1], starts[1:]) if cubes is None else (starts[cubes], starts[cubes + 1])
    return np.array([np.dot(w[a:b], v[a:b]) for a, b in zip(lo.tolist(), hi.tolist())],
                    dtype=float)


def _segments(starts: np.ndarray, stops: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(owner, position): the positions [starts[j], stops[j]) for each j in
    turn, each with its j."""
    counts = stops - starts
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts - starts, counts)


def frame_block(ctx: MartingaleContext, k: int, rows: slice = slice(None)) -> np.ndarray:
    """The frame functions of scale k as the rows of one array.

    One row per (Q, i) pair of ``index.child_table(k)`` in ``rows``, a slice
    of its rows (cubes Q by position, their occupied children Q_i in corner
    order):

    phi_{Q,i} = b_{Q_i^a} / <b_{Q_i^a}>_{Q_i} 1_{Q_i}
                - (mu(Q_i) / mu(Q)) b_{Q^a} / <b_{Q^a}>_Q 1_Q.

    It is supported on Q, has exact mean zero, and |phi| <= 2 / delta^2
    pointwise.  Each entry is (0 + b_{k-1} / <b_{k-1}>_{Q_i}) on Q_i, then
    less ((mu(Q_i) / mu(Q)) b_k) / <b_k>_Q on Q, and 0 off Q; each mean is
    one ``cube_integrals`` dot divided by the cube's mass.  So every row has
    the bits of ``phi`` of its pair, and a block of rows those of the whole.
    """
    index = ctx.index
    if k <= ctx.system.k_min:
        raise ValueError("children would leave the scale window")
    _, kids, _ = index.child_table(k)
    kids = kids[rows]
    cubes = index.parents(k - 1)[kids]
    mass_child, mass_cube = index.masses(k - 1)[kids], index.masses(k)[cubes]
    b_child, b_cube = ctx.b_adapted[k - 1], ctx.b_adapted[k]
    mean_child = cube_integrals(ctx, b_child, k - 1, kids) / mass_child
    # the rows of one cube are adjacent: its mean once, for all of them
    first = np.ones(cubes.size, dtype=bool)
    first[1:] = cubes[1:] != cubes[:-1]
    mean_cube = cube_integrals(ctx, b_cube, k, cubes[first])[np.cumsum(first) - 1] / mass_cube

    out = np.zeros((kids.size, ctx.measure.atom_count))
    starts = index.atom_starts(k - 1)
    r, pos = _segments(starts[kids], starts[kids + 1])
    atoms = index.atom_order(k - 1)[pos]
    out[r, atoms] += b_child[atoms] / mean_child[r]
    starts = index.atom_starts(k)
    r, pos = _segments(starts[cubes], starts[cubes + 1])
    atoms = index.atom_order(k)[pos]
    out[r, atoms] -= (mass_child / mass_cube)[r] * b_cube[atoms] / mean_cube[r]
    return out


def phi(ctx: MartingaleContext, cube: Cube, i: int) -> np.ndarray:
    """The frame function phi_{Q,i} of the child expansion of D^a_Q.

    The row of ``frame_block`` for Q and its child Q_i = Q.children()[i],
    and identically zero when the child carries no mass.
    """
    k = cube.scale
    if k <= ctx.system.k_min:
        raise ValueError("children would leave the scale window")
    if not 0 <= i < 2 ** ctx.system.dimension:
        raise IndexError(f"child {i} of a cube in dimension {ctx.system.dimension}")
    p = ctx.index.position(cube.key)
    if p is not None:
        starts, _, corners = ctx.index.child_table(k)
        hit = np.flatnonzero(corners[starts[p]:starts[p + 1]] == i)
        if hit.size:
            row = int(starts[p] + hit[0])
            return frame_block(ctx, k, slice(row, row + 1))[0]
    return np.zeros(ctx.measure.atom_count)


def omega(ctx: MartingaleContext, k: int) -> np.ndarray:
    """The projection defect omega_k of (D^a_k)^2 = D^a_k + omega_k E_k."""
    chi = ctx.chi_mask(k - 1).astype(float)
    bk, ebk = ctx.b_adapted[k], ctx.eb_adapted[k]
    bk1, ebk1 = ctx.b_adapted[k - 1], ctx.eb_adapted[k - 1]
    e_prev_bk = expectation(ctx, bk, k - 1)
    return chi * (bk / ebk - (bk1 / ebk1) * (e_prev_bk / ebk))


def adapted_adjoint_expectation(ctx: MartingaleContext, values: np.ndarray, k: int) -> np.ndarray:
    """(E^a_k)^* g = E_k(b_k g) / E_k b_k."""
    v = np.asarray(values, dtype=float)
    return mult(1.0 / ctx.eb_adapted[k], expectation(ctx, mult(ctx.b_adapted[k], v), k))


def adapted_diff_adjoint(ctx: MartingaleContext, values: np.ndarray, k: int) -> np.ndarray:
    """(D^a_k)^* g = (E^a_{k-1})^* g - (E^a_k)^* g."""
    v = np.asarray(values, dtype=float)
    return (adapted_adjoint_expectation(ctx, v, k - 1)
            - adapted_adjoint_expectation(ctx, v, k))


# =============================================================================
# Reconstruction
# =============================================================================

@dataclass
class Reconstruction:
    diff_terms: Dict[int, np.ndarray]
    residual: float


def reconstruct(ctx: MartingaleContext, values: np.ndarray) -> Reconstruction:
    """Telescoping expansion f = E^a_s f + sum_{k_min < k <= s} D^a_k f.

    The top term equals b_{Q_0} <f> / <b_{Q_0}> at every atom, and the finite
    sum is exact because atoms are isolated at the bottom scale.  Residual is
    reported in the sup norm relative to ||f||_inf.
    """
    v = np.asarray(values, dtype=float)
    top = adapted_expectation(ctx, v, ctx.system.s)
    diffs = {k: adapted_diff(ctx, v, k) for k in ctx.diff_scales}
    total = top + sum(diffs.values())
    scale = float(np.max(np.abs(v))) or 1.0
    residual = float(np.max(np.abs(v - total))) / scale
    return Reconstruction(diffs, residual)


# =============================================================================
# Matrix realizations (identity tests, exact adjoints)
# =============================================================================

def expectation_matrix(ctx: MartingaleContext, k: int, rows=slice(None)) -> np.ndarray:
    """Dense matrix of E_k on atom space, or its rows ``rows`` (a slice or
    index array): block-constant row averages w_j / mu(Q) where atoms i and j
    share the cube Q, zero elsewhere."""
    w = ctx.measure.weights
    cid = ctx.index.cube_ids(k)
    row_cid = cid[rows]
    mass = ctx.index.masses(k)[row_cid]
    return np.where(row_cid[:, None] == cid[None, :], w[None, :] / mass[:, None], 0.0)


def adapted_expectation_matrix(ctx: MartingaleContext, k: int, rows=slice(None)) -> np.ndarray:
    ratio = ctx.b_adapted[k] / ctx.eb_adapted[k]
    return ratio[rows][:, None] * expectation_matrix(ctx, k, rows)


def adapted_diff_matrix(ctx: MartingaleContext, k: int, rows=slice(None)) -> np.ndarray:
    """The matrix of D^a_k, or its rows ``rows``; each entry is the one
    subtraction of the whole matrix, so a row block has the whole matrix's
    bits."""
    return (adapted_expectation_matrix(ctx, k - 1, rows)
            - adapted_expectation_matrix(ctx, k, rows))


def weighted_adjoint(mu: AtomicMeasure, matrix: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Adjoint with respect to the mu-weighted pairing: W^-1 M^T W.

    Given the rows ``rows`` of M as ``matrix``, returns the matching columns
    of the adjoint, entry for entry the bits of the whole adjoint's.
    """
    w = mu.weights
    return (matrix.T * w[rows][None, :]) / w[:, None] * 1.0
