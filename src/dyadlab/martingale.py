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
from typing import Dict

import numpy as np

from dyadlab.accretive import AccretiveSystem, Layers
from dyadlab.grid import Cube, GridIndex
from dyadlab.measure import AtomicMeasure, integrate, mult, restrict

__all__ = [
    "MartingaleContext",
    "expectation",
    "diff",
    "adapted_expectation",
    "adapted_diff",
    "adapted_diff_local",
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

        n = mu.atom_count
        self.b_adapted: Dict[int, np.ndarray] = {}
        self.eb_adapted: Dict[int, np.ndarray] = {}
        self.chi: Dict[int, np.ndarray] = {}

        top_key = self.system.top_cube().key
        layer_set = {key for gen in layers.generations for key in gen}
        for k in self.scales:
            b_k = np.empty(n)
            chi_k = np.zeros(n, dtype=bool)
            for cube in index.occupied(k):
                atoms = index.atoms_of(cube)
                b_k[atoms] = self.b_anc(cube)[atoms]
                if cube.key in layer_set and cube.key != top_key:
                    chi_k[atoms] = True
            self.b_adapted[k] = b_k
            self.eb_adapted[k] = self._average_by_cube(b_k, k)
            self.chi[k] = chi_k
            self._guard(k)

    # -- internals ---------------------------------------------------------
    def _average_by_cube(self, values: np.ndarray, k: int) -> np.ndarray:
        w = self.measure.weights
        cid = self.index.cube_ids(k)
        mass = self.index.masses(k)
        columns = values.reshape(values.shape[0], -1)     # scalar values: one column
        out = np.empty_like(columns)
        for j in range(columns.shape[1]):
            sums = np.bincount(cid, weights=w * columns[:, j], minlength=mass.size)
            out[:, j] = (sums / mass)[cid]
        return out.reshape(values.shape)

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
    """D^a_Q f = 1_Q D^a_k f for Q at scale k."""
    return restrict(adapted_diff(ctx, values, cube.scale), ctx.index.atoms_of(cube))


def phi(ctx: MartingaleContext, cube: Cube, i: int) -> np.ndarray:
    """The frame function of the child expansion of D^a_Q.

    phi_{Q,i} = b_{Q_i^a} / <b_{Q_i^a}>_{Q_i} 1_{Q_i}
                - (mu(Q_i) / mu(Q)) b_{Q^a} / <b_{Q^a}>_Q 1_Q,

    identically zero when the child carries no mass.  It is supported on Q,
    has exact mean zero, and |phi| <= 2 / delta^2 pointwise.
    """
    mu = ctx.measure
    index = ctx.index
    child = cube.children()[i]
    out = np.zeros(mu.atom_count)
    atoms_child = index.atoms_of(child)
    if atoms_child.size == 0:
        return out
    atoms_cube = index.atoms_of(cube)
    mass_child = index.mass_of(child)
    mass_cube = index.mass_of(cube)

    b_child = ctx.b_adapted[child.scale]
    b_cube = ctx.b_adapted[cube.scale]
    mean_child = integrate(mu, b_child, atoms_child) / mass_child
    mean_cube = integrate(mu, b_cube, atoms_cube) / mass_cube

    out[atoms_child] += b_child[atoms_child] / mean_child
    out[atoms_cube] -= (mass_child / mass_cube) * b_cube[atoms_cube] / mean_cube
    return out


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
