"""Kernels and discrete singular operators on atomic measures.

A kernel spec carries its size constant, smoothness constant and exponent
explicitly; the discrete operator is the atoms-by-atoms action matrix
M[x][y] = K(x, y) w(y) with zero diagonal, so the bilinear form <psi, T phi>
is an explicit double sum and the adjoint is the literal transpose with the
kernel arguments swapped.

The matrix decomposition machinery lives here: classification of cube pairs
into separated / deeply nested / comparable / bad, the exact ledger
reproducing <g, Tf> from adapted-difference blocks plus two boundary terms,
off-diagonal decay checks with an explicit constant chain, paraproduct
assembly via the stopping map S(Q), collar partitions of comparable pairs,
and the Monte-Carlo boundary-collar probability.  The ledger and the decay
check record their per-pair rows as columns, as ``SuiteReport.tables`` holds.

Every asserted decay bound is scaled by the kernel constants and by the
derived test-function bounds (2 / delta^2 for the frame functions); the
safety factor 2^(d + alpha + 1) absorbs absolute constants from the chain of
elementary estimates (ring decompositions, midpoint smoothness, growth of
the measure at dyadic radii).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from dyadlab._seeds import rng_for
from dyadlab.accretive import AccretiveSystem
from dyadlab.grid import (Cube, DyadicParams, DyadicSystem, GridIndex, contains,
                          long_distance, set_distance, shift_walk_hits, witness_scale)
from dyadlab.martingale import (MartingaleContext, adapted_diff, adapted_diff_adjoint,
                                adapted_diff_local, adapted_expectation, frame_block,
                                omega)
from dyadlab.measure import AtomicMeasure, integrate, lp_norm, pair, restrict

__all__ = [
    "KernelSpec",
    "DiscreteOperator",
    "PairClass",
    "PAIR_CLASSES",
    "PairClassifier",
    "riesz_kernel",
    "dipole_kernel",
    "hilbert_kernel",
    "kernel_by_name",
    "validate_kernel",
    "chain_constant",
    "measure_testing_bound",
    "pairing_decomposition",
    "decay_bound_check",
    "decay_slope_fit",
    "paraproduct_smap",
    "paraproduct_apply",
    "paraproduct_direct_pairing",
    "comparable_partition",
    "comparable_msum",
    "collar_membership",
    "boundary_probability",
    "COLLAR_MIN_TRIALS",
]


# =============================================================================
# Kernels
# =============================================================================

@dataclass(frozen=True)
class KernelSpec:
    """A scalar kernel with certified size / smoothness constants.

    ``evaluate(x, y)`` takes (a, N) and (b, N) position blocks and returns the
    (a, b) kernel matrix; the diagonal convention (x = y) is handled by the
    operator, not the kernel.
    """

    name: str
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    c_size: float
    c_smooth: float
    alpha: float
    d: float


def riesz_kernel(d: float) -> KernelSpec:
    """K(x, y) = min(1, |x - y|^-d): even, positive, truncated at unit height."""
    def ev(x, y):
        dist = _sup_dist(x, y)
        safe = np.where(dist > 0, dist, 1.0)
        return np.where(dist > 0, np.minimum(1.0, safe ** (-d)), 1.0)
    return KernelSpec("riesz", ev, 1.0, d * 2.0 ** (d + 1.0), 1.0, d)


def dipole_kernel(d: float) -> KernelSpec:
    """K(x, y) = (x_1 - y_1) / |x - y|^(d+1): antisymmetric, first-moment type."""
    def ev(x, y):
        dist = _sup_dist(x, y)
        num = x[:, None, 0] - y[None, :, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(dist > 0, num / np.where(dist > 0, dist, 1.0) ** (d + 1.0), 0.0)
        return out
    return KernelSpec("dipole", ev, 1.0, (d + 2.0) * 2.0 ** (d + 2.0), 1.0, d)


def hilbert_kernel(d: float) -> KernelSpec:
    """K(x, y) = sign(x - y) / |x - y|^d in one dimension: odd, homogeneous."""
    def ev(x, y):
        diff = x[:, None, 0] - y[None, :, 0]
        dist = np.abs(diff)
        safe = np.where(dist > 0, dist, 1.0)
        return np.where(dist > 0, np.sign(diff) * safe ** (-d), 0.0)
    return KernelSpec("hilbert", ev, 1.0, (d + 1.0) * 2.0 ** (d + 1.0), 1.0, d)


def kernel_by_name(name: str, d: float) -> KernelSpec:
    if name == "riesz":
        return riesz_kernel(d)
    if name == "dipole":
        return dipole_kernel(d)
    if name == "hilbert":
        return hilbert_kernel(d)
    raise ValueError(f"unknown kernel {name!r}")


def _sup_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.max(np.abs(x[:, None, :] - y[None, :, :]), axis=-1)


def validate_kernel(spec: KernelSpec, mu: AtomicMeasure, seed: int = 5) -> dict:
    """Sampled size and smoothness checks on 400 pairs / triples of atom positions."""
    rng = rng_for(seed, f"kernel:{spec.name}")
    n = mu.atom_count
    worst_size = 0.0
    worst_smooth = 0.0
    for _ in range(400):
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        xa, xb = mu.positions[a], mu.positions[b]
        dist = float(np.max(np.abs(xa - xb)))
        kval = float(spec.evaluate(xa[None, :], xb[None, :])[0, 0])
        worst_size = max(worst_size, abs(kval) * dist ** spec.d / spec.c_size)
        # perturb x toward a third atom and test smoothness in both slots
        c = rng.integers(0, n)
        xc = mu.positions[c]
        step = 0.25 * dist
        direction = xc - xa
        nrm = float(np.max(np.abs(direction)))
        if nrm == 0.0:
            continue
        xap = xa + direction / nrm * step
        move = float(np.max(np.abs(xap - xa)))
        if 2.0 * move > dist or move == 0.0:
            continue
        k1 = float(spec.evaluate(xap[None, :], xb[None, :])[0, 0])
        k2 = float(spec.evaluate(xb[None, :], xa[None, :])[0, 0])
        k3 = float(spec.evaluate(xb[None, :], xap[None, :])[0, 0])
        lhs = abs(kval - k1) + abs(k2 - k3)
        bound = spec.c_smooth * move ** spec.alpha / dist ** (spec.d + spec.alpha)
        worst_smooth = max(worst_smooth, lhs / bound if bound > 0 else 0.0)
    return {"size_ratio": worst_size, "smooth_ratio": worst_smooth,
            "passed": worst_size <= 1.0 + 1e-9 and worst_smooth <= 1.0 + 1e-9}


# =============================================================================
# The discrete operator
# =============================================================================

class DiscreteOperator:
    """T f(x) = sum_{y != x} K(x, y) f(y) w(y), realized as a dense matrix.

    The diagonal is zero by convention: the defining integral representation
    only constrains the action away from the support of the argument, and
    every estimate the matrix feeds pairs functions with disjoint supports or
    mean zero.  Reported operator quantities therefore refer to the
    off-diagonal part.
    """

    def __init__(self, kernel: KernelSpec, mu: AtomicMeasure):
        self.kernel = kernel
        self.measure = mu
        kmat = kernel.evaluate(mu.positions, mu.positions)
        np.fill_diagonal(kmat, 0.0)
        self.kernel_matrix = kmat
        self.action = kmat * mu.weights[None, :]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.action @ np.asarray(values, dtype=float)

    def adjoint_apply(self, values: np.ndarray) -> np.ndarray:
        """T* g(x) = sum_{y != x} K(y, x) g(y) w(y)."""
        v = np.asarray(values, dtype=float)
        return (self.kernel_matrix.T * self.measure.weights[None, :]) @ v

    def row(self, psi: np.ndarray) -> np.ndarray:
        """The row (w psi) M of <psi, T .>, so <psi, T phi> = row(psi) @ phi.

        ``matrix_element`` is ``float(row(psi) @ phi)``.  Python evaluates
        the product (w psi) @ M @ phi left to right: this row first, then
        one dot product with phi.  So a caller pairing one psi with many phi
        may form the row once and take the dot products itself: the same
        two products on the same operands, so every value keeps its bits.
        """
        w = self.measure.weights
        return (w * np.asarray(psi, dtype=float)) @ self.action

    def matrix_element(self, psi: np.ndarray, phi_vals: np.ndarray) -> float:
        """<psi, T phi> = sum_{x != y} psi(x) K(x, y) phi(y) w(x) w(y)."""
        return float(self.row(psi) @ np.asarray(phi_vals, dtype=float))

    def bilinear(self, g: np.ndarray, f: np.ndarray) -> float:
        """<g, Tf> for scalar or lattice-valued f, g (coordinatewise action)."""
        rows = _coordinate_rows(self, np.asarray(g, dtype=float))
        return float(_pair_stack(rows, np.asarray(f, dtype=float)[None])[0])


def _coordinate_rows(op: DiscreteOperator, g: np.ndarray):
    """``op.row`` of g, or the list of rows of its coordinates if lattice-valued."""
    if g.ndim == 1:
        return op.row(g)
    return [op.row(g[:, j]) for j in range(g.shape[1])]


def _pair_stack(rows, fs: np.ndarray) -> np.ndarray:
    """<g, T f> for each f of the stack ``fs``, from ``_coordinate_rows(op, g)``.

    Each value is the dot product row @ f, per coordinate for lattice
    values, added over the coordinates left to right from 0.0.  numpy's
    matmul takes every (1 x n) @ (n x 1) product of a batch with the same
    dot routine, on the same strides, as the 1-D product row @ f, so each
    value keeps its bits; a matrix-vector product would sum in another
    order.
    """
    if fs.ndim == 2:
        return (rows[None, None, :] @ fs[:, :, None]).ravel()
    total = np.zeros(fs.shape[0])
    for j in range(fs.shape[2]):
        total += (rows[j][None, None, :] @ fs[:, :, j, None]).ravel()
    return total


def _sum_left(values) -> float:
    """The values added left to right from 0.0 (``np.sum`` adds pairwise, and
    builtin ``sum`` compensates from Python 3.12 on)."""
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def measure_testing_bound(op: DiscreteOperator, sys_b: AccretiveSystem,
                          index: GridIndex) -> float:
    """Measured sup bound of |T b_Q| over all occupied cubes (the constant B)."""
    worst = 0.0
    for k in index.system.scales:
        for cube in index.occupied(k):
            tb = op.apply(sys_b.as_function(index, cube))
            worst = max(worst, float(np.max(np.abs(tb))))
    return worst


def chain_constant(kernel: KernelSpec, delta: float) -> float:
    """The explicit constant chain 2^(d+alpha+1) (C_size v C_smooth) (2/delta^2)^2."""
    return (2.0 ** (kernel.d + kernel.alpha + 1.0)
            * max(kernel.c_size, kernel.c_smooth)
            * (2.0 / delta ** 2) ** 2)


# =============================================================================
# Pair classification
# =============================================================================

class PairClass(Enum):
    SEPARATED = "separated"
    DEEP_NESTED = "deep_nested"
    COMPARABLE = "comparable"
    BAD = "bad"


class GeometryError(RuntimeError):
    """A good pair matched no class: the goodness geometry is violated."""


# the pair classes by code, as ``PairClassifier.classify_block`` reports them
PAIR_CLASSES = (PairClass.SEPARATED, PairClass.DEEP_NESTED, PairClass.COMPARABLE,
                PairClass.BAD)
_SEPARATED, _DEEP_NESTED, _COMPARABLE, _BAD = range(4)
_UNMATCHED = -1     # a good pair that matches no class
_SKIPPED = -2       # a pair left unclassified (``_class_matrix``)
_NO_WITNESS = int(np.iinfo(np.int64).min)    # the profile of a cube no scale makes bad


class PairClassifier:
    """Memoized badness profiles for pairs between two fixed systems.

    One classifier lives on each fixture pair (``FixturePair.classifier``),
    so every pair-class consumer of that pair reads the same profiles and
    each cube is scanned once against each system.

    A cube's profile against the other system is its ``grid.witness_scale``,
    the largest scale at which that system's boundary comes within the
    collar threshold (``_NO_WITNESS`` when there is none); a cube is then
    n-bad exactly when scale(Q) + max(n, r) is at most that witness scale,
    which turns per-pair badness into one integer comparison.

    ``classify`` classifies one pair; ``classify_block`` classifies every
    pair of two one-scale cube lists at once with the same rules.
    """

    def __init__(self, params: DyadicParams):
        self.params = params
        self._profiles: Dict[Tuple[DyadicSystem, int, Tuple[int, ...]], int] = {}

    def _profile(self, q: Cube, other: DyadicSystem) -> int:
        key = (other, q.scale, q.index)
        if key not in self._profiles:
            j = witness_scale(q, other, self.params)
            self._profiles[key] = _NO_WITNESS if j is None else j
        return self._profiles[key]

    def is_bad(self, q: Cube, r: Cube) -> bool:
        return self._is_bad(q, r.system, r.scale)

    def _is_bad(self, q, other: DyadicSystem, r_scale: int):
        """Q is bad against every cube of the other system at scale r_scale.

        ``q`` is one cube, or a ``_CubeRun`` classified against ``other``,
        whose verdicts come as one boolean array from its profiles, read once.
        """
        if isinstance(q, _CubeRun):
            if q.jmax is None:
                q.jmax = np.array([self._profile(c, other) for c in q.cubes],
                                  dtype=np.int64)
            jmax = q.jmax
        else:
            jmax = self._profile(q, other)
        return q.scale + max(r_scale - q.scale - 1, self.params.r) <= jmax

    def classify(self, q: Cube, r: Cube) -> PairClass:
        """Classify a pair with l(Q) <= l(R); Q and R live in different systems."""
        if q.side > r.side:
            raise ValueError("classification requires l(Q) <= l(R)")
        if self.is_bad(q, r):
            return PairClass.BAD
        dist = set_distance(q, r)
        if 2.0 ** (-self.params.r) * r.side <= q.side and dist < q.side:
            return PairClass.COMPARABLE
        if q.side < 2.0 ** (-self.params.r) * r.side and contains(r, q):
            return PairClass.DEEP_NESTED
        if dist >= q.side:
            return PairClass.SEPARATED
        raise GeometryError(
            f"good pair {q.key} / {r.key} matches no class: dist={dist}, "
            f"sides=({q.side}, {r.side})")

    def classify_block(self, qs: Sequence[Cube], rs: Sequence[Cube]) -> np.ndarray:
        """Class codes of every pair (Q, R), Q in qs and R in rs, as an array.

        All Q share one scale k and one system, all R one scale j >= k and
        the other system.  Entry [a, b] is the index in ``PAIR_CLASSES`` of
        ``classify(qs[a], rs[b])``, or -1 where that raises GeometryError.
        Badness depends on Q and the two scales only, so it is one profile
        lookup per Q; the distances and containments compare the per-axis
        float bounds, which are dyadic and exact, so every code is the
        scalar class.
        """
        return self._classify_runs(_CubeRun(qs), _CubeRun(rs))

    def _classify_runs(self, q: "_CubeRun", r: "_CubeRun") -> np.ndarray:
        """``classify_block`` on two cube runs, which keep their bounds and
        profiles for the next block they take part in."""
        q_side, r_side = q.side, r.side
        bad = self._is_bad(q, r.system, r.scale)
        ql, qu, rl, ru, dist = _pair_bounds(q.bounds, r.bounds)
        # later assignments take precedence, in the order ``classify`` tests
        codes = np.full(dist.shape, _UNMATCHED, dtype=np.int8)
        codes[dist >= q_side] = _SEPARATED
        if q_side < 2.0 ** (-self.params.r) * r_side:
            codes[np.all((rl <= ql) & (qu <= ru), axis=2)] = _DEEP_NESTED
        if 2.0 ** (-self.params.r) * r_side <= q_side:
            codes[dist < q_side] = _COMPARABLE
        codes[bad] = _BAD
        return codes


def _bounds_array(cubes: Sequence[Cube]) -> np.ndarray:
    """The per-axis (lower, upper) bounds of the cubes as one (n, N, 2) array."""
    return np.array([c.bounds for c in cubes])


class _CubeRun:
    """The cubes of one scale in one system, as the pair blocks read them.

    ``bounds`` is their ``_bounds_array``; ``jmax``, their badness profiles
    against the one system the run is classified against, is filled by
    ``PairClassifier._is_bad`` on first use.  A run built once serves every
    block it takes part in.
    """

    def __init__(self, cubes: Sequence[Cube]):
        self.cubes = cubes
        self.system, self.scale, self.side = cubes[0].system, cubes[0].scale, cubes[0].side
        self.bounds = _bounds_array(cubes)
        self.jmax: Optional[np.ndarray] = None


def _pair_bounds(qb: np.ndarray, rb: np.ndarray):
    """From the ``_bounds_array`` of the Qs and of the Rs: the per-axis bounds
    (lower, upper) of the Qs as (Q, 1, N) and of the Rs as (1, R, N), and the
    (Q, R) ``set_distance``: exact, since the bounds are dyadic."""
    qb, rb = qb[:, None], rb[None, :]
    ql, qu, rl, ru = qb[..., 0], qb[..., 1], rb[..., 0], rb[..., 1]
    return ql, qu, rl, ru, np.maximum(np.maximum(ql - ru, rl - qu).max(axis=2), 0.0)


def _scale_runs(cubes: Sequence[Cube]) -> List[Tuple[int, int]]:
    """(start, stop) of each run of consecutive cubes on one scale."""
    starts = [i for i in range(len(cubes))
              if i == 0 or cubes[i].scale != cubes[i - 1].scale]
    return list(zip(starts, starts[1:] + [len(cubes)]))


def _class_matrix(classifier: PairClassifier, rs: Sequence[Cube], qs: Sequence[Cube],
                  smaller_q_only: bool = False) -> np.ndarray:
    """Class codes of every pair (R, Q), R in rs and Q in qs, in list order.

    Each list holds the cubes of one system, grouped by scale.  The smaller
    cube is classified against the larger one's system (Q when the sides are
    equal).  With ``smaller_q_only`` the pairs with l(Q) > l(R) are left
    unclassified (-2).  A good pair that matches no class raises
    GeometryError, as ``classify`` does.  Each scale run of either list is
    one ``_CubeRun``, so its bounds and profiles are read once for all its
    blocks.
    """
    codes = np.full((len(rs), len(qs)), _SKIPPED, dtype=np.int8)
    q_runs = [(q0, q1, _CubeRun(qs[q0:q1])) for q0, q1 in _scale_runs(qs)]
    for r0, r1 in _scale_runs(rs):
        r_run = _CubeRun(rs[r0:r1])
        for q0, q1, q_run in q_runs:
            if q_run.scale <= r_run.scale:
                codes[r0:r1, q0:q1] = classifier._classify_runs(q_run, r_run).T
            elif not smaller_q_only:
                codes[r0:r1, q0:q1] = classifier._classify_runs(r_run, q_run)
    unmatched = np.argwhere(codes == _UNMATCHED)
    if unmatched.size:
        a, b = unmatched[0]
        small, large = sorted((qs[b], rs[a]), key=lambda c: c.scale)
        classifier.classify(small, large)      # raises with the pair's geometry
        raise GeometryError(f"good pair {small.key} / {large.key} matches no class")
    return codes


# =============================================================================
# The exact ledger
# =============================================================================

@dataclass
class PairLedger:
    block_sum: float
    boundary_small: float        # <T* top_g, f - top_f>
    boundary_large: float        # <g, T top_f>
    identity_residual: float
    class_mass: Dict[str, float]
    pair_table: Dict[str, Sequence]   # columns q, r, class, value, long_distance

    @property
    def bad_fraction(self) -> float:
        total = _sum_left(list(self.class_mass.values()))
        return self.class_mass.get("bad", 0.0) / total if total > 0 else 0.0


def pairing_decomposition(op: DiscreteOperator, ctx_f: MartingaleContext,
                          ctx_g: MartingaleContext, f: np.ndarray, g: np.ndarray,
                          classifier: PairClassifier) -> PairLedger:
    """Decompose <g, Tf> into adapted blocks plus two boundary terms.

    The block matrix is <D_R g, T(D_Q f)> over occupied cubes of the two
    systems, bucketed by pair class (the smaller cube is classified against
    the larger one's system).  The ledger identity

        sum of blocks + <top_g, T(f - top_f)> + <g, T top_f> = <g, Tf>

    is exact up to roundoff because the adapted reconstruction has no
    truncation error on the finite window.

    Sums add the pairs left to right in (R, Q) order, the row order of
    ``pair_table``; ``class_mass`` has its classes in order of appearance.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)

    q_cubes, f_blocks = _local_diff_blocks(ctx_f, f)
    r_cubes, g_blocks = _local_diff_blocks(ctx_g, g)
    top_f = adapted_expectation(ctx_f, f, ctx_f.system.s)
    top_g = adapted_expectation(ctx_g, g, ctx_g.system.s)

    codes = _class_matrix(classifier, r_cubes, q_cubes).ravel()
    # one row of <D_R g, T .> per R; each pair is then one dot product
    values = np.array([_pair_stack(_coordinate_rows(op, dg), f_blocks)
                       for dg in g_blocks]).ravel()
    block_sum = _sum_left(values)
    names = np.array([cls.value for cls in PAIR_CLASSES], dtype=object)
    magnitudes = np.abs(values)
    class_mass = {names[codes[i]]: _sum_left(magnitudes[codes == codes[i]])
                  for i in sorted(np.unique(codes, return_index=True)[1])}

    *_, dist = _pair_bounds(_bounds_array(r_cubes), _bounds_array(q_cubes))  # (R, Q)
    # l(Q) + dist(Q, R) + l(R), added in the order of ``long_distance``
    long_dist = ((np.array([q.side for q in q_cubes]) + dist)
                 + np.array([r.side for r in r_cubes])[:, None])
    # each cube's key is made once and shared by its rows
    q_keys, r_keys = [q.key for q in q_cubes], [r.key for r in r_cubes]
    pair_table = {"q": q_keys * len(r_keys), "r": [k for k in r_keys for _ in q_keys],
                  "class": names[codes], "value": values,
                  "long_distance": long_dist.ravel()}

    boundary_small = op.bilinear(top_g, f - top_f)
    boundary_large = op.bilinear(g, top_f)
    total = op.bilinear(g, f)
    explained = block_sum + boundary_small + boundary_large
    scale = max(abs(total), 1e-30)
    residual = abs(total - explained) / scale
    return PairLedger(block_sum, boundary_small, boundary_large, residual,
                      class_mass, pair_table)


def _local_diff_blocks(ctx: MartingaleContext, values: np.ndarray):
    """The occupied cubes Q at the difference scales, and their local adapted
    differences D_Q values (D^a_k values on Q, 0 off Q) stacked in that order."""
    cubes = [cube for k in ctx.diff_scales for cube in ctx.index.occupied(k)]
    out = np.zeros((len(cubes),) + values.shape)
    atoms, first = np.arange(ctx.measure.atom_count), 0
    for k in ctx.diff_scales:
        out[first + ctx.index.cube_ids(k), atoms] = adapted_diff(ctx, values, k)
        first += ctx.index.masses(k).size
    return cubes, out


# =============================================================================
# Decay bounds
# =============================================================================

@dataclass
class DecayCheckResult:
    failures: List[dict] = field(default_factory=list)
    table: Dict[str, list] = field(default_factory=lambda: {
        name: [] for name in ("kind", "lq", "lr", "D", "value", "bound")})

    @property
    def checked(self) -> int:
        return len(self.table["value"])

    @property
    def worst_margin(self) -> float:
        """min over checks of bound/|value| (inf if value 0)."""
        return min((bound / val if val > 0 else math.inf
                    for val, bound in zip(self.table["value"], self.table["bound"])),
                   default=math.inf)

    @property
    def passed(self) -> bool:
        return not self.failures


def decay_bound_check(op: DiscreteOperator, ctx_f: MartingaleContext,
                      ctx_g: MartingaleContext, classifier: PairClassifier
                      ) -> DecayCheckResult:
    """Assert the off-diagonal decay bounds on separated and nested good pairs.

    Separated pairs (phi mean zero on the small cube) carry the smoothness
    bound l(Q)^alpha / dist^((d+alpha)) against the L^1 norms; in the
    deep-scale regime l(Q) <= 2^-r l(R) the combined long-distance form
    l(Q)^(a/2) l(R)^(a/2) / D(Q,R)^(d+a) with child masses is also asserted
    (for comparable sizes its constant degrades with r and only the
    smoothness form is binding).  Deeply nested pairs split over the children
    of R: off-children carry the long-distance bound scaled by mu(R)^-1, and
    the complement of the host child carries the pure (l(Q)/l(R))^(a/2)
    bound.  All bounds are scaled by the explicit chain constant.

    Only pairs across two systems are checked, and "two systems" means two
    ``DyadicSystem`` objects: contexts whose grid indexes hold the same
    object check nothing.  The two sides of a standard-grid ``FixturePair``
    hold equal but distinct systems, so they are checked; sharing one
    system object between them would empty the check.
    """
    c_chain = chain_constant(op.kernel, min(ctx_f.delta, ctx_g.delta))
    result = DecayCheckResult()
    if ctx_f.index.system is ctx_g.index.system:
        return result            # only pairs across two systems are checked
    f_menu = _pair_menu(ctx_f)
    g_menu = _pair_menu(ctx_g)
    codes = _class_matrix(classifier, [r for r, _ in g_menu], [q for q, _ in f_menu],
                          smaller_q_only=True)
    phi_l1: Dict[int, List[float]] = {}       # by position in the Q menu

    for (r_cube, psis), r_codes in zip(g_menu, codes):
        psi_rows = _RowCache(op)
        r_parts = None                  # formed at R's first nested Q
        for b, ((q_cube, phis), code) in enumerate(zip(f_menu, r_codes.tolist())):
            if code == _SEPARATED:
                if b not in phi_l1:
                    phi_l1[b] = [lp_norm(op.measure, v, 1.0) for _, _, v in phis]
                _check_separated(op, classifier.params.r, c_chain, q_cube, phis,
                                 phi_l1[b], r_cube, psis, psi_rows, result)
            elif code == _DEEP_NESTED:
                if r_parts is None:
                    r_parts = _nested_parts(ctx_g.index, r_cube)
                _check_nested(op, ctx_g, c_chain, q_cube, phis, r_cube, r_parts, psis,
                              psi_rows, result)
    return result


def _pair_menu(ctx: MartingaleContext):
    """The frame menu of every occupied cube Q at the difference scales.

    Each cube with an occupied child comes as (Q, entries); an entry is
    (i, mu(Q_i), values) for an occupied child Q_i, once with the frame
    function phi_{Q,i} and once more with the defect omega_Q restricted to
    Q_i unless that vanishes.  The child mass is read from the context's own
    grid index, so a cube of either system is measured by its own partition.
    The frame functions of a scale are the rows of one ``frame_block``.
    """
    index = ctx.index
    out = []
    for k in ctx.diff_scales:
        omega_k = omega(ctx, k)
        phis = frame_block(ctx, k)
        starts, kids, corners = index.child_table(k)
        masses = index.masses(k - 1).tolist()
        bounds = starts.tolist()
        for cube, lo, hi in zip(index.occupied(k), bounds[:-1], bounds[1:]):
            entries = []
            for r, i, p in zip(range(lo, hi), corners[lo:hi].tolist(), kids[lo:hi].tolist()):
                entries.append((i, masses[p], phis[r]))
                om = restrict(omega_k, index.atoms_at(k - 1, p))
                if np.any(om != 0.0):
                    entries.append((i, masses[p], om))
            if entries:
                out.append((cube, entries))
    return out


class _RowCache:
    """``op.row`` of the test functions of one R, each formed once by key and
    reused against every Q of the menu (see ``DiscreteOperator.row``)."""

    def __init__(self, op: DiscreteOperator):
        self.op = op
        self._rows: Dict[tuple, np.ndarray] = {}

    def get(self, key: tuple, make: Callable[[], np.ndarray]) -> np.ndarray:
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = self.op.row(make())
        return row


def _check_separated(op, r, c_chain, q_cube, phis, phi_l1s, r_cube, psis,
                     psi_rows, result):
    alpha, d = op.kernel.alpha, op.kernel.d
    dist = set_distance(q_cube, r_cube)
    ddist = long_distance(q_cube, r_cube)
    deep = q_cube.side <= 2.0 ** (-r) * r_cube.side
    for e, (_, mass_rj, psi_vals) in enumerate(psis):
        row = psi_rows.get(("psi", e), lambda: psi_vals)
        psi_l1 = lp_norm(op.measure, psi_vals, 1.0)
        for (_, mass_qi, phi_vals), phi_l1 in zip(phis, phi_l1s):
            val = abs(float(row @ phi_vals))
            bound = c_chain * q_cube.side ** alpha / dist ** (d + alpha) * phi_l1 * psi_l1
            _record(result, "separated-smooth", q_cube, r_cube, val, bound, ddist)
            if deep:
                bound2 = (c_chain * q_cube.side ** (alpha / 2.0)
                          * r_cube.side ** (alpha / 2.0) / ddist ** (d + alpha)
                          * mass_qi * mass_rj)
                _record(result, "separated-longdist", q_cube, r_cube, val, bound2, ddist)


def _nested_parts(index, r_cube):
    """What the nested checks read of R itself, once per R: its child cubes,
    its mass, and its occupied children by corner (from R's row of the child
    table)."""
    k = r_cube.scale
    p = index.position(r_cube.key)
    starts, positions, corners = index.child_table(k)
    lo, hi = starts[p], starts[p + 1]
    return (r_cube.children(), float(index.masses(k)[p]),
            dict(zip(corners[lo:hi].tolist(), positions[lo:hi].tolist())))


def _check_nested(op, ctx_g, c_chain, q_cube, phis, r_cube, r_parts, psis, psi_rows,
                  result):
    kids, mass_r, children = r_parts
    host = [m for m, child in enumerate(kids) if contains(child, q_cube)]
    if len(host) != 1:
        result.failures.append({"kind": "child-containment", "q": q_cube.key,
                                "r": r_cube.key})
        return
    host = host[0]
    index, k = ctx_g.index, r_cube.scale
    ratio = (q_cube.side / r_cube.side) ** (op.kernel.alpha / 2.0)
    ddist = long_distance(q_cube, r_cube)

    # off-host children of R against the frame menu of R
    off_host = [m for m in children if m != host]
    for e, (_, mass_rj, psi_full) in enumerate(psis):
        for m in off_host:
            row = psi_rows.get(("off", e, m), lambda: restrict(
                psi_full, index.atoms_at(k - 1, children[m])))
            for _, mass_qi, phi_vals in phis:
                val = abs(float(row @ phi_vals))
                bound = c_chain * ratio * mass_rj * mass_qi / mass_r
                _record(result, "nested-offchild", q_cube, r_cube, val, bound, ddist)

    # complement of the host child against the stopped test functions
    def complement(src):
        comp_mask = np.ones(op.measure.atom_count, dtype=bool)
        comp_mask[index.atoms_at(k - 1, children[host])] = False
        return ctx_g.b_anc(src) * comp_mask

    for s, src in enumerate((r_cube, kids[host])):
        row = psi_rows.get(("complement", host, s), lambda: complement(src))
        for _, mass_qi, phi_vals in phis:
            val = abs(float(row @ phi_vals))
            _record(result, "nested-complement", q_cube, r_cube, val,
                    c_chain * ratio * mass_qi, ddist)


def _record(result, kind, q_cube, r_cube, val, bound, ddist):
    if val > bound + 1e-14:
        result.failures.append({"kind": kind, "q": q_cube.key, "r": r_cube.key,
                                "value": val, "bound": bound})
    for column, cell in zip(result.table.values(),
                            (kind, q_cube.side, r_cube.side, ddist, val, bound)):
        column.append(cell)


def decay_slope_fit(kernel: KernelSpec, separations: Sequence[float]) -> float:
    """Fitted log-log decay slope of a mean-zero dipole against distance.

    A two-atom mean-zero bump (atoms 1e-3 apart) is paired against a far
    single atom across the given separations; the regression slope of
    log |<psi, T phi>| against log(distance) estimates -(d + alpha).
    """
    values = []
    for dist in separations:
        positions = np.array([[0.0], [1e-3], [dist]])
        mu = AtomicMeasure(1, kernel.d, positions, np.ones(3))
        op = DiscreteOperator(kernel, mu)
        phi_vals = np.array([1.0, -1.0, 0.0])
        psi_vals = np.array([0.0, 0.0, 1.0])
        values.append(abs(op.matrix_element(psi_vals, phi_vals)))
    logs = np.log(np.asarray(values))
    logd = np.log(np.asarray(separations, dtype=float))
    slope = np.polyfit(logd, logs, 1)[0]
    return float(slope)


# =============================================================================
# Paraproduct
# =============================================================================

def paraproduct_smap(ctx_f: MartingaleContext, other: GridIndex,
                     classifier: PairClassifier) -> Dict[Tuple, Optional[Cube]]:
    """The stopping map Q -> S(Q) of the deeply nested interaction.

    chi(Q, R) = 1 when the pair (Q, R) classifies as deeply nested: Q is
    R-good, Q inside R, and l(Q) < 2^-r l(R), so only the scales of R above
    scale(Q) + r can qualify.  chi is monotone along the ancestor chain of R,
    so when any R qualifies there is a unique minimal one, and S(Q) is its
    child containing Q (single-child containment is the nesting geometry of
    good cubes).  Cubes with no qualifying R map to None.
    """
    out: Dict[Tuple, Optional[Cube]] = {}
    for k in ctx_f.diff_scales:
        q_cubes = ctx_f.index.occupied(k)
        q_run = _CubeRun(q_cubes)
        r_min: List[Optional[Cube]] = [None] * len(q_cubes)
        seen = np.zeros(len(q_cubes), dtype=bool)
        for j in range(k + classifier.params.r + 1, other.system.s + 1):
            r_cubes = other.occupied(j)
            chi = classifier._classify_runs(q_run, _CubeRun(r_cubes)) == _DEEP_NESTED
            has = chi.any(axis=1)
            # monotonicity along the chain: once 1, always 1
            lost = np.flatnonzero(seen & ~has)
            if lost.size:
                raise GeometryError("stopping indicator is not monotone "
                                    f"along the chain of {q_cubes[lost[0]].key}")
            for a in np.flatnonzero(has & ~seen):
                r_min[a] = r_cubes[int(np.argmax(chi[a]))]
            seen |= has
        for q_cube, r_cube in zip(q_cubes, r_min):
            if r_cube is None:
                out[q_cube.key] = None
                continue
            host = [c for c in r_cube.children() if contains(c, q_cube)]
            if len(host) != 1:
                raise GeometryError(f"no single child of {r_cube.key} hosts "
                                    f"{q_cube.key}")
            out[q_cube.key] = host[0]
    return out


def paraproduct_apply(op: DiscreteOperator, ctx_f: MartingaleContext,
                      ctx_g: MartingaleContext, g: np.ndarray,
                      smap: Dict[Tuple, Optional[Cube]]) -> np.ndarray:
    """Assemble Pi g = sum_Q <g>_S / <b>_S (D_Q)^* (T^* b_{S^a})."""
    mu = op.measure
    g = np.asarray(g, dtype=float)
    out = np.zeros(mu.atom_count) if g.ndim == 1 else np.zeros_like(g)
    cache: Dict[Tuple, np.ndarray] = {}
    for k in ctx_f.diff_scales:
        for p, q_cube in enumerate(ctx_f.index.occupied(k)):
            s_cube = smap.get(q_cube.key)
            if s_cube is None:
                continue
            coeff = _paraproduct_coeff(ctx_g, s_cube, g)
            if coeff is None:
                continue
            anc_key = ctx_g.layers.ancestor[s_cube.key]
            if anc_key not in cache:
                cache[anc_key] = op.adjoint_apply(ctx_g.b_anc(s_cube))
            localized = restrict(cache[anc_key], ctx_f.index.atoms_at(k, p))
            term = adapted_diff_adjoint(ctx_f, localized, q_cube.scale)
            if g.ndim == 1:
                out += coeff * term
            else:
                out += term[:, None] * coeff[None, :]
    return out


def _paraproduct_coeff(ctx_g, s_cube, g):
    """<g>_S / <b_{S^a}>_S (a vector for lattice-valued g), or None when mu(S) = 0."""
    p = ctx_g.index.position(s_cube.key)
    if p is None:
        return None
    mass = float(ctx_g.index.masses(s_cube.scale)[p])
    atoms_s = ctx_g.index.atoms_at(s_cube.scale, p)
    mean_b = integrate(ctx_g.measure, ctx_g.b_adapted[s_cube.scale], atoms_s) / mass
    return integrate(ctx_g.measure, g, atoms_s) / mass / mean_b


def paraproduct_direct_pairing(op: DiscreteOperator, ctx_f: MartingaleContext,
                               ctx_g: MartingaleContext, g: np.ndarray,
                               f: np.ndarray,
                               smap: Dict[Tuple, Optional[Cube]]) -> float:
    """The double sum sum_Q coeff(S(Q)) <T^* b_{S^a}, D_Q f>, term by term."""
    mu = op.measure
    total = 0.0
    g = np.asarray(g, dtype=float)
    f = np.asarray(f, dtype=float)
    for k in ctx_f.diff_scales:
        for q_cube in ctx_f.index.occupied(k):
            s_cube = smap.get(q_cube.key)
            if s_cube is None:
                continue
            coeff = _paraproduct_coeff(ctx_g, s_cube, g)
            if coeff is None:
                continue
            h = op.adjoint_apply(ctx_g.b_anc(s_cube))
            dqf = adapted_diff_local(ctx_f, f, q_cube)
            if f.ndim == 1:
                total += coeff * pair(mu, h, dqf)
            else:
                total += float(np.sum(coeff * (mu.weights[:, None] * dqf
                                               * h[:, None]).sum(axis=0)))
    return total


# =============================================================================
# Comparable pairs: collar partition
# =============================================================================

@dataclass
class CollarRegions:
    """Atom index sets of the boundary-collar partition of a comparable pair."""

    q_child: Cube
    r_child: Cube
    eta: float
    delta_q: np.ndarray
    q_sep: np.ndarray
    q_boundary: np.ndarray
    delta_r: np.ndarray
    r_sep: np.ndarray
    r_boundary: np.ndarray


def collar_membership(points: np.ndarray, cube: Cube, eta: float) -> np.ndarray:
    """Membership of points in the collar (1+eta)Q minus (1-eta)Q.

    The outer inflation is closed and the inner deflation is open, so the
    collar is a closed annular neighborhood of the boundary of width eta*l/2
    on each side.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    center = cube.center
    half = cube.side / 2.0
    dist = np.max(np.abs(pts - center[None, :]), axis=1)
    return (dist <= (1.0 + eta) * half) & ~(dist < (1.0 - eta) * half)


def comparable_partition(mu: AtomicMeasure, q_cube: Cube, r_cube: Cube,
                         i: int, j: int, eta: float,
                         params: DyadicParams) -> CollarRegions:
    """The three-way collar split of one child pair of comparable cubes.

    Both child cubes split into (shared-core, separated, boundary-collar)
    pieces, each a disjoint union recovering the child exactly; the pair must
    be comparable (matching sizes within 2^r and touching within l(Q)).
    """
    if not (2.0 ** (-params.r) * r_cube.side <= q_cube.side <= r_cube.side
            and set_distance(q_cube, r_cube) < q_cube.side):
        raise ValueError("cubes are not comparable")
    qi = q_cube.children()[i]
    rj = r_cube.children()[j]
    pts = mu.positions
    in_qi = qi.contains_points(pts)
    in_rj = rj.contains_points(pts)
    collar_rj = collar_membership(pts, rj, eta)
    collar_qi = collar_membership(pts, qi, eta)

    q_boundary = in_qi & collar_rj
    delta_q = in_qi & in_rj & ~q_boundary
    q_sep = in_qi & ~q_boundary & ~(in_qi & in_rj)
    r_boundary = in_rj & collar_qi
    delta_r = in_qi & in_rj & ~r_boundary
    r_sep = in_rj & ~r_boundary & ~(in_qi & in_rj)

    def idx(mask):
        return np.where(mask)[0]

    return CollarRegions(qi, rj, eta, idx(delta_q), idx(q_sep), idx(q_boundary),
                         idx(delta_r), idx(r_sep), idx(r_boundary))


def comparable_msum(op: DiscreteOperator, psi: np.ndarray, phi_vals: np.ndarray,
                    regions: CollarRegions) -> dict:
    """The five collar matrix elements and their exact recombination.

    M1 pairs the separated part of the R-child against the whole Q-child;
    M2 the R-collar against the whole Q-child; M3 the shared cores; M4 the
    R-core against the Q-collar; M5 the R-core against the separated part of
    the Q-child.  Their sum telescopes back to the full child pairing.
    """
    mu = op.measure
    in_qi = np.where(regions.q_child.contains_points(mu.positions))[0]
    in_rj = np.where(regions.r_child.contains_points(mu.positions))[0]
    psi_rj = restrict(psi, in_rj)
    phi_qi = restrict(phi_vals, in_qi)

    m1 = op.matrix_element(restrict(psi, regions.r_sep), phi_qi)
    m2 = op.matrix_element(restrict(psi, regions.r_boundary), phi_qi)
    m3 = op.matrix_element(restrict(psi, regions.delta_r),
                           restrict(phi_vals, regions.delta_q))
    m4 = op.matrix_element(restrict(psi, regions.delta_r),
                           restrict(phi_vals, regions.q_boundary))
    m5 = op.matrix_element(restrict(psi, regions.delta_r),
                           restrict(phi_vals, regions.q_sep))
    full = op.matrix_element(psi_rj, phi_qi)
    parts = m1 + m2 + m3 + m4 + m5
    return {"m": (m1, m2, m3, m4, m5), "sum": parts, "full": full,
            "residual": abs(parts - full)}


# =============================================================================
# Boundary collar probability
# =============================================================================

# the fewest trials ``boundary_probability`` takes
COLLAR_MIN_TRIALS = 10_000


def boundary_probability(dimension: int, r: int, eta: float, k_scale: int,
                         trials: int, seed: int) -> Tuple[float, float]:
    """Monte-Carlo P[x lies in the scale-k boundary collar of a random grid].

    The collar at scale k is the union over the r+1 scales below k of the
    eta-collars of all grid cubes; for a fixed point only its position inside
    the random cell matters, so the event is computed in closed form per
    scale and trial (``shift_walk_hits`` drops a trial once it is hit).  The
    linear envelope 4N(r+1)eta dominates the union bound N(r+1)eta with room
    for discretization.
    """
    if not (0.0 < eta < 0.25):
        raise ValueError("eta must lie in (0, 1/4)")
    if trials < COLLAR_MIN_TRIALS:
        raise ValueError(f"need at least {COLLAR_MIN_TRIALS} trials")
    rng = rng_for(seed, f"collar:{dimension}:{r}:{eta}")
    guard = math.ceil(math.log2(1.0 / eta)) + 8

    def in_collar(period, pos, flags):
        # the point is in a collar when its distance min(pos, period - pos)
        # to the nearest cell face is at most half the collar width, that is
        # when either term is; where fmod(shift, period) is 0, pos is period
        # where (-shift) % period would give 0, and the distance is 0 either way
        half_width = eta * period / 2.0
        np.less_equal(pos, half_width, out=flags)
        np.subtract(period, pos, out=pos)
        flags |= pos <= half_width

    hits = shift_walk_hits(rng, trials, dimension, k_scale - r - 1 - guard,
                           k_scale - r - 1, k_scale, in_collar)
    p_hat = hits / trials
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-30) / trials)
    return p_hat, stderr
