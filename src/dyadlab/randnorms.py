"""Randomized (Rademacher) norms and the estimates built from them.

The basic quantity is || sum_k eps_k h_k ||_{L^p(mu x P)} for a finite family
of atom-indexed functions.  With at most ``n_exact`` active indices the sign
average is enumerated exactly (2^K patterns); beyond that a seeded Monte
Carlo estimate with a standard error is returned, and every acceptance
threshold downstream budgets three standard errors of slack.

For scalar families the randomized norm and the square-function norm
|| (sum_k h_k^2)^(1/2) ||_{L^p} sandwich each other within the classical
Khintchine constants, with exact equality at p = 2 under enumeration; the
sandwich is asserted with Haagerup's constants.  Lattice-valued families get
a wider documented envelope (coordinatewise Khintchine combined with the
l^rho / l^2 mixed-norm comparisons).

Evaluation.  One kernel, ``_stack_pattern_values``, gives the per-pattern
values int |sum_k s_k h_k|^p dmu of every sign row s for a stack of T
families: (T, K, n) for scalar families, (T, K, n, m) for lattice families.
It branches on the stack's dimension, so a lattice family with m = 1 still
takes the lattice steps.  ``randomized_norm`` calls it once with T = 1.
It works through the sign rows in blocks of about ``BLOCK_MULADDS``
multiply-adds (sign rows x signs x atom values), so no (patterns x atoms)
array is ever built and each block stays in cache.  ``_blocks`` plans the
blocks, and each call allocates one workspace, sized for its largest block,
that every block reuses:

* scalar stacks: a (T x rows x atoms) product buffer, into which
  ``np.matmul(s, stack, out=...)`` writes the block's product for every
  item at once, then ``abs`` and ``** p`` run in place;
* lattice stacks: a (rows x atom values) product buffer and a
  (rows x atoms) norm buffer, reused item by item: ``np.matmul`` writes one
  item's product, ``measure.vector_norm_into`` squares or powers its
  coordinates in place and adds the columns into the norm buffer, and
  ``** p`` runs in place there.

``@ mu.weights`` then gives the block's per-pattern values.  Each block
does the arithmetic the whole table once did, so every per-pattern value
keeps its bits, and that fixes the following choices:

* Mirror.  Row P-1-i of the exact table is the negation of row i, and
  |sum (-eps_k) h_k| equals |sum eps_k h_k| bit for bit (negation is exact
  and rounding is symmetric), so when the first half fills at least one
  block, only rows [0, P/2) are evaluated and the rest are copied in
  reverse.  A smaller table is evaluated whole, as before.
* Fixed layout.  The sign rows multiply each family as one (signs x atom
  values) matrix: a scalar family as (K, n), a lattice family as (K, n*m)
  in the atom-major (atom, coordinate) column layout that
  ``np.tensordot(s, H, axes=(1, 0))`` used, with the same BLAS gemm; a
  coordinate-major layout can move the last bit.  ``np.matmul`` on a scalar
  stack calls the BLAS routine of the 2-D product once per item, on the
  same operands, so each item keeps the bits of its own 2-D product.
* Block length.  A block does at least ``BLOCK_MULADDS`` = 2^21
  multiply-adds in a multiple of 64 rows, and a short tail is merged into
  the block before it, so the last block holds up to 2*rows - 1 rows.  That
  keeps every row on the BLAS kernels it met in the full-table product.
  OpenBLAS computes a product of at most 100^3 multiply-adds with a
  small-matrix kernel, which at 16 or more signs adds the terms in another
  order when the column count is 1-4 modulo 8 (a fixed 256-row block would
  cross that line).  Its matrix-vector product can round the last one to
  three rows of a call differently from the rest, and it splits the rows
  evenly between threads; 64 rows keep every thread's share, for up to 16
  threads, a multiple of four.  A table whose half is smaller than one
  block is evaluated whole, as before.
* Fixed sum order.  ``measure.vector_norm_into`` adds the lattice
  coordinates left to right, numpy's own order for up to seven coordinates;
  squaring or powering every coordinate in one pass does per element what
  a column at a time did.

The mean and standard deviation then reduce one full per-pattern array,
so the reported value and standard error are as if every row had been
evaluated at once.  ``_mc_lp_estimate`` turns Monte Carlo p-th powers into
the norm and its delta-method standard error, for ``randomized_norm`` and
for the resampled side of ``decoupling_check`` alike.

Stacked families.  ``decoupling_check`` evaluates its resampled twins a
chunk of choices at a time.  The chunk's families form one scalar
(T, K, n) stack, built with the same ``+=`` per block, and one kernel call
evaluates it.  Each item keeps its bits: the kernel does per item what a
T = 1 call does; the row-wise ``np.mean`` reduces each row in the order of
the 1-D mean; and every choice shares one sign table (Monte Carlo signs are
seeded by count and label, so each per-choice call drew the same table).
The ``** (1/p)`` and ``** p`` steps and the sums over choices stay per
choice, in Python floats and in their old order.  A chunk holds about
``CHUNK_ELEMENTS`` = 2^17 elements (1 MiB) per (choices x sign rows x
atoms) array, and at least one choice: 512 choices at 4 sign rows and 64
atoms, 128 at 2 sign rows and 512 atoms.  So its temporaries stay the same
size at any trial count.

Work whose result is fixed in advance is skipped.  ``carleson_norm``
evaluates no cube whose family is identically zero: such a norm is exactly
0.0 (stderr 0) for p > 0, and the running maximum, which starts at 0.0 and
only takes a strictly larger value, would never take it; Monte Carlo signs
are seeded per cube label, so no other draw moves.  ``decoupling_check``
computes each block's resampling probabilities once, with the same
division per entry.

Limits, as checked against the all-at-once product with OpenBLAS 0.3.31
on x86-64: the values agree bit for bit when the product has at most 192
columns (atom values n*m) or a multiple of 8 columns, which covers every
configuration whose atom count is a multiple of 8.  Wider products with
another column count can move in the last bit, because the large-matrix
kernel's own rounding there depends on how many rows one call holds.  So
can a Monte Carlo trial count that does not split into multiples of four
rows per BLAS thread: the old product's bits then depended on that split.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from dyadlab._seeds import rng_for
from dyadlab.grid import GridIndex
from dyadlab.martingale import MartingaleContext, expectation
from dyadlab.measure import AtomicMeasure, LatticeSpace, lp_norm, mult, restrict, \
    vector_norm, vector_norm_into

__all__ = [
    "RademacherSampler",
    "NormReport",
    "khintchine_constants",
    "randomized_norm",
    "square_function_norm",
    "square_function_ratio",
    "carleson_norm",
    "carleson_embedding_check",
    "rademacher_bound",
    "operator_norm",
    "rmf_maximal",
    "rmf_norm",
    "decoupling_check",
    "stein_check",
    "contraction_check",
    "improved_contraction_check",
]


# fewest multiply-adds (sign rows x signs x atom values) in an evaluated block
BLOCK_MULADDS = 1 << 21
# about the most elements of a (choices x sign rows x atoms) decoupling chunk
CHUNK_ELEMENTS = 1 << 17


# =============================================================================
# Sampler
# =============================================================================

@functools.lru_cache(maxsize=None)
def _exact_signs(count: int) -> np.ndarray:
    """All 2^count sign patterns, row i holding the binary digits of i; read-only.

    The cached table is int8, one byte per sign instead of eight, and is
    built a column at a time, so its temporaries hold 2^count integers and
    not 2^count * count.  Every reader widens the rows it uses to float64,
    with ``np.asarray(s, dtype=float)`` or by numpy's promotion in a product
    with a float array; either gives exactly the +-1.0 operands a float64
    table held, so every product that reads them keeps its bits.
    """
    patterns = np.arange(2 ** count)
    table = np.empty((patterns.size, count), dtype=np.int8)
    for j in range(count):
        table[:, j] = 1 - 2 * ((patterns >> j) & 1)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class RademacherSampler:
    """Sign-pattern source: exact enumeration up to n_exact, Monte Carlo beyond.

    Exact enumeration and Monte Carlo agree within sampling error on overlap
    cases; acceptance thresholds always include 3 * stderr slack so that only
    enumerable instances carry machine-precision assertions.
    """

    n_exact: int = 14
    mc_trials: int = 4096
    seed: int = 0

    def signs(self, count: int, label: str = "") -> Tuple[np.ndarray, bool]:
        """(patterns, exact): patterns is (P, count) of +-1.

        The exact table is cached per count and shared, so it is read-only,
        and it is int8 (``_exact_signs``); Monte Carlo patterns are float.
        """
        if count == 0:
            return np.ones((1, 0)), True
        if count <= self.n_exact:
            return _exact_signs(count), True
        rng = rng_for(self.seed, f"signs:{count}:{label}")
        return 1.0 - 2.0 * rng.integers(0, 2, size=(self.mc_trials, count)), False


@dataclass(frozen=True)
class NormReport:
    value: float
    method: str            # "exact" | "mc"
    stderr: float
    trials: int


# =============================================================================
# Khintchine constants
# =============================================================================

def khintchine_constants(p: float) -> Tuple[float, float]:
    """Haagerup's sharp scalar constants (A_p, B_p).

    A_p ||S||_p <= || sum eps_k a_k ||_{L^p(P)} <= B_p ||S||_p pointwise,
    with S = (sum a_k^2)^(1/2); B_p = 1 for p <= 2 and A_p = 1 for p >= 2.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    gamma_form = math.sqrt(2.0) * (math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)) ** (1.0 / p)
    if p >= 2.0:
        return 1.0, gamma_form
    return min(2.0 ** (0.5 - 1.0 / p), gamma_form), 1.0


# =============================================================================
# Randomized norms
# =============================================================================

def _stack_family(family: Sequence[np.ndarray]) -> np.ndarray:
    arrs = [np.asarray(h, dtype=float) for h in family]
    if not arrs:
        return np.zeros((0, 0))
    return np.stack(arrs, axis=0)


def _blocks(total: int, exact: bool, row_muladds: int) -> Tuple[List[Tuple[int, int]], int]:
    """(blocks, evaluated): the (lo, hi) row blocks that cover rows [0, evaluated).

    ``row_muladds`` is the multiply-add count of one row (signs x atom
    values).  Rows from ``evaluated`` on mirror the evaluated ones.
    """
    # the fewest rows, a multiple of 64, that do BLOCK_MULADDS multiply-adds
    rows = -(-BLOCK_MULADDS // max(64 * row_muladds, 1)) * 64
    # exact row total-1-i is -(row i): evaluate the first half, mirror the rest
    evaluated = total // 2 if exact and total // 2 >= rows else total
    blocks, lo = [], 0
    while lo < evaluated:
        hi = evaluated if evaluated - lo < 2 * rows else lo + rows
        blocks.append((lo, hi))
        lo = hi
    return blocks, evaluated


def _stack_pattern_values(weights: np.ndarray, stack: np.ndarray, p: float, rho: float,
                          signs: np.ndarray, exact: bool) -> np.ndarray:
    """(T, P): int |sum_k s_k h_k|^p dmu for every sign row s and every family
    (h_k) of a stack, (T, K, n) scalar or (T, K, n, m) lattice-valued with
    l^rho value norms; rho is not read for a scalar stack.  The module
    docstring ("Evaluation") says how the rows are blocked and mirrored.
    """
    items, count, n = stack.shape[:3]
    width = math.prod(stack.shape[2:])              # atom values per family
    total = signs.shape[0]
    out = np.empty((items, total))
    blocks, evaluated = _blocks(total, exact, count * width)
    largest = max((hi - lo for lo, hi in blocks), default=0)
    if stack.ndim == 3:
        work = np.empty(items * largest * n)
    else:
        flat = stack.reshape(items, count, width)  # atom-major (atom, coordinate) columns
        work, norms = np.empty((largest, width)), np.empty((largest, n))
    for lo, hi in blocks:
        s = np.asarray(signs[lo:hi], dtype=float)
        if stack.ndim == 3:
            prod = work[:items * (hi - lo) * n].reshape(items, hi - lo, n)
            np.matmul(s, stack, out=prod)
            np.abs(prod, out=prod)
            prod **= p
            out[:, lo:hi] = prod @ weights
        else:
            for t in range(items):
                fields = np.matmul(s, flat[t], out=work[:hi - lo]).reshape(hi - lo, n, -1)
                values = vector_norm_into(fields, rho, norms[:hi - lo])
                values **= p
                out[t, lo:hi] = values @ weights
    if evaluated < total:
        out[:, evaluated:] = out[:, evaluated - 1::-1]
    return out


def _mc_lp_estimate(samples: np.ndarray, p: float) -> Tuple[float, float]:
    """(value, stderr) of an L^p norm whose p-th power is the mean of the
    Monte Carlo ``samples``: mean^(1/p) and its delta-method standard error."""
    mean = float(np.mean(samples))
    sd = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
    return mean ** (1.0 / p), sd / max(p * mean ** (1.0 - 1.0 / p), 1e-300)


def randomized_norm(mu: AtomicMeasure, family: Sequence[np.ndarray], p: float,
                    sampler: RademacherSampler, rho: float = 2.0,
                    label: str = "") -> NormReport:
    """|| sum_k eps_k h_k ||_{L^p(mu x P)} with l^rho value norms."""
    H = _stack_family(family)
    if H.shape[0] == 0:
        return NormReport(0.0, "exact", 0.0, 1)
    signs, exact = sampler.signs(H.shape[0], label=label)
    per_pattern = _stack_pattern_values(mu.weights, H[None], p, rho, signs, exact)[0]
    if exact:
        return NormReport(float(np.mean(per_pattern)) ** (1.0 / p), "exact", 0.0,
                          per_pattern.size)
    value, stderr = _mc_lp_estimate(per_pattern, p)
    return NormReport(value, "mc", stderr, per_pattern.size)


def square_function_norm(mu: AtomicMeasure, family: Sequence[np.ndarray], p: float,
                         rho: float = 2.0) -> float:
    """|| (sum_k |h_k|^2)^(1/2) ||_{L^p(mu)} with the coordinatewise square sum."""
    H = _stack_family(family)
    if H.shape[0] == 0:
        return 0.0
    sq = np.sqrt(np.sum(H * H, axis=0))
    return lp_norm(mu, sq, p, rho=rho)


def square_function_ratio(ctx: MartingaleContext, family_of: Callable[[np.ndarray], List[np.ndarray]],
                          p: float, ensemble: Sequence[np.ndarray],
                          sampler: RademacherSampler, rho: float = 2.0) -> dict:
    """Sup over an ensemble of randomized-norm / input-norm ratios.

    ``family_of(f)`` produces the operator family applied to f (for example
    all adapted differences); inputs are normalized by their own L^p norm.
    """
    ratios = []
    for idx, f in enumerate(ensemble):
        denom = lp_norm(ctx.measure, f, p, rho=rho)
        if denom == 0.0:
            continue
        rep = randomized_norm(ctx.measure, family_of(np.asarray(f, dtype=float)), p,
                              sampler, rho=rho, label=f"sqfn:{idx}")
        ratios.append(rep.value / denom)
    return {"max_ratio": max(ratios) if ratios else 0.0, "ratios": ratios}


# =============================================================================
# Carleson norms and embeddings
# =============================================================================

def carleson_norm(index: GridIndex, d_fns: Dict[int, np.ndarray], p: float,
                  sampler: RademacherSampler) -> NormReport:
    """Car^p: sup over occupied cubes of the normalized truncated random sum.

    For each occupied cube Q the family {d_k : 2^k <= l(Q)} is restricted to
    Q and its randomized L^p norm is divided by mu(Q)^(1/p).

    A cube with no live atom -- one where every d_k of its family is zero,
    in every lattice coordinate -- is skipped: its family is all zeros, so
    its normalized norm is exactly 0.0 for p > 0, and the strict ``>`` of
    the running maximum (which starts at 0.0) never takes it.  Monte Carlo
    signs are drawn per cube label, so skipping a cube moves no other
    cube's draw.  A NaN counts as live.
    """
    mu = index.measure
    best = NormReport(0.0, "exact", 0.0, 1)
    keys = sorted(d_fns)
    live = np.zeros(mu.atom_count, dtype=bool)     # some d_j, j <= k, nonzero
    added = 0
    for k in index.system.scales:
        while added < len(keys) and keys[added] <= k:
            d = np.asarray(d_fns[keys[added]], dtype=float)
            live |= (d != 0.0).reshape(d.shape[0], -1).any(axis=1)
            added += 1
        if not added:
            continue
        scales = keys[:added]
        live_cube = np.zeros(len(index.masses(k)), dtype=bool)
        live_cube[index.cube_ids(k)[live]] = True
        for i, cube in enumerate(index.occupied(k)):
            mass = index.mass_of(cube)
            if not live_cube[i] or mass == 0.0:
                continue
            atoms = index.atoms_of(cube)
            family = [restrict(d_fns[j], atoms) for j in scales]
            rep = randomized_norm(mu, family, p, sampler,
                                  label=f"car:{cube.key}")
            val = rep.value / mass ** (1.0 / p)
            if val > best.value:
                best = NormReport(val, rep.method, rep.stderr / mass ** (1.0 / p),
                                  rep.trials)
    return best


def carleson_embedding_check(ctx: MartingaleContext, d_fns: Dict[int, np.ndarray],
                             car: NormReport, ensemble: Sequence[np.ndarray], p: float,
                             sampler: RademacherSampler,
                             multipliers: Optional[Dict[int, np.ndarray]] = None) -> dict:
    """Embedding ratio ||sum eps_k d_k E_k(c_k f)||_p / (Car^1 ||f||_p).

    The ensemble f is scalar-valued.  ``car`` is Car^1 of ``d_fns``,
    ``carleson_norm(ctx.index, d_fns, 1.0, sampler)``, computed once by the
    caller.  The coefficient functions must be scale-measurable
    (d_k = E_k d_k); a violation is an error, not a failed estimate.
    Multipliers c_k default to one and must be bounded by one in modulus.
    """
    mu = ctx.measure
    for k, d in d_fns.items():
        if not np.allclose(d, expectation(ctx, np.asarray(d, dtype=float), k),
                           rtol=0.0, atol=1e-10):
            raise ValueError(f"d_{k} is not scale-{k} measurable")
    if multipliers is not None:
        for k, c in multipliers.items():
            if np.max(np.abs(c)) > 1.0 + 1e-12:
                raise ValueError(f"multiplier c_{k} exceeds modulus one")
    ratios = []
    for idx, f in enumerate(ensemble):
        f = np.asarray(f, dtype=float)
        denom = lp_norm(mu, f, p) * max(car.value, 1e-300)
        family = []
        for k in sorted(d_fns):
            arg = f if multipliers is None else mult(multipliers[k], f)
            family.append(mult(np.asarray(d_fns[k], dtype=float),
                               expectation(ctx, arg, k)))
        rep = randomized_norm(mu, family, p, sampler, label=f"emb:{idx}")
        ratios.append(rep.value / denom)
    return {"car1": car.value, "max_ratio": max(ratios) if ratios else 0.0,
            "ratios": ratios}


# =============================================================================
# R-bounds
# =============================================================================

def operator_norm(matrix: np.ndarray, rho: float) -> Tuple[float, bool]:
    """Operator norm on (R^m, l^rho); (value, certified).

    Exact for rho in {1, 2, inf}; otherwise a Boyd-iteration lower estimate.
    """
    a = np.asarray(matrix, dtype=float)
    if rho == 1.0:
        return float(np.max(np.sum(np.abs(a), axis=0))), True
    if math.isinf(rho):
        return float(np.max(np.sum(np.abs(a), axis=1))), True
    if rho == 2.0:
        return float(np.linalg.norm(a, 2)), True
    rng = np.random.default_rng(7)
    best = 0.0
    rho_dual = rho / (rho - 1.0)

    def lr(v):
        return float(np.sum(np.abs(v) ** rho) ** (1.0 / rho))

    for _ in range(8):
        x = rng.normal(size=a.shape[1])
        for _ in range(40):
            x = x / max(lr(x), 1e-300)
            y = a @ x
            best = max(best, lr(y))
            # dual ascent step (Boyd iteration for mixed-norm operator norms)
            z = np.sign(y) * np.abs(y) ** (rho - 1.0)
            x = a.T @ z
            x = np.sign(x) * np.abs(x) ** (rho_dual - 1.0)
    return best, False


def rademacher_bound(family: Sequence[np.ndarray], sampler: RademacherSampler,
                     rho: float = 2.0) -> Tuple[float, float, str]:
    """(lower, upper, method) for the R-bound of a finite operator family.

    Operators act on (R^m, l^rho).  The lower bound maximizes the randomized
    quotient over 64 sampled sign/vector configurations, seeded by the
    sampler's seed (singletons give exact operator norms).  The upper bound
    is certified: the largest operator norm when rho = 2 (Hilbert case,
    where the R-bound equals the uniform bound), and the triangle-inequality
    sum of operator norms otherwise.
    """
    mats = [np.atleast_2d(np.asarray(t, dtype=float)) for t in family]
    if not mats:
        return 0.0, 0.0, "empty"
    norms = [operator_norm(t, rho) for t in mats]
    lower = max(v for v, _ in norms)
    rng = rng_for(sampler.seed, f"rbound:{len(mats)}")
    m_in = mats[0].shape[1]
    k = len(mats)
    signs, _ = sampler.signs(k, label="rbound")
    for _ in range(64):
        xs = rng.normal(size=(k, m_in))
        num = _rademacher_l2_norm(signs, np.stack([t @ x for t, x in zip(mats, xs)]), rho)
        den = _rademacher_l2_norm(signs, xs, rho)
        if den > 1e-300:
            lower = max(lower, num / den)
    if rho == 2.0 and all(cert for _, cert in norms):
        upper = max(v for v, _ in norms)
        method = "hilbert-exact"
    elif all(cert for _, cert in norms):
        upper = sum(v for v, _ in norms)
        method = "triangle-sum"
    else:
        upper = math.inf
        method = "lower-bound-only"
    return lower, max(upper, lower), method


def _rademacher_l2_norm(signs: np.ndarray, vectors: np.ndarray, rho: float) -> float:
    k = vectors.shape[0]
    s = np.asarray(signs[:, :k], dtype=float)
    fields = np.tensordot(s, vectors, axes=(1, 0))
    return float(np.sqrt(np.mean(vector_norm(fields, rho) ** 2)))


def rmf_maximal(ctx: MartingaleContext, values: np.ndarray, atom: int,
                rho: float = 2.0) -> float:
    """R-bound of the distinct martingale averages {E_k f(x)} at one atom.

    Vectors are viewed as rank-one maps from scalars; on a Hilbert lattice
    (rho = 2, or scalar values) the R-bound of such a set equals the largest
    vector norm, which is returned exactly.  For other rho the same quantity
    is returned as a certified lower envelope of the true R-bound.
    """
    v = np.asarray(values, dtype=float)
    vecs = []
    seen = set()
    for k in ctx.scales:
        ek = expectation(ctx, v, k)
        vec = np.atleast_1d(ek[atom])
        key = tuple(np.round(vec, 15))
        if key not in seen:
            seen.add(key)
            vecs.append(vec)
    return max(float(vector_norm(vec[None, :], rho)[0]) for vec in vecs)


def rmf_norm(ctx: MartingaleContext, values: np.ndarray, p: float,
             rho: float = 2.0) -> float:
    """L^p(mu) norm of the Rademacher maximal function.

    The per-atom value is ``rmf_maximal``: the largest l^rho norm of the
    averages E_k f at that atom.  Each E_k f is computed once, on all atoms,
    and the maximum is taken over k; scalar values are length-one vectors,
    as in ``rmf_maximal``.
    """
    v = np.asarray(values, dtype=float)
    mvals = np.zeros(ctx.measure.atom_count)
    for k in ctx.scales:
        ek = expectation(ctx, v, k)
        np.maximum(mvals, vector_norm(ek.reshape(ek.shape[0], -1), rho), out=mvals)
    return lp_norm(ctx.measure, mvals, p)


# =============================================================================
# Decoupling
# =============================================================================

@dataclass
class DecouplingBlock:
    """One cell of the refining partition: scale label, member atoms, block data.

    ``values`` is the block function supported on the atoms (full-length
    array); ``cells`` optionally lists the next-finer partition cells inside
    the block, on which the function must be constant for the kernel variant.
    """

    scale: int
    atoms: np.ndarray
    values: np.ndarray
    cells: Optional[List[np.ndarray]] = None
    kernel: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


def decoupling_check(mu: AtomicMeasure, blocks: Sequence[DecouplingBlock], p: float,
                     sampler: RademacherSampler, mc_trials: int = 2000,
                     seed: int = 11, mode: str = "tangent",
                     exact_limit: int = 200_000) -> dict:
    """Compare a block martingale sum against its resampled (decoupled) twin.

    tangent: LHS integrates |sum_k eps_k sum_A f_A(x)|^p over (x, eps); RHS
    replaces f_A(x) by 1_A(x) f_A(y_A) with y_A drawn from the normalized
    restriction of mu to A, independently per block, and integrates over y as
    well.  The two-sided ratio LHS/RHS is reported, with the RHS evaluated by
    full enumeration of the product space when it is small and by Monte Carlo
    otherwise.

    trick: the LHS block data is averaged through a kernel,
    (1_A(x)/mu(A)) int_A k_A(x, z) f_A(z) dmu(z) with |k_A| <= 1, and the
    reported ratio compares against the plain undecoupled norm.  Every block
    must carry its finer cells and be constant on each of them.

    Any other mode is a ``ValueError``, and so is a Monte Carlo RHS with
    fewer than 2 trials, whose standard error would be NaN.
    """
    if mode not in ("tangent", "trick"):
        raise ValueError(f"unknown decoupling mode {mode!r}: use 'tangent' or 'trick'")
    scales = sorted({b.scale for b in blocks})
    n = mu.atom_count
    if mode == "trick":
        for b in blocks:
            if b.cells is None:
                raise ValueError("blocks must carry their finer cells for this check")
            for cell in b.cells:
                vals = np.asarray(b.values, dtype=float)[cell]
                if vals.size and np.max(np.abs(vals - vals[0])) > 1e-12:
                    raise ValueError("block function is not measurable on its cells")

    def scale_family(value_of_block) -> List[np.ndarray]:
        fam = []
        for k in scales:
            g = np.zeros(n)
            for b in blocks:
                if b.scale == k:
                    g[b.atoms] += value_of_block(b)[b.atoms]
            fam.append(g)
        return fam

    undecoupled = randomized_norm(mu, scale_family(lambda b: b.values), p, sampler,
                                  label="dec:lhs")

    if mode == "trick":
        def averaged(b: DecouplingBlock) -> np.ndarray:
            out = np.zeros(n)
            w = mu.weights[b.atoms]
            mass = float(np.sum(w))
            kv = b.kernel(mu.positions[b.atoms], mu.positions[b.atoms]) \
                if b.kernel is not None else np.ones((b.atoms.size, b.atoms.size))
            out[b.atoms] = (kv * (w * np.asarray(b.values)[b.atoms])[None, :]).sum(axis=1) / mass
            return out

        lhs = randomized_norm(mu, scale_family(averaged), p, sampler, label="dec:trick")
        return {"lhs": lhs.value, "rhs": undecoupled.value,
                "ratio": lhs.value / max(undecoupled.value, 1e-300),
                "method": "trick"}

    # tangent mode: expectation over independent resampling points
    combos = 1
    for b in blocks:
        combos *= b.atoms.size
    exact = combos * 2 ** min(len(scales), sampler.n_exact) <= exact_limit
    if not exact and mc_trials < 2:
        raise ValueError("need at least 2 Monte Carlo trials for a standard error")
    # each block's resampling law; w[i] / sum(w) is one division per entry
    # whether taken from this array or one at a time
    block_probs = [mu.weights[b.atoms] / float(np.sum(mu.weights[b.atoms]))
                   for b in blocks]
    block_values = [np.asarray(b.values)[b.atoms] for b in blocks]
    signs, signs_exact = sampler.signs(len(scales), label="dec:rhs")
    chunk = max(1, CHUNK_ELEMENTS // (signs.shape[0] * n))

    def norms_p(choices: np.ndarray) -> List[float]:
        """||resampled sum||_p^p for each row of ``choices`` (one atom per block)."""
        stack = np.zeros((choices.shape[0], len(scales), n))
        for ki, k in enumerate(scales):
            for bi, b in enumerate(blocks):
                if b.scale == k:
                    stack[:, ki, b.atoms] += block_values[bi][choices[:, bi], None]
        means = np.mean(_stack_pattern_values(mu.weights, stack, p, 2.0, signs,
                                              signs_exact), axis=1)
        return [(float(m) ** (1.0 / p)) ** p for m in means]

    if exact:
        total, weight_total = 0.0, 0.0
        product = itertools.product(*(range(b.atoms.size) for b in blocks))
        while True:
            rows = list(itertools.islice(product, chunk))
            if not rows:
                break
            choices = np.array(rows, dtype=np.intp).reshape(len(rows), len(blocks))
            probs = np.ones(len(rows))
            for bi, bp in enumerate(block_probs):
                probs *= bp[choices[:, bi]]
            for prob, norm_p in zip(probs, norms_p(choices)):
                total += prob * norm_p
                weight_total += prob
        rhs = (total / weight_total) ** (1.0 / p)
        stderr = 0.0
        method = "exact"
    else:
        rng = rng_for(seed, "dec:resample")
        choices = np.empty((mc_trials, len(blocks)), dtype=np.intp)
        for bi, (b, probs) in enumerate(zip(blocks, block_probs)):
            choices[:, bi] = rng.choice(b.atoms.size, size=mc_trials, p=probs)
        samples = np.empty(mc_trials)
        for lo in range(0, mc_trials, chunk):
            samples[lo:lo + chunk] = norms_p(choices[lo:lo + chunk])
        rhs, stderr = _mc_lp_estimate(samples, p)
        method = "mc"

    ratio = undecoupled.value / max(rhs, 1e-300)
    return {"lhs": undecoupled.value, "rhs": rhs, "rhs_stderr": stderr,
            "ratio": ratio, "method": method}


# =============================================================================
# Classical randomized-sum checks
# =============================================================================

def stein_check(ctx: MartingaleContext, fs: Dict[int, np.ndarray], p: float,
                sampler: RademacherSampler, rho: float = 2.0) -> float:
    """Ratio ||sum eps_k E_k f_k||_p / ||sum eps_k f_k||_p."""
    scales = sorted(fs)
    fam_proj = [expectation(ctx, np.asarray(fs[k], dtype=float), k) for k in scales]
    fam_raw = [np.asarray(fs[k], dtype=float) for k in scales]
    num = randomized_norm(ctx.measure, fam_proj, p, sampler, rho=rho, label="stein:num")
    den = randomized_norm(ctx.measure, fam_raw, p, sampler, rho=rho, label="stein:den")
    return num.value / max(den.value, 1e-300)


def contraction_check(mu: AtomicMeasure, family: Sequence[np.ndarray],
                      lambdas: Sequence[float], sampler: RademacherSampler,
                      rho: float = 2.0) -> Tuple[float, float]:
    """Exact L^2 randomized norms before and after bounded multipliers."""
    if max(abs(l) for l in lambdas) > 1.0 + 1e-15:
        raise ValueError("multipliers must be bounded by one")
    base = randomized_norm(mu, family, 2.0, sampler, rho=rho, label="contr:base")
    scaled = [l * np.asarray(h, dtype=float) for l, h in zip(lambdas, family)]
    after = randomized_norm(mu, scaled, 2.0, sampler, rho=rho, label="contr:scaled")
    return after.value, base.value


def improved_contraction_check(xis: Sequence[np.ndarray], rhos: Sequence[np.ndarray],
                               aux_probs: np.ndarray, t: float, rho: float,
                               sampler: RademacherSampler) -> dict:
    """Mixed-norm contraction with L^t multipliers on an auxiliary space.

    LHS = || sum_j eps_j rho_j xi_j ||_{L^t(aux; L^2(Omega; l^rho))} and
    RHS = sup_j ||rho_j||_{L^t(aux)} * || sum_j eps_j xi_j ||_{L^2(Omega)};
    the ratio LHS / RHS is returned together with both sides.  Requires
    t > the cotype of (R^m, l^rho) (``LatticeSpace.cotype``).
    """
    xis = [np.asarray(x, dtype=float) for x in xis]
    s = LatticeSpace(xis[0].size, rho).cotype
    if not t > s:
        raise ValueError(f"need t > cotype s = {s}")
    rhos = [np.asarray(r, dtype=float) for r in rhos]
    probs = np.asarray(aux_probs, dtype=float)
    k = len(xis)
    signs, _ = sampler.signs(k, label="improved")
    # L^2(Omega; l^rho) norm for each auxiliary point
    stacked = np.stack(xis)                      # (k, m)
    inner = np.empty(probs.size)
    for a in range(probs.size):
        coeff = np.array([rhos[j][a] for j in range(k)])
        inner[a] = _rademacher_l2_norm(signs * coeff[None, :], stacked, rho)
    lhs = float(np.dot(probs, inner ** t) ** (1.0 / t))
    sup_rho = max(float(np.dot(probs, np.abs(r) ** t) ** (1.0 / t)) for r in rhos)
    rhs = sup_rho * _rademacher_l2_norm(signs, stacked, rho)
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / max(rhs, 1e-300)}
