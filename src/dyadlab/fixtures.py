"""Standard fixture battery shared by the harness and the test suite.

The harness and the tests also share two suite inputs: ``sqfn_families``
(the square-function families) and ``decoupling_blocks`` (the decoupling blocks).

The battery measure keeps its atoms in tight clusters around coordinates
whose binary expansions stay away from every dyadic boundary (thirds), on a
fine jittered grid so that atoms separate at a moderate dyadic scale.  This
serves two purposes at once: a small growth exponent makes the admissible
shift-geometry parameter gamma as large as its constraints allow, and the
persistent central position keeps a healthy population of cubes good at
every tested r, so the separated / deeply nested / comparable classes are
all nonvacuously exercised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from dyadlab._seeds import rng_for
from dyadlab.accretive import build_layers, generate_accretive
from dyadlab.grid import DyadicParams, GridIndex, build_random_system, locate, \
    standard_system
from dyadlab.martingale import MartingaleContext, adapted_diff, adapted_diff_adjoint, \
    diff, expectation
from dyadlab.measure import AtomicMeasure, LatticeSpace, growth_check, lp_norm, mult
from dyadlab.operator import PairClassifier
from dyadlab.randnorms import DecouplingBlock

__all__ = [
    "battery_params",
    "battery_measure",
    "FixturePair",
    "build_fixture_pair",
    "random_ensemble",
    "sqfn_families",
    "decoupling_blocks",
    "BATTERY_D",
    "BATTERY_GAMMA",
]

BATTERY_D = 0.25
BATTERY_GAMMA = 0.4


def battery_params(r: int) -> DyadicParams:
    return DyadicParams(gamma=BATTERY_GAMMA, r=r, alpha=1.0, d=BATTERY_D)


def battery_measure(seed: int, dimension: int, atom_count: int,
                    d: float = BATTERY_D) -> AtomicMeasure:
    """Clustered measure around per-coordinate thirds, growth-normalized.

    Atoms are split between cluster centers with coordinates in {1/3, 2/3},
    then jittered on a dyadic cell grid inside a window of side 2^-6 per
    cluster.  The cell grid is the coarsest one holding a cluster's share of
    atoms, which keeps the isolation scale (and with it the window length)
    as high as the atom count allows.
    """
    rng = rng_for(seed, f"battery:{dimension}:{atom_count}")
    centers = np.array([1.0 / 3.0, 2.0 / 3.0])
    combos = [np.array(c) for c in np.stack(np.meshgrid(
        *([centers] * dimension), indexing="ij"), axis=-1).reshape(-1, dimension)]
    per = max(1, atom_count // len(combos))
    counts = [per] * len(combos)
    for i in range(atom_count - per * len(combos)):
        counts[i % len(combos)] += 1
    cells_per_axis = 1
    while cells_per_axis ** dimension < max(counts):
        cells_per_axis *= 2
    grid_scale = -6 - int(math.log2(cells_per_axis))
    if grid_scale < -22:
        raise ValueError("atom count too large for the battery cluster layout")
    step = 2.0 ** grid_scale
    positions = []
    for center, cnt in zip(combos, counts):
        if cnt == 0:
            continue
        chosen = rng.choice(cells_per_axis ** dimension, size=cnt, replace=False)
        idx = np.stack(np.unravel_index(chosen, (cells_per_axis,) * dimension), axis=1)
        jitter = rng.uniform(0.25, 0.75, size=idx.shape)
        positions.append(center[None, :] + (idx + jitter) * step)
    pos = np.concatenate(positions, axis=0)
    mu = AtomicMeasure(dimension, d, pos, rng.uniform(0.5, 1.5, size=pos.shape[0]))
    return mu.scaled_weights(1.0 / growth_check(mu).c_gr)


@dataclass
class FixturePair:
    """A full two-system fixture: measure, grids, accretive contexts.

    Two systems means two ``DyadicSystem`` objects, even where they are equal
    (``grids="standard"``): ``operator.decay_bound_check`` checks only pairs
    across distinct system objects.
    """

    measure: AtomicMeasure
    params: DyadicParams
    ctx_f: MartingaleContext
    ctx_g: MartingaleContext

    @property
    def index_f(self) -> GridIndex:
        return self.ctx_f.index

    @property
    def index_g(self) -> GridIndex:
        return self.ctx_g.index

    @cached_property
    def classifier(self) -> PairClassifier:
        """The one pair classifier of this pair, built on first use."""
        return PairClassifier(self.params)


def build_fixture_pair(seed: int, mu: AtomicMeasure, params: DyadicParams,
                       delta: float, style: str = "signed-perturbation",
                       grids: str = "standard",
                       window: Optional[Tuple[int, int]] = None) -> FixturePair:
    """Two accretive martingale contexts over a pair of dyadic systems.

    grids = "standard" uses the unshifted lattice for both systems (the
    deterministic geometry probe with quantized boundary distances);
    "random" draws independent shift sequences for the two systems.
    """
    if grids == "standard":
        sys_f = standard_system(mu, params, window=window)
        sys_g = standard_system(mu, params, window=window)
    elif grids == "random":
        sys_f = build_random_system(seed * 2 + 1, mu, params, window=window)
        sys_g = build_random_system(seed * 2 + 2, mu, params, window=window)
    else:
        raise ValueError("grids must be 'standard' or 'random'")
    gi_f, gi_g = locate(mu, sys_f), locate(mu, sys_g)
    b_f = generate_accretive(seed * 3 + 1, mu, gi_f, delta, style)
    b_g = generate_accretive(seed * 3 + 2, mu, gi_g, delta, style)
    ctx_f = MartingaleContext(mu, gi_f, b_f, build_layers(b_f, mu, gi_f))
    ctx_g = MartingaleContext(mu, gi_g, b_g, build_layers(b_g, mu, gi_g))
    return FixturePair(mu, params, ctx_f, ctx_g)


def random_ensemble(seed: int, mu: AtomicMeasure, count: int, p: float,
                    space: Optional[LatticeSpace] = None) -> List[np.ndarray]:
    """Random functions normalized to unit L^p norm (lattice-valued if given)."""
    rng = rng_for(seed, f"ensemble:{count}:{p}")
    out = []
    for _ in range(count):
        if space is None or space.m == 1:
            f = rng.normal(size=mu.atom_count)
            rho = 2.0
        else:
            f = rng.normal(size=(mu.atom_count, space.m))
            rho = space.rho
        nrm = lp_norm(mu, f, p, rho=rho)
        out.append(f / nrm)
    return out


def sqfn_families(ctx: MartingaleContext) -> Dict[str, Callable]:
    """The square-function families by name: each maps a scalar or
    lattice-valued f to one function per difference scale k, namely D^a_k f,
    (D^a_k)^* f, D_k f and 1_{b_{k-1} != b_k} E_{k-1} f."""
    return {
        "adapted-diff": lambda f: [adapted_diff(ctx, f, k) for k in ctx.diff_scales],
        "adapted-adjoint": lambda f: [adapted_diff_adjoint(ctx, f, k)
                                      for k in ctx.diff_scales],
        "classical-diff": lambda f: [diff(ctx, f, k) for k in ctx.diff_scales],
        "transition-expectation": lambda f: [
            mult(ctx.chi_mask(k - 1).astype(float), expectation(ctx, f, k - 1))
            for k in ctx.diff_scales],
    }


def decoupling_blocks(index: GridIndex, rng, max_blocks: int) -> List[DecouplingBlock]:
    """At most ``max_blocks`` blocks on at most two scales, preferring cubes
    whose resampling matters (several occupied child cells, so the decoupled
    twin differs from the original); each block's values are one normal draw
    from ``rng`` per occupied child cell."""
    candidates = []
    for k in index.system.scales:
        if k == index.system.k_min:
            continue
        for cube in index.occupied(k):
            cells = [index.atoms_of(c) for _, c in index.occupied_children(cube)]
            candidates.append((len(cells), k, cube, cells))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2].key))
    chosen_scales = sorted({k for ncells, k, _, _ in candidates[:max_blocks]
                            if ncells > 1}) or [candidates[0][1]]
    blocks = []
    for ncells, k, cube, cells in candidates:
        if k not in chosen_scales[:2] or len(blocks) >= max_blocks:
            continue
        vals = np.zeros(index.measure.atom_count)
        for cell in cells:
            vals[cell] = rng.normal()
        blocks.append(DecouplingBlock(k, index.atoms_of(cube), vals, cells=cells))
    return blocks
