"""The suite inputs that the harness and the acceptance criteria share."""
import numpy as np
import pytest

from dyadlab.fixtures import (battery_measure, battery_params, build_fixture_pair,
                              decoupling_blocks, sqfn_families)


def _ctx(dim, seed=5):
    mu = battery_measure(seed, dim, 32)
    return build_fixture_pair(seed, mu, battery_params(2), 0.4, grids="random").ctx_f


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("max_blocks", [1, 4, 10])
def test_decoupling_blocks_partition_their_cubes(dim, max_blocks):
    index = _ctx(dim).index
    blocks = decoupling_blocks(index, np.random.default_rng(3), max_blocks)
    assert 1 <= len(blocks) <= max_blocks and len({b.scale for b in blocks}) <= 2
    for b in blocks:
        # one occupied cube of its scale, split into its occupied child cells
        assert any(np.array_equal(b.atoms, index.atoms_at(b.scale, p))
                   for p in range(len(index.cube_keys(b.scale))))
        assert np.array_equal(np.sort(np.concatenate(b.cells)), np.sort(b.atoms))
        assert all(np.unique(b.values[cell]).size == 1 for cell in b.cells)
        assert not np.any(np.delete(b.values, b.atoms))


@pytest.mark.parametrize("dim", [1, 2])
def test_sqfn_families_one_member_per_scale(dim):
    ctx = _ctx(dim)
    fams = sqfn_families(ctx)
    assert list(fams) == ["adapted-diff", "adapted-adjoint", "classical-diff",
                          "transition-expectation"]
    rng = np.random.default_rng(4)
    for shape in [(32,), (32, 3)]:
        f = rng.normal(size=shape)
        for fam in fams.values():
            members = fam(f)
            assert len(members) == len(ctx.diff_scales)
            assert all(h.shape == shape for h in members)
