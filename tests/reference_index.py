"""The partition of the atoms by dyadic cube, one ``Cube`` and one sum at a
time: the reference the tests read per-cube answers from, independent of the
per-scale tables of ``GridIndex``."""
import numpy as np

from dyadlab.grid import Cube


class RefIndex:
    """Per scale: the occupied cubes in lexicographic index order, each
    cube's atoms in increasing order and its mass as one ``np.sum``."""

    def __init__(self, mu, system):
        self.measure, self.system = mu, system
        self.cubes, self.position, self.atoms, self.masses = {}, {}, {}, {}
        for k in system.scales:
            keys, ids, counts = np.unique(system.cube_index_at(mu.positions, k), axis=0,
                                          return_inverse=True, return_counts=True)
            order = np.argsort(ids.reshape(-1), kind="stable")
            atoms = np.split(order, np.cumsum(counts)[:-1])
            self.cubes[k] = [Cube(system, k, m) for m in map(tuple, keys.tolist())]
            self.position.update((c.key, i) for i, c in enumerate(self.cubes[k]))
            self.atoms[k] = atoms
            self.masses[k] = np.array([float(np.sum(mu.weights[a])) for a in atoms])

    def atoms_of(self, cube):
        i = self.position.get(cube.key)
        return np.empty(0, dtype=np.int64) if i is None else self.atoms[cube.scale][i]

    def mass_of(self, cube):
        i = self.position.get(cube.key)
        return 0.0 if i is None else float(self.masses[cube.scale][i])

    def occupied_children(self, cube):
        """(i, Q_i) for the children Q_i = cube.children()[i] that hold atoms."""
        if cube.scale <= self.system.k_min or cube.key not in self.position:
            return []
        below = self.cubes[cube.scale - 1]
        return [(i, below[self.position[c.key]]) for i, c in enumerate(cube.children())
                if c.key in self.position]
