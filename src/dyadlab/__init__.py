"""dyadlab: a numerical laboratory for dyadic-martingale analysis of discrete
singular operators on non-homogeneous atomic measures.

The package builds random shifted dyadic lattices over finite scale windows,
stopping-time systems of accretive test functions, adapted martingale
difference calculus, randomized (Rademacher) norms, and the full matrix
decomposition of a Calderon-Zygmund-type operator on an atomic measure, and
verifies the identities and quantitative estimates of that machinery at desk
scale.
"""

from dyadlab.measure import (AtomicMeasure, LatticeSpace, ball_mass,
                             generate_random_measure, growth_check)
from dyadlab.grid import (Cube, DyadicParams, DyadicSystem, build_random_system,
                          locate, long_distance, standard_system, theta)
from dyadlab.accretive import (AccretiveSystem, Layers, build_layers,
                               generate_accretive, layer_decay_tau, verify_accretive)
from dyadlab.martingale import MartingaleContext, reconstruct
from dyadlab.randnorms import RademacherSampler, randomized_norm
from dyadlab.operator import (DiscreteOperator, KernelSpec, PairClass,
                              kernel_by_name, pairing_decomposition)

__version__ = "0.1.0"
