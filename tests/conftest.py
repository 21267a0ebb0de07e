import random
from fractions import Fraction

import numpy as np

from sphcover.polytope import POLAR, Halfspace, HPolytope, symmetry_cone
from sphcover.scalar import RATIONAL


def integer_rank(rows) -> int:
    """Rank of a few small integer vectors, computed outside the engine."""
    return int(np.linalg.matrix_rank(np.array([[float(x) for x in r] for r in rows])))


def random_polar_instance(rng: random.Random) -> HPolytope:
    """Polar of a random origin-symmetric integer point set, sometimes
    intersected with the fundamental cone; always bounded by construction."""
    n = rng.randint(2, 5)
    count = rng.randint(n, 8)
    points = set()
    while len(points) < 2 * count or integer_rank(points) < n:
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        if any(v):
            points.add(v)
            points.add(tuple(-x for x in v))
    halfspaces = [Halfspace(p, POLAR) for p in sorted(points)]
    if rng.random() < 0.5:
        halfspaces = list(symmetry_cone(n, RATIONAL)) + halfspaces
    return HPolytope(n, tuple(halfspaces[:40]), RATIONAL)
