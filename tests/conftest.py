import random
from fractions import Fraction

import numpy as np
import pytest

from sphcover import _linalg
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


@pytest.fixture
def dtypes(monkeypatch):
    """The dtypes ``_linalg._int_dtype`` chooses, in call order, outside
    ``first_cone`` and ``vertex_table``: the first cone starts from unit
    vectors, on which int64 is right whatever the rows, and the vertex
    table orders the output's coordinate values, whose integers are those
    of the quotients, not of the rays; so only the insertions and lifted
    checks are recorded."""
    chosen, original, depth = [], _linalg._int_dtype, []

    def outside(method):
        def unrecorded(*args):
            depth.append(None)
            try:
                return method(*args)
            finally:
                depth.pop()

        return unrecorded

    def recording(bound):
        dtype = original(bound)
        if not depth:
            chosen.append(dtype)
        return dtype

    for cls, name in (
        (_linalg._Kernel, "first_cone"),
        (_linalg._ExactKernel, "vertex_table"),
    ):
        monkeypatch.setattr(cls, name, outside(getattr(cls, name)))
    monkeypatch.setattr(_linalg, "_int_dtype", recording)
    return chosen
