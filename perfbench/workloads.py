"""Workload definitions: which operations one benchmark pass runs.

A pass is a list of operations.  ``verify`` operations are argument lists
for ``sphcover.cli.main``; an ``oracle`` operation is a group of random
polar H-polytopes of one shape, each enumerated twice (brute force and
double description); ``sample`` operations bound a built-in's covering
radius from below by sampling.

Every input is derived from the workload seed, so the same seed gives the
same pass.  Only :func:`build_ops` imports sphcover; the names and sizes
above it are plain data that the parent process reads.
"""

from __future__ import annotations

import random
from math import comb

# dimensions per verify workload, for the full and the smoke-test sizes
VERIFY_DIMS = {
    "exact-table1": ((5, 6, 7, 8, 9, 10), (5, 6)),
    "float-table1": ((11, 12, 13, 14, 15), (11,)),
    "full-polar": ((5, 6, 8), (5,)),
}
VERIFY_FLAGS = {"full-polar": ["--no-symmetry"]}
WORKLOADS = (*VERIFY_DIMS, "oracle")  # why each exists: see BENCHMARK.json

# oracle instances cycle through these shapes: (dimension, point pairs,
# intersect with the symmetry cone).  Fixed shapes keep the number of
# n-subsets of every instance independent of the seed; only the points move.
# The brute force's time still depends on the points (how many subsets are
# singular, how large the fractions grow), so the instances of one shape
# form one operation: the pass runs three of each, and the slowest operation
# is the mean of three random instances rather than a single one.
ORACLE_SHAPES = (
    (2, 6, False),
    (2, 6, True),
    (3, 6, False),
    (3, 6, True),
    (4, 6, False),
    (4, 5, True),
    (5, 6, False),
    (5, 5, True),
)
ORACLE_SUBSETS = {"full": 18000, "tiny": 400}  # n-subsets per pass
# the built-in whose radius is sampled; one fixed choice keeps the
# sampler's memory, and so peak RSS, the same for every seed
SAMPLE_DIM = 8
SAMPLE_PRODUCTS = {"full": 20_000_000, "tiny": 200_000}  # samples x |A|
COORD_RANGE = 3  # oracle point coordinates lie in -3..3


def shape_subsets(shape) -> int:
    n, pairs, cone = shape
    return comb(2 * pairs + (n if cone else 0), n)


def oracle_plan(scale: str) -> list:
    """Instance shapes of one oracle pass: whole cycles of ORACLE_SHAPES
    until the n-subset budget is spent."""
    plan, spent = [], 0
    while spent < ORACLE_SUBSETS[scale]:
        shape = ORACLE_SHAPES[len(plan) % len(ORACLE_SHAPES)]
        plan.append(shape)
        spent += shape_subsets(shape)
    return plan


def build_ops(workload: str, seed: int, scale: str, reference: dict) -> list:
    """The operations of one pass, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in VERIFY_DIMS:
        dims = VERIFY_DIMS[workload][0 if scale == "full" else 1]
        flags = VERIFY_FLAGS.get(workload, [])
        argvs = [["verify", *flags, "--dim", str(n)] for n in dims]
        rng.shuffle(argvs)
        return [{"kind": "verify", "argv": a, "key": " ".join(a)} for a in argvs]
    if workload != "oracle":
        raise ValueError(f"unknown workload {workload!r}")
    groups = {}
    for n, pairs, cone in oracle_plan(scale):
        groups.setdefault((n, pairs, cone), []).append(_polar_instance(rng, n, pairs, cone))
    ops = [
        {"kind": "oracle", "key": f"oracle n={n} pairs={pairs}{' cone' if cone else ''}",
         "polys": polys}
        for (n, pairs, cone), polys in groups.items()
    ]
    ops.append(_sample_op(rng, scale, reference))
    return ops


def _polar_instance(rng: random.Random, n: int, pairs: int, cone: bool):
    """Polar of `pairs` random integer pairs {p, -p} spanning R^n, so the
    polytope is bounded; optionally cut down to the fundamental cone."""
    from fractions import Fraction

    from sphcover import HPolytope, Halfspace, RATIONAL, symmetry_cone
    from sphcover._linalg import rank
    from sphcover.polytope import POLAR

    while True:
        reps = set()
        while len(reps) < pairs:
            v = tuple(rng.randint(-COORD_RANGE, COORD_RANGE) for _ in range(n))
            if any(v) and tuple(-x for x in v) not in reps:
                reps.add(v)
        points = sorted(reps) + sorted(tuple(-x for x in v) for v in reps)
        points = [tuple(Fraction(x) for x in p) for p in points]
        if rank(points, RATIONAL) == n:
            break
    halfspaces = tuple(Halfspace(p, POLAR) for p in points)
    if cone:
        halfspaces = symmetry_cone(n, RATIONAL) + halfspaces
    return HPolytope(n, halfspaces, RATIONAL)


def _sample_op(rng: random.Random, scale: str, reference: dict) -> dict:
    from sphcover import builtin_configuration

    config = builtin_configuration(SAMPLE_DIM)
    return {
        "kind": "sample",
        "key": f"sample table1:{SAMPLE_DIM}",
        "config": config,
        "certified": reference[f"verify --dim {SAMPLE_DIM}"]["radius_float"],
        "samples": SAMPLE_PRODUCTS[scale] // config.cardinality,
        "seed": rng.randrange(2**32),
    }
