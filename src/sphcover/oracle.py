"""Independent brute-force and sampling cross-checks.

These deliberately naive routines anchor the test suite: the brute-force
enumerator solves every n-subset of constraint boundaries instead of running
the incremental engine, and the sampling bound probes the sphere directly.
Neither shares code with the double description path beyond the scalar
types; the exact brute force runs its own fraction-free elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import floordiv, mul, truediv

import numpy as np

from .configgen import Configuration
from .polytope import POLAR, HPolytope, VertexSet
from .scalar import Field, Quadratic, dot, sign_of

__all__ = [
    "InstanceTooLarge",
    "brute_force_vertices",
    "min_angle_to",
    "sampled_covering_radius",
]

MAX_HALFSPACES = 40
MAX_DIMENSION = 6

FLOAT_FEAS_EPS = 1e-9
FLOAT_SOLVE_EPS = 1e-9  # float pivots at or below this count as zero

SAMPLE_BATCH_PRODUCTS = 1_000_000  # sample x point products per sampling batch


class InstanceTooLarge(ValueError):
    """The instance exceeds the deliberate brute-force guard."""


def brute_force_vertices(poly: HPolytope) -> VertexSet:
    """Vertices via exhaustive n-subset boundary solves.

    Every full-rank n-subset of constraint boundaries is solved (exactly,
    by fraction-free elimination, on exact fields); solutions satisfying
    all halfspaces are kept and deduplicated.  Guarded to small instances
    because of the combinatorial explosion.
    """
    n = poly.dimension
    m = len(poly.halfspaces)
    if m > MAX_HALFSPACES or n > MAX_DIMENSION:
        raise InstanceTooLarge(
            f"{m} halfspaces in dimension {n} exceeds the brute-force guard "
            f"({MAX_HALFSPACES} halfspaces, dimension {MAX_DIMENSION})"
        )
    if poly.field.is_exact:
        results = _exact_vertices(poly)
    else:
        results = _float_vertices(poly)
    results.sort(key=lambda item: item[0])
    return VertexSet(
        tuple(c for c, _ in results), tuple(t for _, t in results)
    )


def _exact_vertices(poly: HPolytope) -> list:
    """(vertex, tight set) pairs from integer rows.

    Each subset's solution stays a pair (N, D), x = N / D, and is tested
    against every row as ``row . N <= rhs * D``.  Over Q, feasible pairs
    are deduplicated in lowest terms and a Fraction vertex is built once
    per distinct solution; over Q(sqrt d) the quotients are the key.
    """
    field = poly.field
    rows = [_lift(hs, field) for hs in poly.halfspaces]
    rational = field.kind == "rational"
    divide = floordiv if rational else truediv
    found = {}
    for subset in combinations(rows, poly.dimension):
        solution = _bareiss(subset, divide)
        if solution is None:
            continue
        numer, denom = solution
        tight = []
        for i, row in enumerate(rows):
            side = sign_of(sum(map(mul, row, numer)) - row[-1] * denom)
            if side > 0:
                break
            if side == 0:
                tight.append(i)
        else:
            if rational:
                g = math.gcd(denom, *numer)
                key = (tuple(x // g for x in numer), denom // g)
            else:
                key = tuple(field.coerce(x / denom) for x in numer)
            found.setdefault(key, tuple(tight))
    if rational:
        return [
            (tuple(Fraction(x, denom) for x in numer), tight)
            for (numer, denom), tight in found.items()
        ]
    return list(found.items())


def _lift(hs, field: Field) -> tuple:
    """A halfspace as one row (a_1, ..., a_n, b) meaning a . x <= b, scaled
    by the lcm of its denominators: (v, 1) for a polar row <v, x> <= 1 and
    (-c, 0) for a cone row <c, x> >= 0.  The entries are integers over Q
    and Quadratic values with integer parts over Q(sqrt d)."""
    parts = [(x.a, x.b) if isinstance(x, Quadratic) else (x, 0) for x in hs.normal]
    scale = math.lcm(*(Fraction(p).denominator for pair in parts for p in pair))
    sign = 1 if hs.kind == POLAR else -1
    rhs = scale if hs.kind == POLAR else 0
    if field.kind == "rational":
        return tuple(int(sign * scale * a) for a, _ in parts) + (rhs,)
    return tuple(
        Quadratic(sign * scale * a, sign * scale * b, field.d) for a, b in parts
    ) + (Quadratic(rhs, 0, field.d),)


def _bareiss(rows, divide):
    """Solve the n boundaries a . x = b of n lifted rows by fraction-free
    Gauss-Jordan elimination (Bareiss 1968).

    Every entry stays a minor of the input, so ``divide`` by the previous
    pivot is exact: floor division on integers, field division on Quadratic
    values.  Returns (N, D) with D > 0 and x = N / D, or None when the
    boundaries are linearly dependent.
    """
    work = [list(r) for r in rows]
    n = len(work)
    prev = 1
    for k in range(n):
        p = k
        while work[p][k] == 0:
            p += 1
            if p == n:
                return None
        work[k], work[p] = work[p], work[k]
        top = work[k]
        pivot = top[k]
        for i, row in enumerate(work):
            if i != k:
                f = row[k]
                for j in range(k + 1, n + 1):
                    row[j] = divide(pivot * row[j] - f * top[j], prev)
        prev = pivot
    numer = [row[n] for row in work]
    if prev < 0:
        return [-x for x in numer], -prev
    return numer, prev


def _float_vertices(poly: HPolytope) -> list:
    """(vertex, tight set) pairs with the float tolerances: vertices are
    deduplicated after rounding to 9 digits."""
    normals = [hs.normal for hs in poly.halfspaces]
    targets = [1.0 if hs.kind == POLAR else 0.0 for hs in poly.halfspaces]
    found = {}
    for subset in combinations(range(len(normals)), poly.dimension):
        candidate = _solve_square(
            [normals[i] for i in subset], [targets[i] for i in subset]
        )
        if candidate is not None and _feasible(candidate, poly):
            found.setdefault(tuple(round(x, 9) for x in candidate), candidate)
    return [
        (
            candidate,
            tuple(
                i
                for i, (a, b) in enumerate(zip(normals, targets))
                if abs(dot(candidate, a) - b) <= FLOAT_FEAS_EPS
            ),
        )
        for candidate in found.values()
    ]


def _solve_square(matrix, rhs):
    """Solve an n-by-n float system by Gauss-Jordan elimination with the
    largest pivot; returns None when the matrix is singular."""
    n = len(matrix)
    work = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = None
        best = FLOAT_SOLVE_EPS
        for i in range(col, n):
            if abs(work[i][col]) > best:
                best = abs(work[i][col])
                pivot_row = i
        if pivot_row is None:
            return None
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        for i in range(n):
            if i == col:
                continue
            factor = work[i][col] / pivot
            for j in range(col, n + 1):
                work[i][j] = work[i][j] - factor * work[col][j]
    return tuple(work[i][n] / work[i][i] for i in range(n))


def _feasible(point, poly: HPolytope) -> bool:
    for hs in poly.halfspaces:
        s = dot(point, hs.normal)
        if s > 1.0 + FLOAT_FEAS_EPS if hs.kind == POLAR else s < -FLOAT_FEAS_EPS:
            return False
    return True


# -- sampling ------------------------------------------------------------------


def _unit_points(config: Configuration) -> np.ndarray:
    pts = np.array([[float(x) for x in p] for p in config.points], dtype=float)
    return pts / math.sqrt(float(config.norm_sq))


def min_angle_to(config: Configuration, direction) -> float:
    """Angle from a unit direction to the nearest configuration point."""
    u = np.asarray([float(x) for x in direction], dtype=float)
    u = u / np.linalg.norm(u)
    cosines = _unit_points(config) @ u
    return float(math.acos(min(1.0, max(-1.0, cosines.max()))))


def sampled_covering_radius(
    config: Configuration, samples: int, seed: int = 0
) -> float:
    """Monte Carlo lower bound: max over sampled unit vectors of the angle
    to the nearest point.  Never exceeds the true covering radius.

    Sampling uses normalized standard Gaussian vectors from a seeded
    generator, so results are reproducible.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    points = _unit_points(config).T  # n x |A|
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    worst_cos = 1.0
    chunk = max(1, min(samples, SAMPLE_BATCH_PRODUCTS // max(1, points.shape[1])))
    remaining = samples
    while remaining > 0:
        batch = min(chunk, remaining)
        remaining -= batch
        g = rng.standard_normal((batch, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        best = (g @ points).max(axis=1)
        worst_cos = min(worst_cos, float(best.min()))
    return math.acos(min(1.0, max(-1.0, worst_cos)))
