"""Independent brute-force and sampling cross-checks.

These deliberately naive routines anchor the test suite: the brute-force
enumerator solves every n-subset of constraint boundaries instead of running
the incremental engine, and the sampling bound probes the sphere directly.
Neither shares code with the double description path beyond the scalar
types.
"""

from __future__ import annotations

import math

import numpy as np

from .configgen import Configuration
from .polytope import POLAR, HPolytope, VertexSet
from .scalar import Field, dot, sign_of

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


class InstanceTooLarge(ValueError):
    """The instance exceeds the deliberate brute-force guard."""


def brute_force_vertices(poly: HPolytope) -> VertexSet:
    """Vertices via exhaustive n-subset boundary solves.

    Every full-rank n-subset of constraint boundaries is solved exactly;
    solutions satisfying all halfspaces are kept and deduplicated.  Guarded
    to small instances because of the combinatorial explosion.
    """
    n = poly.dimension
    m = len(poly.halfspaces)
    if m > MAX_HALFSPACES or n > MAX_DIMENSION:
        raise InstanceTooLarge(
            f"{m} halfspaces in dimension {n} exceeds the brute-force guard "
            f"({MAX_HALFSPACES} halfspaces, dimension {MAX_DIMENSION})"
        )
    field = poly.field
    one, zero = field.one, field.zero
    rows = [hs.normal for hs in poly.halfspaces]
    rhs = [one if hs.kind == POLAR else zero for hs in poly.halfspaces]

    from itertools import combinations

    found = {}
    for subset in combinations(range(m), n):
        matrix = [rows[i] for i in subset]
        vector = [rhs[i] for i in subset]
        candidate = _solve_square(matrix, vector, field)
        if candidate is None:
            continue
        if not _feasible(candidate, poly):
            continue
        key = candidate if field.is_exact else tuple(round(x, 9) for x in candidate)
        found.setdefault(key, candidate)

    results = []
    for candidate in found.values():
        tight = tuple(
            i
            for i, hs in enumerate(poly.halfspaces)
            if _is_tight(candidate, hs, field)
        )
        results.append((candidate, tight))
    results.sort(key=lambda item: item[0])
    return VertexSet(
        tuple(c for c, _ in results), tuple(t for _, t in results)
    )


def _solve_square(matrix, rhs, field: Field):
    """Solve an n-by-n system; returns None when the matrix is singular."""
    n = len(matrix)
    work = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = None
        if field.is_exact:
            for i in range(col, n):
                if sign_of(work[i][col]) != 0:
                    pivot_row = i
                    break
        else:
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
            if field.is_exact and sign_of(factor) == 0:
                continue
            for j in range(col, n + 1):
                work[i][j] = work[i][j] - factor * work[col][j]
    return tuple(work[i][n] / work[i][i] for i in range(n))


def _feasible(point, poly: HPolytope) -> bool:
    field = poly.field
    for hs in poly.halfspaces:
        s = dot(point, hs.normal)
        if hs.kind == POLAR:
            if field.is_exact:
                if sign_of(s - field.one) > 0:
                    return False
            elif s > 1.0 + FLOAT_FEAS_EPS:
                return False
        else:
            if field.is_exact:
                if sign_of(s) < 0:
                    return False
            elif s < -FLOAT_FEAS_EPS:
                return False
    return True


def _is_tight(point, hs, field) -> bool:
    s = dot(point, hs.normal)
    target = field.one if hs.kind == POLAR else field.zero
    if field.is_exact:
        return sign_of(s - target) == 0
    return abs(s - float(target)) <= FLOAT_FEAS_EPS


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
    chunk = max(1, min(samples, 20_000_000 // max(1, points.shape[1])))
    remaining = samples
    while remaining > 0:
        batch = min(chunk, remaining)
        remaining -= batch
        g = rng.standard_normal((batch, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        best = (g @ points).max(axis=1)
        worst_cos = min(worst_cos, float(best.min()))
    return math.acos(min(1.0, max(-1.0, worst_cos)))
