"""Independent brute-force and sampling cross-checks.

These routines anchor the test suite: the brute-force enumerator solves
every n-subset of constraint boundaries instead of running the incremental
engine, and the sampling bound probes the sphere directly.  Neither shares
code with the double description path beyond the scalar types.  On exact
fields the brute force runs its own fraction-free elimination, batched over
stacks of subsets in numpy: one elimination routine for Q and Q(sqrt d),
whose entries carry their integer parts along a leading axis so that only
the multiply, exact-divide and sign steps know the field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations, islice

import numpy as np

from .configgen import Configuration
from .polytope import POLAR, HPolytope, VertexSet
from .scalar import Field, Quadratic, dot

__all__ = [
    "InstanceTooLarge",
    "brute_force_vertices",
    "sampled_covering_radius",
]

MAX_SUBSETS = 400_000  # n-subsets beyond which the brute force refuses

FLOAT_FEAS_EPS = 1e-9
FLOAT_SOLVE_EPS = 1e-9  # float pivots at or below this count as zero

SUBSET_BLOCK = 4096  # n-subsets eliminated together
INT64_MAX = 2**63 - 1  # the exact brute force uses int64 up to here

SAMPLE_BATCH_PRODUCTS = 1_000_000  # sample x point products per sampling batch


class InstanceTooLarge(ValueError):
    """The instance exceeds the deliberate brute-force guard."""


def brute_force_vertices(poly: HPolytope) -> VertexSet:
    """Vertices via exhaustive n-subset boundary solves.

    Every full-rank n-subset of constraint boundaries is solved (exactly,
    by batched fraction-free elimination, on exact fields); solutions satisfying
    all halfspaces are kept and deduplicated.  The work is guarded by the
    count of subsets: more than ``MAX_SUBSETS`` raise InstanceTooLarge.
    """
    n, m = poly.dimension, len(poly.halfspaces)
    if math.comb(m, n) > MAX_SUBSETS:
        raise InstanceTooLarge(
            f"{math.comb(m, n)} {n}-subsets of {m} halfspaces exceed the "
            f"brute-force guard of {MAX_SUBSETS} subsets"
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
    """(vertex, tight set) pairs from integer rows, every n-subset solved
    in blocks of ``SUBSET_BLOCK`` by :func:`_eliminate`.

    Each subset's solution stays numerators N over a determinant D, x = N / D,
    and one product of the rows with (N, -D) per block gives the sign of
    ``row . N - rhs * D`` for every row and subset.  Only feasible solutions
    are put in lowest terms (times conj(D) over Q(sqrt d), so that the
    denominator is a positive integer), and one vertex is built per distinct
    solution.
    """
    n, d = poly.dimension, poly.field.d
    if len(poly.halfspaces) < n:
        return []
    rows = _lift(poly)
    rows = rows.astype(_int_dtype(rows, n, d))
    columns = rows.transpose(0, 2, 1)  # (part, column, row) for the gather
    found = {}
    subsets = combinations(range(rows.shape[1]), n)
    remaining = math.comb(rows.shape[1], n)
    while remaining:
        size = min(SUBSET_BLOCK, remaining)
        remaining -= size
        block = np.fromiter(
            chain.from_iterable(islice(subsets, size)), np.intp, size * n
        )
        work = columns[:, :, block.reshape(size, n).T]
        numer, denom, solved = _eliminate(work, d)
        solution = np.concatenate((numer, -denom[:, None]), axis=1)
        side = _sign(_mul(rows, solution, d, np.matmul), d)
        side *= _sign(denom, d)
        hits = np.flatnonzero(solved & (side <= 0).all(axis=0))
        if not hits.size:
            continue
        numer, denom = _times_conjugate(numer[:, :, hits], denom[:, None, hits], d)
        keys = np.concatenate((numer.reshape(-1, hits.size), denom))
        g = np.gcd.reduce(keys, axis=0)
        g *= np.sign(denom[0])
        keys //= g
        tight = side[:, hits] == 0
        for column, key in enumerate(map(tuple, keys.T.tolist())):
            if key not in found:
                found[key] = tuple(np.flatnonzero(tight[:, column]).tolist())
    return [(_vertex(key, n, poly.field), tight) for key, tight in found.items()]


def _vertex(key: tuple, n: int, field: Field) -> tuple:
    """The coordinates of a lowest-terms key (N parts..., D)."""
    denom = key[-1]
    if field.d is None:
        return tuple(Fraction(a, denom) for a in key[:n])
    return tuple(
        field.coerce(Quadratic(Fraction(a, denom), Fraction(b, denom), field.d))
        for a, b in zip(key[:n], key[n:-1])
    )


def _lift(poly: HPolytope) -> np.ndarray:
    """The halfspaces as integer rows (a_1, ..., a_n, b) meaning a . x <= b,
    each scaled by the lcm of its denominators: (v, 1) for a polar row
    <v, x> <= 1 and (-c, 0) for a cone row <c, x> >= 0.  The array is
    (part, row, column) of Python ints, with one part over Q and the parts
    a, b of a + b*sqrt(d) over Q(sqrt d)."""
    quadratic = poly.field.d is not None
    lifted = []
    for hs in poly.halfspaces:
        if quadratic:
            pairs = [
                (x.a, x.b) if isinstance(x, Quadratic) else (x, 0) for x in hs.normal
            ]
            parts = ([a for a, _ in pairs], [b for _, b in pairs])
        else:
            parts = (hs.normal,)
        scale = math.lcm(*(x.denominator for part in parts for x in part))
        sign, rhs = (1, scale) if hs.kind == POLAR else (-1, 0)
        ints = [
            [sign * x.numerator * (scale // x.denominator) for x in part]
            for part in parts
        ]
        lifted.append([ints[0] + [rhs]] + [p + [0] for p in ints[1:]])
    return np.array(lifted, dtype=object).transpose(1, 0, 2)


def _int_dtype(rows: np.ndarray, n: int, d: int | None) -> type:
    """int64 when no step of the elimination and the feasibility product
    can leave it, else object (Python ints).

    Every entry the elimination makes is a minor of at most n rows, so its
    parts are bounded by H, the largest product of n row norms (Hadamard;
    a nonzero integer row has norm at least 1).  Over Q(sqrt d) the bound
    holds under both embeddings a +- b*sqrt(d) of the rows, where each
    entry is at most |a| + t*|b| for an integer t > sqrt(d), and each part
    of a minor is at most its larger embedding.  The largest intermediate
    over Q is 2 * H^2 in an elimination step or (n+1) * max|row| * H in the
    product; over Q(sqrt d) a product of parts bounded by X and Y has parts
    and partial sums up to (1 + d) * X * Y, a division multiplies by a
    conjugate, and the sign squares the parts of the product.
    """
    sizes = np.abs(rows)
    if d is not None:
        sizes = sizes[:1] + (math.isqrt(d) + 1) * sizes[1:]
    norms = sorted((sum(x * x for x in row) for row in sizes[0].tolist()), reverse=True)
    top = math.isqrt(math.prod(norms[:n]) - 1) + 1  # H, rounded up
    width = (n + 1) * int(sizes.max()) * top
    if d is None:
        worst = max(2 * top * top, width)
    else:
        c = 1 + d
        worst = max(2 * c * c * top**3, c * (c * width) ** 2)
    return np.int64 if worst <= INT64_MAX else object


def _eliminate(work: np.ndarray, d: int | None) -> tuple:
    """Solve a stack of n boundary systems a . x = b by fraction-free
    Gauss-Jordan elimination (Bareiss 1968), in place.

    ``work`` is (part, column, row, subset), n rows of n + 1 columns per
    subset.  The pivot of column k is the first nonzero entry at or below
    row k.  Every entry stays a minor of the input, so each division by the
    previous pivot is exact.  A subset without a pivot is singular; it
    pivots on 1 from then on, so that nothing divides by zero, and is
    dropped by the caller.  Returns the numerators (part, row, subset), the
    determinants D (part, subset), x = N / D, and which subsets are regular.
    """
    parts, width, n, size = work.shape
    one = np.zeros((parts, 1), work.dtype)
    one[0] = 1
    prev = one
    singular = np.zeros(size, bool)
    for k in range(n):
        nonzero = (work[:, k, k:] != 0).any(axis=0)
        singular |= ~nonzero.any(axis=0)
        below = k + nonzero.argmax(axis=0)
        swap = np.flatnonzero(below != k)
        if swap.size:
            other = below[swap]
            upper = work[:, :, k, swap]
            work[:, :, k, swap] = work[:, :, other, swap]
            work[:, :, other, swap] = upper
        pivot = np.where(singular, one, work[:, k, k])
        factor = work[:, k]
        for j in range(k + 1, width):
            top = work[:, j, k].copy()
            step = _mul(pivot[:, None], work[:, j], d) - _mul(factor, top[:, None], d)
            numer, norm = _times_conjugate(step, prev[:, None], d)
            work[:, j] = numer // norm
            work[:, j, k] = top
        prev = pivot
    return work[:, n].copy(), prev, ~singular  # a copy frees the stack


# -- the field steps: arrays (part, ...) with one part over Q and the parts
# a, b of a + b*sqrt(d) over Q(sqrt d)


def _mul(x: np.ndarray, y: np.ndarray, d: int | None, op=np.multiply) -> np.ndarray:
    """x * y, elementwise or (``op=np.matmul``) as matrices."""
    if d is None:
        return op(x, y)
    (xa, xb), (ya, yb) = x, y
    return np.stack((op(xa, ya) + d * op(xb, yb), op(xa, yb) + op(xb, ya)))


def _times_conjugate(x: np.ndarray, y: np.ndarray, d: int | None) -> tuple:
    """x * conj(y) and the integer norm y * conj(y), so x / y is their
    quotient; exact division by y is ``//`` of the two."""
    if d is None:
        return x, y[0]
    ya, yb = y
    return _mul(x, np.stack((ya, -yb)), d), ya * ya - d * yb * yb


def _sign(x: np.ndarray, d: int | None) -> np.ndarray:
    """The sign of every element, -1, 0 or 1."""
    if d is None:
        return np.sign(x[0])
    a, b = x
    sa, sb = np.sign(a), np.sign(b)
    # opposite signs: sign(a + b sqrt(d)) = sign(a) * sign(a^2 - d b^2)
    return np.where(sa * sb >= 0, np.sign(sa + sb), sa * np.sign(a * a - d * b * b))


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
    values, index = config.table
    points = np.array([float(x) for x in values])[index]
    points = (points / math.sqrt(float(config.norm_sq))).T  # n x |A|
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    worst_cos = 1.0
    chunk = max(1, min(samples, SAMPLE_BATCH_PRODUCTS // max(1, points.shape[1])))
    # one product buffer for every batch, so that the peak memory does not
    # depend on where the allocator places each batch's product
    products = np.empty((chunk, points.shape[1]))
    remaining = samples
    while remaining > 0:
        batch = min(chunk, remaining)
        remaining -= batch
        g = rng.standard_normal((batch, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        best = np.matmul(g, points, out=products[:batch]).max(axis=1)
        worst_cos = min(worst_cos, float(best.min()))
    return math.acos(min(1.0, max(-1.0, worst_cos)))
