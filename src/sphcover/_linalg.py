"""Elimination kernels: the one place where rows are eliminated.

A kernel holds the vectors of one field in raw form: integer tuples with
content 1 for Q, tuples of integer pairs (a, b) meaning a + b*sqrt(d) for
Q(sqrt(d)), and float tuples scaled to unit max-norm.  Each kernel has one
echelon routine, and every rank, basis and null-space question of the
configuration check and the vertex enumerator is answered through it.  The
exact kernels eliminate fraction-free, one row at a time; the float kernel
pivots on the largest magnitude, column by column.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .scalar import Field, Quadratic, Scalar

ZERO_EPS = 1e-9  # float zero test, absolute: kernel rows and rays have unit max-norm


def _int_sign(x: int) -> int:
    return (x > 0) - (x < 0)


class _Kernel:
    """Rank, basis and null-space questions, answered through ``echelon``."""

    def rank_at_least(self, rows, k: int) -> bool:
        return k <= 0 or len(self.echelon(rows, k)) >= k

    def greedy_basis(self, rows, k: int) -> tuple:
        """Indices and rows of the first linearly independent rows, scanned
        in order and taken greedily, at most k of them.  ``rows`` may be a
        lazy iterable; it is read no further than the k-th pick."""
        indices, basis = [], []
        for idx, row in enumerate(rows):
            if self.rank_at_least(basis + [row], len(basis) + 1):
                indices.append(idx)
                basis.append(row)
                if len(basis) == k:
                    break
        return indices, basis

    def null_vector(self, rows) -> tuple:
        """A nonzero vector orthogonal to every row of a rank-deficient set.

        Back substitution through the echelon from the first non-pivot
        column, scaling by each pivot so that exact entries stay integral.
        """
        echelon = self.echelon(rows)
        width = len(rows[0])
        pivots = {col for col, _ in echelon}
        free = min(j for j in range(width) if j not in pivots)
        x = self.unit(width, free)
        for col, row in reversed(echelon):
            # x[col] is still zero: pivot * x - (row . x) * e_col zeroes row . x
            x = self.combine(row[col], x, self.dot(row, x), self.unit(width, col))
        return x

    def unit(self, width: int, j: int) -> tuple:
        return self.vec_from_scalars([Fraction(i == j) for i in range(width)])

    def orient(self, vec: tuple, row: tuple) -> tuple:
        """The multiple of ``vec`` whose product with ``row`` is positive."""
        return vec if self.dot(row, vec) > 0 else tuple(-x for x in vec)


class _ExactKernel(_Kernel):
    """Kernels with integer entries, eliminated without division."""

    def echelon(self, rows, k: int | None = None) -> list:
        """Streaming fraction-free elimination: (pivot column, row) pairs.

        Each kept row is zero in the pivot columns of the rows kept before
        it.  Stops once k rows are kept or k can no longer be reached.
        """
        echelon = []
        remaining = len(rows)
        for row in rows:
            if k is not None and len(echelon) + remaining < k:
                break
            remaining -= 1
            for pivot_col, pivot_row in echelon:
                factor = row[pivot_col]
                if self.is_zero(factor):
                    continue
                row = self.combine(pivot_row[pivot_col], row, factor, pivot_row)
            pivot_col = next(
                (j for j, x in enumerate(row) if not self.is_zero(x)), None
            )
            if pivot_col is None:
                continue
            echelon.append((pivot_col, row))
            if len(echelon) == k:
                break
        return echelon


class _RationalKernel(_ExactKernel):
    """Rays as integer tuples with content 1."""

    def vec_from_scalars(self, scalars) -> tuple:
        fracs = []
        for x in scalars:
            if isinstance(x, Quadratic):
                if x.b != 0:
                    raise TypeError("quadratic value in a rational system")
                x = x.a
            fracs.append(Fraction(x))
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        return self.reduce(tuple(int(f * den) for f in fracs))

    def reduce(self, vec: tuple) -> tuple:
        g = 0
        for x in vec:
            g = gcd(g, x)
        if g > 1:
            return tuple(x // g for x in vec)
        return vec

    def dot(self, u: tuple, v: tuple) -> int:
        return sum(map(mul, u, v))

    def sign(self, s: int) -> int:
        return _int_sign(s)

    def combine(self, sp: int, rm: tuple, sm: int, rp: tuple) -> tuple:
        return self.reduce(tuple(sp * b - sm * a for a, b in zip(rp, rm)))

    def dehomogenize(self, ray: tuple) -> tuple:
        t = ray[0]
        return tuple(Fraction(x, t) for x in ray[1:])

    def to_scalar(self, raw: int) -> Scalar:
        return Fraction(raw)

    def is_zero(self, x: int) -> bool:
        return x == 0


class _QuadraticKernel(_ExactKernel):
    """Rays as tuples of (a, b) integer pairs meaning a + b*sqrt(d)."""

    def __init__(self, d: int):
        self.d = d

    def vec_from_scalars(self, scalars) -> tuple:
        parts = []
        for x in scalars:
            if isinstance(x, Quadratic):
                if x.d != self.d and x.b != 0:
                    raise TypeError(f"sqrt({x.d}) value in a sqrt({self.d}) system")
                parts.append((x.a, x.b))
            else:
                parts.append((Fraction(x), Fraction(0)))
        den = 1
        for a, b in parts:
            den = den * a.denominator // gcd(den, a.denominator)
            den = den * b.denominator // gcd(den, b.denominator)
        return self.reduce(tuple((int(a * den), int(b * den)) for a, b in parts))

    def reduce(self, vec: tuple) -> tuple:
        g = 0
        for a, b in vec:
            g = gcd(gcd(g, a), b)
        if g > 1:
            return tuple((a // g, b // g) for a, b in vec)
        return vec

    def _mul(self, x, y):
        return (x[0] * y[0] + x[1] * y[1] * self.d, x[0] * y[1] + x[1] * y[0])

    def dot(self, u: tuple, v: tuple) -> tuple:
        a = b = 0
        d = self.d
        for (xa, xb), (ya, yb) in zip(u, v):
            a += xa * ya + xb * yb * d
            b += xa * yb + xb * ya
        return (a, b)

    def sign(self, s: tuple) -> int:
        a, b = s
        if b == 0:
            return _int_sign(a)
        if a == 0:
            return _int_sign(b)
        sa, sb = _int_sign(a), _int_sign(b)
        if sa == sb:
            return sa
        return sa * _int_sign(a * a - b * b * self.d)

    def combine(self, sp: tuple, rm: tuple, sm: tuple, rp: tuple) -> tuple:
        out = []
        for a, b in zip(rp, rm):
            pb = self._mul(sp, b)
            ma = self._mul(sm, a)
            out.append((pb[0] - ma[0], pb[1] - ma[1]))
        return self.reduce(tuple(out))

    def dehomogenize(self, ray: tuple) -> tuple:
        """x / t for each coordinate x, as x * conj(t) over the integer
        norm t * conj(t); a coordinate without a sqrt(d) part is a Fraction."""
        ta, tb = ray[0]
        d = self.d
        norm = ta * ta - tb * tb * d
        out = []
        for a, b in ray[1:]:
            qa = Fraction(a * ta - b * tb * d, norm)
            qb = b * ta - a * tb
            out.append(qa if qb == 0 else Quadratic(qa, Fraction(qb, norm), d))
        return tuple(out)

    def to_scalar(self, raw: tuple) -> Scalar:
        a, b = raw
        return Fraction(a) if b == 0 else Quadratic(a, b, self.d)

    def is_zero(self, x: tuple) -> bool:
        return x == (0, 0)

    def orient(self, vec: tuple, row: tuple) -> tuple:
        """A null vector is fixed only up to a field element s; multiplying
        by the conjugate of s = row . vec leaves the rational product
        s * conj(s) = a^2 - d b^2, so the reduced result is the primitive
        integer form of the matching inverse column, not a multiple of it
        whose coefficients grow."""
        a, b = self.dot(row, vec)
        vec = self.reduce(tuple(self._mul((a, -b), x) for x in vec))
        if a * a - b * b * self.d > 0:
            return vec
        return tuple((-x, -y) for x, y in vec)


class _FloatKernel(_Kernel):
    """Rays as float tuples scaled to unit max-norm."""

    def vec_from_scalars(self, scalars) -> tuple:
        return self.reduce(tuple(float(x) for x in scalars))

    def reduce(self, vec: tuple) -> tuple:
        scale = max(abs(x) for x in vec)
        if scale == 0.0 or scale == 1.0:
            return vec
        return tuple(x / scale for x in vec)

    def dot(self, u: tuple, v: tuple) -> float:
        return sum(map(mul, u, v))

    def sign(self, s: float) -> int:
        if s > ZERO_EPS:
            return 1
        if s < -ZERO_EPS:
            return -1
        return 0

    def combine(self, sp: float, rm: tuple, sm: float, rp: tuple) -> tuple:
        return self.reduce(tuple(sp * b - sm * a for a, b in zip(rp, rm)))

    def dehomogenize(self, ray: tuple) -> tuple:
        t = ray[0]
        return tuple(x / t for x in ray[1:])

    def to_scalar(self, raw: float) -> Scalar:
        return raw

    def echelon(self, rows, k: int | None = None) -> list:
        """Partial-pivoting elimination, column by column: (pivot column,
        row) pairs with increasing pivot columns.  Stops at k pivots."""
        work = [list(r) for r in rows]
        ncols = len(work[0]) if work else 0
        echelon = []
        rank = 0
        for col in range(ncols):
            best, pivot_row = ZERO_EPS, None
            for i in range(rank, len(work)):
                if abs(work[i][col]) > best:
                    best, pivot_row = abs(work[i][col]), i
            if pivot_row is None:
                continue
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            prow = work[rank]
            pivot = prow[col]
            for i in range(rank + 1, len(work)):
                f = work[i][col] / pivot
                if f != 0.0:
                    row = work[i]
                    for j in range(col, ncols):
                        row[j] -= f * prow[j]
                    scale = max(abs(x) for x in row)
                    if scale > 1.0:
                        for j in range(ncols):
                            row[j] /= scale
            echelon.append((col, prow))
            rank += 1
            if rank == k:
                break
        return echelon


def kernel_for(field: Field) -> _Kernel:
    if field.kind == "rational":
        return _RationalKernel()
    if field.kind == "quadratic":
        return _QuadraticKernel(field.d)
    return _FloatKernel()


def rank(rows, field: Field) -> int:
    """Rank of a list of equal-length scalar vectors over ``field``.

    ``perfbench/workloads.py`` draws its random instances with it.
    """
    kernel = kernel_for(field)
    return len(kernel.echelon([kernel.vec_from_scalars(r) for r in rows]))
