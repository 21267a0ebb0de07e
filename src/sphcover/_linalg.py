"""Elimination kernels: the one place where rows are eliminated.

A kernel holds the vectors of one field in raw form: integer tuples with
content 1 for Q, tuples of integer pairs (a, b) meaning a + b*sqrt(d) for
Q(sqrt(d)), and float tuples scaled to unit max-norm.  Stacks of them are
numpy arrays of the same shape: int64 when a bound shows every intermediate
fits and Python ints in ``dtype=object`` otherwise, with a trailing (a, b)
axis over Q(sqrt(d)), and float64.  The vertex enumerator classifies,
rank-tests and combines whole stacks at once (``classify``, ``ranks``,
``combine_rays``).  Exact ranks come from one fraction-free (Bareiss)
elimination over a stack of matrices, over Q(sqrt(d)) on the rational
regular representation, whose rank is twice the Q(sqrt(d)) rank; the float
kernel keeps its partial-pivoting ``echelon`` for every matrix.  Null
vectors come from the exact kernels' streaming fraction-free echelon.

A :class:`Lift` holds a whole configuration, or vertex set, in the same
integer form under one common denominator, as numpy matrices, so that the
checks which read every point or vertex run as blocked integer matrix
products.  numpy is imported only where a lift is built or read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, lcm, prod
from operator import mul

from .scalar import Field, Quadratic, Scalar

ZERO_EPS = 1e-9  # float zero test, absolute: kernel rows and rays have unit max-norm
# product entries per block of rows, about 512 KiB either way: an exact
# lifted product keeps some 16 int64 temporaries per entry, the float
# certify one float64
BLOCK_ENTRIES = 4096
FLOAT_BLOCK_ENTRIES = 65536


def _int_sign(x: int) -> int:
    return (x > 0) - (x < 0)


class _Kernel:
    """Rank, basis and null-space questions: ranks through ``ranks``, null
    vectors through ``echelon``."""

    def greedy_basis(self, rows, k: int) -> tuple:
        """Indices and rows of the first linearly independent rows, scanned
        in order and taken greedily, at most k of them.  ``rows`` may be a
        lazy iterable; it is read no further than the k-th pick.

        Each round ranks, in one batch, the basis followed by each prefix
        of the next rows, as many as picks are missing; zero rows pad the
        shorter prefixes, and exact rows stay Python ints.  The rows before
        the first one that adds no rank are taken, that one is passed over
        and the rest wait for the next round, so that every decision is the
        rank of the basis so far plus one row."""
        import numpy as np

        rows = enumerate(rows)
        indices, basis, pending = [], [], []
        while len(basis) < k:
            pending += islice(rows, k - len(basis) - len(pending))
            if not pending:
                break
            matrix = self.array(basis + [row for _, row in pending])
            b, height = len(basis), len(matrix)
            keep = np.arange(height) <= np.arange(b, height)[:, None]
            keep = keep.reshape(keep.shape + (1,) * (matrix.ndim - 1))
            ranks = self.ranks(np.where(keep, matrix, 0)).tolist()
            taken = next((j for j, r in enumerate(ranks) if r <= b + j), len(ranks))
            for idx, row in pending[:taken]:
                indices.append(idx)
                basis.append(row)
            pending = pending[taken + 1:]
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

    def orient(self, vec: tuple, row: tuple) -> tuple:
        """The multiple of ``vec`` whose product with ``row`` is positive."""
        return vec if self.dot(row, vec) > 0 else tuple(-x for x in vec)

    def rank_rows(self, rows):
        """``rows`` and a zero row after them as one array, from which
        ``ranks``' stacks are gathered; the zero row pads them."""
        import numpy as np

        matrix = self.array(list(rows))
        return np.concatenate((matrix, np.zeros_like(matrix[:1])))

    def vector(self, row) -> tuple:
        """One row of a stack as a ray."""
        return tuple(row.tolist())


class _ExactKernel(_Kernel):
    """Kernels with integer entries, eliminated without division.

    ``regular`` maps a stack of matrices to rational ones whose rank is
    ``factor`` times theirs."""

    factor = 1

    def echelon(self, rows) -> list:
        """Streaming fraction-free elimination: (pivot column, row) pairs.

        Each kept row is zero in the pivot columns of the rows kept before
        it.
        """
        echelon = []
        for row in rows:
            for pivot_col, pivot_row in echelon:
                factor = row[pivot_col]
                if self.is_zero(factor):
                    continue
                row = self.combine(pivot_row[pivot_col], row, factor, pivot_row)
            pivot_col = next(
                (j for j, x in enumerate(row) if not self.is_zero(x)), None
            )
            if pivot_col is not None:
                echelon.append((pivot_col, row))
        return echelon

    def array(self, vectors):
        import numpy as np

        return np.array(vectors, dtype=object)

    def ranks(self, stack, k: int | None = None):
        """Rank of each matrix of a stack, at most k when k is given."""
        f = self.factor
        return _bareiss_ranks(self.regular(stack), None if k is None else f * k) // f

    def quotient_slots(self, rays, shared: dict):
        """The slot of x / t for each coordinate x of each ray (t, x) of a
        stack.  ``shared`` numbers the distinct raw pairs (x, t) met so far,
        each to become one ``quotient``, so that vertices share their equal
        coordinates; equal values met as different pairs, such as 1/2 and
        2/4, get different slots."""
        import numpy as np

        return np.array(
            [[shared.setdefault(key, len(shared)) for key in keys]
             for keys in self._pairs(rays)],
            dtype=np.intp,
        )

    def rank_rows(self, rows):
        """As ``_Kernel.rank_rows``, int64 when the first elimination step
        on its regular form stays in int64 (``ranks`` checks every later
        step)."""
        matrix = super().rank_rows(rows)
        top = _top(self.regular(matrix[None]))
        return matrix.astype(_int_dtype(2 * top * top))


def _top(stack) -> int:
    """The largest absolute entry of an integer array."""
    return int(max(stack.max(), -stack.min()))


def _bareiss_ranks(stack, k: int | None):
    """Ranks of a stack of integer matrices (count, rows, columns), at most
    k, by one fraction-free elimination run on all of them at once.

    Column by column, each matrix below k takes its first row with a
    nonzero entry there as pivot row, takes that row out (it is zeroed) and
    replaces every row r by (pivot * r - r[col] * pivot_row) / previous
    pivot.  The division is exact, because every entry stays a minor of the
    matrix; zero rows, such as padding, stay zero.  An int64 stack moves to
    Python ints before a step whose products could leave int64: both
    products are at most the square of its largest entry.
    """
    import numpy as np

    stack = stack.copy()
    count, _, width = stack.shape
    rank = np.zeros(count, dtype=np.intp)
    previous = np.ones(count, dtype=stack.dtype)
    live = np.arange(count)
    for col in range(width):
        if k is not None:
            live = live[rank[live] < k]
        if not live.size:
            break
        if stack.dtype != object:
            top = _top(stack)
            if _int_dtype(2 * top * top) is object:
                stack, previous = stack.astype(object), previous.astype(object)
        nonzero = stack[live, :, col] != 0
        has = nonzero.any(axis=1)
        items = live[has]
        if not items.size:
            continue
        pick = nonzero[has].argmax(axis=1)
        pivot_rows = stack[items, pick, col:]
        stack[items, pick] = 0
        rest = stack[items, :, col + 1:]
        rest *= pivot_rows[:, :1, None]
        rest -= stack[items, :, col, None] * pivot_rows[:, None, 1:]
        rest //= previous[items, None, None]
        stack[items, :, col + 1:] = rest
        previous[items] = pivot_rows[:, 0]
        rank[items] += 1
    return rank


def _primitive(stack):
    """Each vector of a stack divided by the gcd of its entries."""
    import numpy as np

    g = np.gcd.reduce(stack.reshape(len(stack), prod(stack.shape[1:])), axis=1)
    return stack // g.reshape((-1,) + (1,) * (stack.ndim - 1))


class _RationalKernel(_ExactKernel):
    """Rays as integer tuples with content 1."""

    def vec_from_scalars(self, scalars) -> tuple:
        fracs = []
        for x in scalars:
            if type(x) is not Fraction:
                if isinstance(x, Quadratic):
                    if x.b != 0:
                        raise TypeError("quadratic value in a rational system")
                    x = x.a
                x = Fraction(x)
            fracs.append(x)
        den = lcm(*(f.denominator for f in fracs))
        return self.reduce(
            tuple(f.numerator * (den // f.denominator) for f in fracs)
        )

    def unit(self, width: int, j: int) -> tuple:
        return tuple(int(i == j) for i in range(width))

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

    def signs(self, a, b):
        """Elementwise sign of an integer array (``b`` is None over Q)."""
        import numpy as np

        return np.sign(a)

    def combine(self, sp: int, rm: tuple, sm: int, rp: tuple) -> tuple:
        return self.reduce(tuple(sp * b - sm * a for a, b in zip(rp, rm)))

    def classify(self, rays, row: tuple) -> tuple:
        """Products of ``row`` with a stack of rays and their signs, and the
        rays in the dtype in which ``combine_rays`` on them cannot overflow:
        a product is at most S = width * max|row| * max|ray|, a combined
        entry at most 2 * S * max|ray|."""
        import numpy as np

        top = _top(rays)
        bound = len(row) * max(map(abs, row)) * top
        dtype = _int_dtype(2 * bound * top)
        rays = rays.astype(dtype, copy=False)
        products = rays @ np.array(row, dtype=dtype)
        return rays, products, np.sign(products)

    def combine_rays(self, sp, rm, sm, rp):
        """``combine`` on stacks, one (sp, rm, sm, rp) per row."""
        return _primitive(sp[:, None] * rm - sm[:, None] * rp)

    def regular(self, stack):
        return stack

    def _pairs(self, rays):
        """The raw (x, t) pairs of the coordinates of each ray (t, x)."""
        for t, *x in rays.tolist():
            yield zip(x, repeat(t))

    def quotient(self, x: int, t: int) -> Fraction:
        return Fraction(x, t)

    def to_scalar(self, raw: int) -> Scalar:
        return Fraction(raw)

    def is_zero(self, x: int) -> bool:
        return x == 0


class _QuadraticKernel(_ExactKernel):
    """Rays as tuples of (a, b) integer pairs meaning a + b*sqrt(d)."""

    factor = 2

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
                parts.append((x if type(x) is Fraction else Fraction(x), Fraction(0)))
        den = lcm(*(x.denominator for x in chain.from_iterable(parts)))
        return self.reduce(
            tuple(
                (
                    a.numerator * (den // a.denominator),
                    b.numerator * (den // b.denominator),
                )
                for a, b in parts
            )
        )

    def unit(self, width: int, j: int) -> tuple:
        return tuple((int(i == j), 0) for i in range(width))

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

    def signs(self, a, b):
        """``sign`` elementwise on integer arrays a, b (int64 or Python
        ints): entries whose parts have opposite signs are decided by the
        sign of a^2 - d b^2, computed on those entries only."""
        import numpy as np

        sa, sb = np.sign(a), np.sign(b)
        out = np.sign(sa + sb)
        mixed = sa * sb < 0
        if mixed.any():
            am, bm = a[mixed], b[mixed]
            out[mixed] = sa[mixed] * np.sign(am * am - self.d * (bm * bm))
        return out

    def combine(self, sp: tuple, rm: tuple, sm: tuple, rp: tuple) -> tuple:
        out = []
        for a, b in zip(rp, rm):
            pb = self._mul(sp, b)
            ma = self._mul(sm, a)
            out.append((pb[0] - ma[0], pb[1] - ma[1]))
        return self.reduce(tuple(out))

    def classify(self, rays, row: tuple) -> tuple:
        """As the rational ``classify``, on (a, b) parts: a product's parts
        are at most S = width * (1 + d) * max|row| * max|ray|, ``signs``
        squares them and a combined entry is at most 2 (1 + d) S max|ray|."""
        import numpy as np

        d = self.d
        top = _top(rays)
        bound = len(row) * (1 + d) * max(map(abs, chain.from_iterable(row))) * top
        dtype = _int_dtype((1 + d) * bound * max(bound, 2 * top))
        rays = rays.astype(dtype, copy=False)
        w = np.array(row, dtype=dtype)
        ra, rb = rays[..., 0], rays[..., 1]
        a = ra @ w[:, 0] + d * (rb @ w[:, 1])
        b = ra @ w[:, 1] + rb @ w[:, 0]
        return rays, np.stack((a, b), axis=-1), self.signs(a, b)

    def combine_rays(self, sp, rm, sm, rp):
        """``combine`` on stacks of (a, b) rays, one (sp, rm, sm, rp) per
        row."""
        import numpy as np

        d = self.d
        pa, pb = sp[:, None, 0], sp[:, None, 1]
        ma, mb = sm[:, None, 0], sm[:, None, 1]
        xa, xb = rm[..., 0], rm[..., 1]
        ya, yb = rp[..., 0], rp[..., 1]
        a = pa * xa + d * (pb * xb) - ma * ya - d * (mb * yb)
        b = pa * xb + pb * xa - ma * yb - mb * ya
        return _primitive(np.stack((a, b), axis=-1))

    def vector(self, row) -> tuple:
        return tuple(map(tuple, row.tolist()))

    def regular(self, stack):
        """Each matrix A + sqrt(d) B of a stack of (a, b) matrices as the
        rational matrix [[A, B], [d B, A]]: its rows span the rows r and
        sqrt(d) r over Q, so its rank is twice that of A + sqrt(d) B."""
        import numpy as np

        a, b = stack[..., 0], stack[..., 1]
        return np.concatenate(
            (np.concatenate((a, b), axis=2), np.concatenate((self.d * b, a), axis=2)),
            axis=1,
        )

    def _pairs(self, rays):
        """The raw parts (a, b, ta, tb) of the coordinates a + b sqrt(d) of
        each ray (ta + tb sqrt(d), x)."""
        parts = zip(rays[..., 0].tolist(), rays[..., 1].tolist())
        for (ta, *xa), (tb, *xb) in parts:
            yield zip(xa, xb, repeat(ta), repeat(tb))

    def quotient(self, a: int, b: int, ta: int, tb: int) -> Scalar:
        """(a + b sqrt(d)) / (ta + tb sqrt(d)) as x * conj(t) over the
        integer norm t * conj(t); a Fraction when it has no sqrt(d) part."""
        d = self.d
        norm = ta * ta - tb * tb * d
        qa = Fraction(a * ta - b * tb * d, norm)
        qb = b * ta - a * tb
        return qa if qb == 0 else Quadratic(qa, Fraction(qb, norm), d)

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

    def unit(self, width: int, j: int) -> tuple:
        return tuple(float(i == j) for i in range(width))

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

    def array(self, vectors):
        import numpy as np

        return np.array(vectors, dtype=float)

    def ranks(self, stack, k: int | None = None):
        """``echelon`` on each matrix of the stack without its zero
        (padding) rows, so every float decision is the per-matrix one."""
        import numpy as np

        return np.array(
            [len(self.echelon([r for r in m.tolist() if any(r)], k)) for m in stack],
            dtype=int,
        )

    def classify(self, rays, row: tuple) -> tuple:
        """Products of ``row`` with a stack of rays, summed column by column
        as ``dot`` sums them, and their ``sign``s."""
        import numpy as np

        products = np.zeros(len(rays))
        for j, x in enumerate(row):
            products += rays[:, j] * x
        signs = (products > ZERO_EPS).astype(int) - (products < -ZERO_EPS)
        return rays, products, signs

    def combine_rays(self, sp, rm, sm, rp):
        """``combine`` on stacks, one (sp, rm, sm, rp) per row."""
        out = sp[:, None] * rm - sm[:, None] * rp
        scale = abs(out).max(axis=1)
        scale[scale == 0.0] = 1.0
        return out / scale[:, None]

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


def _int_dtype(bound: int):
    """int64 when ``bound`` shows every intermediate fits, else Python ints."""
    import numpy as np

    return np.int64 if bound < 2**62 else object


def row_blocks(rows: int, width: int, entries: int = BLOCK_ENTRIES):
    """Slices of at most ``entries / width`` rows (at least one), so that a
    block's product with ``width`` columns stays small."""
    step = max(1, entries // max(1, width))
    return (slice(i, i + step) for i in range(0, rows, step))


class Lift:
    """Equal-length vectors p = (a + b*sqrt(d)) / scale, one row each.

    On exact fields ``a`` and ``b`` are integer matrices (``b`` is None and
    ``d`` is 0 over Q), int64 when their entries fit and Python ints
    otherwise, and ``top`` bounds those entries.  On the float field ``a``
    is the plain float64 matrix of the vectors and ``scale`` is 1.
    """

    __slots__ = ("scale", "a", "b", "top", "d")

    def __init__(self, scale: int, a, b, top: int, d: int = 0):
        self.scale, self.a, self.b, self.top, self.d = scale, a, b, top, d

    def row_keys(self) -> tuple:
        """One integer per exact vector, equal only for equal vectors, and
        the integer of each vector's negation: the row's entries (a part,
        then b part) shifted by ``top`` are the digits of a number in base
        2 * top + 1, and negating every digit's entry maps a key k to
        ``full - k``."""
        import numpy as np

        parts = self.a if self.b is None else np.hstack((self.a, self.b))
        base = 2 * self.top + 1
        width = parts.shape[1]
        dtype = _int_dtype(base**width)
        weights = np.array([base**j for j in range(width)], dtype=dtype)
        keys = (parts.astype(dtype) + self.top) @ weights
        full = base**width - 1  # every digit 2 * top
        return keys.tolist(), (full - keys).tolist()

    def squared_norms(self) -> tuple:
        """Row sums (u, w) with scale^2 * |p|^2 = u + w*sqrt(d): a^2 + d b^2
        and 2 a b (w is None over Q)."""
        d = self.d
        dtype = _int_dtype(self.a.shape[1] * (1 + d) * self.top**2)
        a = self.a.astype(dtype, copy=False)
        if self.b is None:
            return (a * a).sum(axis=1), None
        b = self.b.astype(dtype, copy=False)
        return (a * a + d * (b * b)).sum(axis=1), 2 * (a * b).sum(axis=1)

    def rays(self, pairs: bool):
        """The primitive integer ray (t, x) of (1, p) for each vector p:
        the row (scale, a) over its gcd, so that entries stay as small as
        the vector's own denominators allow; as (a, b) pairs with
        t = (scale, 0) when ``pairs``, also for a lift over Q."""
        import numpy as np

        dtype = self.a.dtype if self.scale < 2**63 else object
        t = np.full((len(self.a), 1), self.scale, dtype=dtype)
        a = np.hstack((t, self.a.astype(dtype, copy=False)))
        if not pairs:
            return _primitive(a)
        b = np.zeros_like(a)
        if self.b is not None:
            b[:, 1:] = self.b
        return _primitive(np.stack((a, b), axis=-1))

    def polar_products(self, rays):
        """Products of the polar rows (scale, -p) with kernel rays (t, x),
        a block of rows at a time: (a, b) parts of shape (block, len(rays)),
        b None over Q.

        The dtype is chosen once, from a bound on every intermediate; over
        Q(sqrt d) that includes the squares ``_QuadraticKernel.signs`` takes
        of the products.
        """
        import numpy as np

        d = self.d
        r = np.array(rays)
        bound = int(np.abs(r).max()) * (
            self.scale + (1 + d) * self.a.shape[1] * self.top
        )
        dtype = _int_dtype(bound if self.b is None else (1 + d) * bound * bound)
        r = r.astype(dtype, copy=False)
        a = self.a.astype(dtype, copy=False)
        blocks = row_blocks(len(a), len(rays))
        if self.b is None:
            t, x = self.scale * r[:, 0], r[:, 1:].T
            for rows in blocks:
                yield t - a[rows] @ x, None
            return
        b = self.b.astype(dtype, copy=False)
        ta, tb = self.scale * r[:, 0, 0], self.scale * r[:, 0, 1]
        xa, xb = r[:, 1:, 0].T, r[:, 1:, 1].T
        for rows in blocks:
            ar, br = a[rows], b[rows]
            yield ta - ar @ xa - d * (br @ xb), tb - ar @ xb - br @ xa


def lift(vectors, field: Field) -> Lift:
    """Lift equal-length scalar vectors to a :class:`Lift`.

    Each distinct coordinate value is converted once: the kernel vector of
    (1, values...) has the common denominator as its first entry and the
    values' numerators after it, and every vector is lifted by table
    lookup.  The table is reached through the identity of the coordinate
    objects, so each distinct object is hashed by value once, not each
    coordinate.
    """
    import numpy as np

    if not field.is_exact:
        return Lift(1, np.array(vectors, dtype=float), None, 0)
    objects = {id(x): x for x in chain.from_iterable(vectors)}
    values: dict = {}
    value_of = [values.setdefault(x, len(values)) for x in objects.values()]
    slot = dict(zip(objects, value_of)).__getitem__
    idx = np.fromiter(map(slot, map(id, chain.from_iterable(vectors))), dtype=np.intp)
    table = kernel_for(field).vec_from_scalars((field.one, *values))
    if field.kind == "rational":
        scale, parts = table[0], [table[1:]]
    else:
        scale, parts = table[0][0], list(zip(*table[1:]))
    top = max(map(abs, chain.from_iterable(parts)))
    dtype = np.int64 if top < 2**63 else object
    a, *b = (np.array(p, dtype=dtype)[idx].reshape(len(vectors), -1) for p in parts)
    return Lift(scale, a, b[0] if b else None, top, field.d or 0)
