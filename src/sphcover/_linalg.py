"""Elimination kernels: the one place where rows are eliminated.

A kernel holds the vectors of one field as numpy stacks, one vector per
row: integer arrays over Q, with a trailing (a, b) axis meaning
a + b*sqrt(d) over Q(sqrt(d)), int64 when a bound shows every intermediate
fits and Python ints in ``dtype=object`` otherwise, and float64 arrays on
the float field.  ``primitive`` puts each vector of a stack in its kernel
form: over the gcd of its entries on exact fields (content 1), scaled to
unit max-norm on floats.  The vertex enumerator classifies, rank-tests and
combines whole stacks at once (``classify``, ``ranks``, ``combine_rays``).
Exact ranks come from one fraction-free (Bareiss) elimination over a stack
of matrices, over Q(sqrt(d)) on the rational regular representation, whose
rank is twice the Q(sqrt(d)) rank; float ranks count the singular values
above ``RANK_RTOL`` times the largest.  Independent rows, first rays and
null vectors come from ``first_cone``: the double description's own
insertion, run from the unit vectors with those same ``classify`` and
``combine_rays`` steps.

A point set is a table of its distinct coordinate values in ascending
order plus an integer matrix of positions into that table, one row per
point; ``value_table`` builds it for every point set, from rule tables,
scalar tuples and the vertex enumerator's quotients alike.
A :class:`Lift` holds the set in the kernels' integer form under one common
denominator: each table value is converted once and the matrices are the
converted table indexed by the positions, so that the checks which read
every point or vertex run as blocked integer matrix products.  ``lift`` is
the one place where scalars become kernel integers: the double
description's rows, ``validate``'s span check, the deep-hole check's ray
and ``rank`` all read a lift's ``stack``.  numpy is imported only where a
lift is built or read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import lcm, prod

from .scalar import Field, Quadratic, Scalar

ZERO_EPS = 1e-9  # float zero test, absolute: kernel rows and rays have unit max-norm
# float rank: singular values above this times the largest count
RANK_RTOL = 1e-9
# product entries per block of rows, about 512 KiB either way: an exact
# lifted product keeps some 16 int64 temporaries per entry, the float
# certify one float64
BLOCK_ENTRIES = 4096
FLOAT_BLOCK_ENTRIES = 65536


class _Kernel:
    """Rank and basis questions: the DD's rank tests through ``ranks``;
    independent rows, first rays and null spaces through ``first_cone``."""

    def first_cone(self, rows, width: int) -> tuple:
        """The first picks of a double description: the indices of the
        rows picked, the rays (ray j tight on every pick but j and positive
        on pick j) and the lineality left, both stacks.  ``rows`` holds
        vectors in kernel form and may be a lazy iterable; it is read no
        further than the ``width``-th pick.

        The cone starts as the whole space: no rays and the ``width`` unit
        vectors as its lineality.  Each row is classified against the
        stack of both.  The first lineality vector with a nonzero product,
        negated when that product is negative, is the pivot: every other
        vector with a nonzero product is made tight on the row by
        ``combine_rays``, and the pivot joins the rays.  A row on which
        every lineality vector is tight is passed over.

        Over Q(sqrt d) a vector is fixed only up to a field element, which
        ``combine_rays`` does not remove: ``orient`` on its ``leading``
        entry puts each lineality vector left in its primitive form after
        every pick (else the entries' digits double with each pick), and
        ``orient`` on its pick puts each ray in its form at the end.  So
        the lineality left is primitive, its first nonzero entry rational
        and positive."""
        import numpy as np

        stack = self.units(width)
        picks, pick_rows = [], []
        for index, row in enumerate(rows):
            stack, products, signs = self.classify(stack, row)
            k = len(picks)
            nonzero = np.flatnonzero(signs[k:])
            if not nonzero.size:
                continue
            pivot = k + nonzero[0]
            if signs[pivot] < 0:
                stack[pivot], products[pivot] = -stack[pivot], -products[pivot]
            cut = np.flatnonzero(signs)
            cut = cut[cut != pivot]
            stack[cut] = self.combine_rays(
                products[pivot, None], stack[cut], products[cut], stack[pivot, None]
            )
            rest = np.delete(stack[k:], pivot - k, axis=0)
            if len(rest):
                rest = self.orient(rest, self.leading(rest))
            stack = np.concatenate((stack[:k], stack[pivot, None], rest))
            picks.append(index)
            pick_rows.append(row)
            if len(picks) == width:
                break
        rays = stack[:len(picks)]
        products = [
            self.classify(ray[None], row)[1][0] for ray, row in zip(rays, pick_rows)
        ]
        return picks, self.orient(rays, products), stack[len(picks):]

    def leading(self, stack):
        """The first nonzero entry of each vector of a nonempty stack, zero
        as ``classify`` decides it: the entries are classified as rays of
        width 1 against the row (1)."""
        import numpy as np

        count, width = stack.shape[:2]
        entries = stack.reshape((count * width, 1) + stack.shape[2:])
        _, values, signs = self.classify(entries, self.units(1)[0])
        first = (signs.reshape(count, width) != 0).argmax(axis=1)
        return values.reshape((count, width) + values.shape[1:])[
            np.arange(count), first
        ]

    def orient(self, stack, products):
        """Each vector of a stack, negated where its product with its row
        (one per vector) is negative; float zeros stay 0.0."""
        import numpy as np

        flip = (np.array(products) < 0).reshape((-1,) + (1,) * (stack.ndim - 1))
        return np.where(flip, 0 - stack, stack)

    def units(self, width: int):
        """The ``width`` unit vectors in kernel layout, one per row: the
        identity times the kernel's ``one``."""
        import numpy as np

        return np.multiply.outer(np.eye(width, dtype=np.int64), self.one)

    def rank_rows(self, rows):
        """A stack of rows and a zero row after them as one array, from
        which ``ranks``' stacks are gathered; the zero row pads them."""
        import numpy as np

        return np.concatenate((rows, np.zeros_like(rows[:1])))


def _primitive(stack):
    """Each vector of a stack divided by the gcd of its entries; a zero
    vector stays as it is."""
    import numpy as np

    g = np.gcd.reduce(stack.reshape(len(stack), prod(stack.shape[1:])), axis=1)
    g[g == 0] = 1
    return stack // g.reshape((-1,) + (1,) * (stack.ndim - 1))


class _ExactKernel(_Kernel):
    """Kernels with integer entries, eliminated without division.

    ``regular`` maps a stack of matrices to rational ones whose rank is
    ``factor`` times theirs."""

    factor = 1
    primitive = staticmethod(_primitive)

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


class _RationalKernel(_ExactKernel):
    """Vectors as integer arrays."""

    one = 1

    def signs(self, a, b):
        """Elementwise sign of an integer array (``b`` is None over Q)."""
        import numpy as np

        return np.sign(a)

    def classify(self, rays, row) -> tuple:
        """Products of ``row`` with a stack of rays and their signs, and the
        rays in the dtype in which ``combine_rays`` on them cannot overflow:
        a product is at most S = width * max|row| * max|ray|, a combined
        entry at most 2 * S * max|ray|.  max|row| counts as at least 1, so
        that the rays themselves fit also against a zero row."""
        import numpy as np

        top = _top(rays)
        bound = len(row) * max(1, *map(abs, row.ravel().tolist())) * top
        dtype = _int_dtype(2 * bound * top)
        rays = rays.astype(dtype, copy=False)
        products = rays @ row.astype(dtype, copy=False)
        return rays, products, np.sign(products)

    def combine_rays(self, sp, rm, sm, rp):
        """sp * rm - sm * rp in primitive form, one (sp, rm, sm, rp) per
        row of the stacks."""
        return self.primitive(sp[:, None] * rm - sm[:, None] * rp)

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


class _QuadraticKernel(_ExactKernel):
    """Vectors as integer arrays with a last axis of (a, b) pairs meaning
    a + b*sqrt(d)."""

    factor = 2
    one = (1, 0)

    def __init__(self, d: int):
        self.d = d

    def signs(self, a, b):
        """Elementwise sign of a + b sqrt(d) on integer arrays a, b (int64
        or Python ints): entries whose parts have opposite signs are decided
        by the sign of a^2 - d b^2, computed on those entries only."""
        import numpy as np

        sa, sb = np.sign(a), np.sign(b)
        out = np.sign(sa + sb)
        mixed = sa * sb < 0
        if mixed.any():
            am, bm = a[mixed], b[mixed]
            out[mixed] = sa[mixed] * np.sign(am * am - self.d * (bm * bm))
        return out

    def classify(self, rays, row) -> tuple:
        """As the rational ``classify``, on (a, b) parts: a product's parts
        are at most S = width * (1 + d) * max|row| * max|ray|, ``signs``
        squares them and a combined entry is at most 2 (1 + d) S max|ray|."""
        import numpy as np

        d = self.d
        top = _top(rays)
        bound = len(row) * (1 + d) * max(1, *map(abs, row.ravel().tolist())) * top
        dtype = _int_dtype((1 + d) * bound * max(bound, 2 * top))
        rays = rays.astype(dtype, copy=False)
        w = row.astype(dtype, copy=False)
        ra, rb = rays[..., 0], rays[..., 1]
        a = ra @ w[:, 0] + d * (rb @ w[:, 1])
        b = ra @ w[:, 1] + rb @ w[:, 0]
        return rays, np.stack((a, b), axis=-1), self.signs(a, b)

    def combine_rays(self, sp, rm, sm, rp):
        """As the rational ``combine_rays``, on stacks of (a, b) rays."""
        import numpy as np

        d = self.d
        pa, pb = sp[:, None, 0], sp[:, None, 1]
        ma, mb = sm[:, None, 0], sm[:, None, 1]
        xa, xb = rm[..., 0], rm[..., 1]
        ya, yb = rp[..., 0], rp[..., 1]
        a = pa * xa + d * (pb * xb) - ma * ya - d * (mb * yb)
        b = pa * xb + pb * xa - ma * yb - mb * ya
        return self.primitive(np.stack((a, b), axis=-1))

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

    def orient(self, stack, products):
        """Each vector of a stack times the conjugate of its product s with
        its row, negated where s * conj(s) = a^2 - d b^2 is negative, in
        primitive form.  A vector is fixed only up to a field element; this
        is the primitive integer form of its multiple whose product is a
        positive rational, whatever element scaled it, not a multiple of it
        whose coefficients grow."""
        import numpy as np

        s = np.array(products, dtype=object).reshape(-1, 2)
        flip = np.where(s[:, 0] ** 2 - self.d * s[:, 1] ** 2 < 0, -1, 1)
        conj = np.stack((flip * s[:, 0], -flip * s[:, 1]), axis=-1)
        stack = stack.astype(object)
        return self.combine_rays(conj, stack, 0 * conj, stack)


class _FloatKernel(_Kernel):
    """Vectors as float64 arrays scaled to unit max-norm."""

    one = 1.0

    def primitive(self, stack):
        """Each vector of a stack over its largest absolute entry; a zero
        vector stays as it is."""
        scale = abs(stack).max(axis=1)
        scale[scale == 0.0] = 1.0
        return stack / scale[:, None]

    def ranks(self, stack, k: int | None = None):
        """Rank of each matrix of a stack, at most k when k is given: the
        number of its singular values above ``RANK_RTOL`` times its largest.
        Zero (padding) rows add only zero singular values."""
        import numpy as np

        rank = np.linalg.matrix_rank(stack, rtol=RANK_RTOL)
        return rank if k is None else np.minimum(rank, k)

    def classify(self, rays, row) -> tuple:
        """Products of ``row`` with a stack of rays, summed column by column
        as a Python ``sum`` of the entry products sums them, and their signs:
        zero within ``ZERO_EPS``."""
        import numpy as np

        products = np.zeros(len(rays))
        for j, x in enumerate(row):
            products += rays[:, j] * x
        signs = (products > ZERO_EPS).astype(int) - (products < -ZERO_EPS)
        return rays, products, signs

    def combine_rays(self, sp, rm, sm, rp):
        """sp * rm - sm * rp scaled to unit max-norm, one (sp, rm, sm, rp)
        per row of the stacks."""
        return self.primitive(sp[:, None] * rm - sm[:, None] * rp)

    def to_scalar(self, raw: float) -> Scalar:
        return raw


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
    import numpy as np

    values = list(chain.from_iterable(rows))
    index = np.arange(len(values)).reshape(len(rows), -1)
    kernel = kernel_for(field)
    stack = kernel.primitive(lift(values, index, field).stack())
    picks, _, _ = kernel.first_cone(stack, index.shape[1])
    return len(picks)


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

    def stack(self, t=None, sign=None):
        """The vectors in kernel layout, (a, b) on a last axis over
        Q(sqrt d): each times ``sign`` (one per vector) when given, with a
        leading entry t * scale (one t per vector, or one for all) when
        ``t`` is given.  Python ints when the scale leaves int64."""
        import numpy as np

        stack = self.a if self.b is None else np.stack((self.a, self.b), axis=-1)
        dtype = stack.dtype if self.scale < 2**63 else object
        stack = stack.astype(dtype, copy=False)
        if sign is not None:
            shape = (-1,) + (1,) * (stack.ndim - 1)
            stack = stack * np.asarray(sign, dtype=dtype).reshape(shape)
        if t is None:
            return stack
        lead = np.zeros_like(stack[:, :1])
        first = lead if self.b is None else lead[..., 0]
        first[:, 0] = np.asarray(t, dtype=dtype) * self.scale
        return np.concatenate((lead, stack), axis=1)

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

    def rays(self, pairs: bool = False):
        """The primitive integer ray (t, x) of (1, p) for each vector p:
        ``stack(t=1)`` over its gcd, so that entries stay as small as the
        vector's own denominators allow; in (a, b) pairs over Q(sqrt d),
        and for a lift over Q too when ``pairs``."""
        import numpy as np

        rays = self.stack(t=1)
        if pairs and self.b is None:
            rays = np.stack((rays, np.zeros_like(rays)), axis=-1)
        return _primitive(rays)

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


def index_dtype(size: int):
    """int8 positions into a table of at most 128 values, int16 into one
    of at most 32,768, else intp."""
    import numpy as np

    return np.int8 if size <= 128 else np.int16 if size <= 2**15 else np.intp


def row_keys(index, base: int):
    """One integer per row of a position matrix, its entries read as the
    digits of a number in ``base``, the first column most significant: the
    keys are equal exactly when the rows are, and sort as the rows do.
    int64 when every key fits, Python ints otherwise."""
    import numpy as np

    width = index.shape[1]
    dtype = np.int64 if base**width <= 2**63 else object
    weights = np.array([base ** (width - 1 - j) for j in range(width)], dtype=dtype)
    return index.astype(dtype) @ weights


def value_table(values, index, key=None) -> tuple:
    """The distinct values of ``values`` in ascending order, the first of
    equal values kept, and ``index``, an array of positions into
    ``values``, renumbered into them (as ``index_dtype``).  Values are
    equal when their ``key``s are, when ``key`` is given.

    The values are put in order by their floats, and one exact comparison
    of each neighbouring pair confirms that order and gives equal values
    held in different objects one rank; only when distinct values share a
    float out of order are they sorted by exact comparison.
    """
    import numpy as np

    keys = values if key is None else list(map(key, values))
    floats = list(map(float, keys))
    positions = range(len(keys))
    rank = _ranks(keys, sorted(positions, key=floats.__getitem__))
    if rank is None:
        rank = _ranks(keys, sorted(positions, key=keys.__getitem__))
    rank = np.array(rank, dtype=index_dtype(max(rank, default=-1) + 1))
    first = np.unique(rank, return_index=True)[1].tolist()
    return tuple(map(values.__getitem__, first)), rank[index]


def _ranks(values, order: list):
    """The rank of each value among the distinct values if ``order`` sorts
    ``values``, else None."""
    rank = [0] * len(values)
    r = 0
    for prev, cur in zip(order, order[1:]):
        if values[prev] != values[cur]:
            if not values[prev] < values[cur]:
                return None
            r += 1
        rank[cur] = r
    return rank


def lift(values, index, field: Field) -> Lift:
    """The vectors ``values[index[i]]`` as a :class:`Lift`: the one place
    where scalars become kernel integers.

    Each table value a + b sqrt(d) is converted once, to the numerators of
    a and b over the least common denominator of every part, which is the
    scale; the matrices are those numerators indexed by ``index``.  The
    scale and the numerators have no common factor, since each prime power
    of the scale is the whole denominator of some part.  A value outside
    the field raises TypeError.
    """
    import numpy as np

    if not field.is_exact:
        return Lift(1, np.array(values, dtype=float)[index], None, 0)
    parts = [[_rational_part(x, field) for x in values]]
    if field.kind == "quadratic":
        parts.append([x.b if isinstance(x, Quadratic) else 0 for x in values])
    scale = lcm(*(x.denominator for x in chain.from_iterable(parts)))
    parts = [[x.numerator * (scale // x.denominator) for x in p] for p in parts]
    top = max(map(abs, chain.from_iterable(parts)))
    dtype = np.int64 if top < 2**63 else object
    a, *b = (np.array(p, dtype=dtype)[index] for p in parts)
    return Lift(scale, a, b[0] if b else None, top, field.d or 0)


def _rational_part(x, field: Field):
    """The rational part a of a value a + b sqrt(d); TypeError when its
    sqrt part is not of ``field``."""
    if not isinstance(x, Quadratic):
        return x if type(x) is Fraction else Fraction(x)
    if x.b != 0:
        if field.kind == "rational":
            raise TypeError("quadratic value in a rational system")
        if x.d != field.d:
            raise TypeError(f"sqrt({x.d}) value in a sqrt({field.d}) system")
    return x.a
