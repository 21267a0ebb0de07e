"""Elimination kernels: the one place where rows are eliminated.

A kernel holds the vectors of one field as numpy stacks, one vector per
row: integer arrays over Q, with a trailing (a, b) axis meaning
a + b*sqrt(d) over Q(sqrt(d)), int64 when a bound shows every intermediate
fits and Python ints in ``dtype=object`` otherwise, and float64 arrays on
the float field.  ``primitive`` puts each vector of a stack in its kernel
form: over the gcd of its entries on exact fields (content 1), scaled to
unit max-norm on floats.  Over Q(sqrt(d)) a vector is fixed only up to a
field element, which that gcd cannot remove; ``normal_form`` removes it,
so that each direction has one primitive form, whose first nonzero entry
is rational, and its entries stay those of the minors that fix it.

The exact arithmetic is written once, on ``_ExactKernel``; a field gives
only its entrywise product (``multiply``), its matrix product
(``matmul``, three integer products over Q(sqrt(d))) and the sign of its
values (``sign``), and every dtype comes from one bound, ``dtype``.
``classify`` is the one matrix product, of a stack of vectors with one row
or with a stack of rows; the vertex enumerator classifies and combines
whole stacks at once with it and ``combine_rays``, and decides which rays
are adjacent from their tight masks alone, with no arithmetic, so no
kernel answers rank questions for it.  A reader that needs only to know
that no product is negative, the certificate, asks ``products_nonnegative``:
one float64 product per block of rows whose static error bound decides
most signs, the rest recomputed exactly by ``pair_signs``, the exact
products of rays and rows taken in pairs.  Independent rows, first rays
and null vectors come from ``first_cone``: the double description's own
insertion, run from the unit vectors with those same ``classify`` and
``combine_rays`` steps.

A point set is a table of its distinct coordinate values in ascending
order plus an integer matrix of positions into that table, one row per
point; ``value_table`` builds it for every point set given by its values,
from rule tables and scalar tuples, and ``vertex_table`` for the vertex
enumerator's quotients.  A :class:`Lift` holds a point set as one stack
of vectors in its kernel's layout under one common denominator: each
table value is converted once and the stack is the converted table
indexed by the positions.  ``lift`` is the one place where scalars become
kernel integers, and this module the only one that reads the (a, b)
layout: the double description's rows, ``validate``'s span check, the
certificate's polar rows and ``rank`` read a lift's ``stack``.  The
vertex enumerator's rays (t, x), each over its own denominator t, stay
with its vertex set and are read as they are by ``vertex_table``, by the
kernels' ``squared_norms`` and ``argmax`` and by ``products_nonnegative``;
only a vertex set made elsewhere lifts its vertices, once, for its rays.
``to_scalar`` turns products back into field values.

Exact values are put in order by one routine, ``ranks``: by their floats,
the order confirmed by one ``pair_signs`` call on the neighbouring
differences, and sorted by exact comparison only when that finds a step
down.  ``vertex_table`` ranks each distinct coordinate row once (keyed by
``distinct_rows``; over Q(sqrt(d)) a coordinate's row is its reduced
quotient, one row per value), ``argmax`` values over their denominators,
and ``value_table`` the rows of its values' lift; floats are ranked by
one ``np.unique`` of their keys.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, starmap
from math import lcm, prod, sqrt
from operator import matmul, mul

import numpy as np

from .scalar import RATIONAL, Field, Quadratic, Scalar, quadratic_field

ZERO_EPS = 1e-9  # float zero test, absolute: kernel rows and rays have unit max-norm
# product entries per block of rows, about 512 KiB either way: an exact
# lifted product keeps some 16 int64 temporaries per entry, the float64
# products of ``products_nonnegative`` and of the float certify one
BLOCK_ENTRIES = 4096
FLOAT_BLOCK_ENTRIES = 65536


class _Kernel:
    """Basis questions: independent rows, first rays and null spaces,
    all through ``first_cone``."""

    multiply = mul  # the entrywise product, broadcast

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

        ``orient`` on its ``leading`` entry makes that entry of each
        lineality vector left positive after every pick, and ``orient`` on
        its pick makes each ray positive on it at the end; over Q(sqrt d)
        ``orient`` also puts the vector in ``normal_form``, as
        ``combine_rays`` does.  So the lineality left is primitive, its
        first nonzero entry rational and positive."""
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
        if picks:
            # ray j's product with pick j: the diagonal of one classify
            _, products, _ = self.classify(rays, np.array(pick_rows))
            diagonal = np.arange(len(picks))
            rays = self.orient(rays, products[diagonal, diagonal])
        return picks, rays, stack[len(picks):]

    def leading(self, stack):
        """The first nonzero entry of each vector of a nonempty stack; a
        float is zero within ``ZERO_EPS``, as ``classify`` decides it."""
        nonzero = (abs(stack) > ZERO_EPS).any(axis=tuple(range(2, stack.ndim)))
        return stack[np.arange(len(stack)), nonzero.argmax(axis=1)]

    def orient(self, stack, products):
        """Each vector of a stack, negated where its product with its row
        (one per vector) is negative; float zeros stay 0.0."""
        flip = (np.array(products) < 0).reshape((-1,) + (1,) * (stack.ndim - 1))
        return np.where(flip, 0 - stack, stack)

    def units(self, width: int):
        """The ``width`` unit vectors in kernel layout, one per row: the
        identity times the kernel's ``one``."""
        return np.multiply.outer(np.eye(width, dtype=np.int64), self.one)

    def combine_rays(self, sp, rm, sm, rp):
        """sp * rm - sm * rp in ``normal_form``, one (sp, rm, sm, rp) per
        row of the stacks."""
        return self.normal_form(
            self.multiply(sp[:, None], rm) - self.multiply(sm[:, None], rp)
        )


class _ExactKernel(_Kernel):
    """Kernels with integer entries, each vector kept primitive.  A field
    gives its entrywise product (``multiply``), its matrix product of rays
    with columns (``matmul``, as ``@`` takes them) and the sign of its values
    (``sign``); the arithmetic that reads them is written here once, each
    call in the dtype that ``dtype`` takes from the sizes of its entries."""

    @staticmethod
    def primitive(stack):
        """Each vector of a stack divided by the gcd of its entries; a zero
        vector stays as it is."""
        g = np.gcd.reduce(stack.reshape(len(stack), prod(stack.shape[1:])), axis=1)
        g[g == 0] = 1
        return stack // g.reshape((-1,) + (1,) * (stack.ndim - 1))

    # each direction has one primitive form, over Q
    normal_form = primitive

    @staticmethod
    def field_stack(stack):
        """A stack of vectors in kernel layout: as it is, but over
        Q(sqrt(d)), where a rational stack is read as (a, 0)."""
        return stack

    @staticmethod
    def quotient_rows(x, t):
        """The integer row of each coordinate x / t that ``quotient`` reads,
        one row of parts of x and of t each: the parts side by side."""
        return np.concatenate((x, t), axis=1)

    def dtype(self, width, x, y, then=None):
        """int64 when every intermediate of a call fits, else Python ints.
        A sum of ``width`` products of entries at most x and y in size is at
        most S = width (1 + d) x y (d = 0 over Q).  When ``then`` is given,
        ``sign`` is taken of such sums, which over Q(sqrt d) squares their
        parts, (1 + d) S^2, and they multiply entries at most ``then``,
        (1 + d) S then."""
        size = width * (1 + self.d) * x * y
        if then is not None:
            size = max(size, (1 + self.d) * size * max(then, size if self.d else 0))
        return _int_dtype(size)

    def classify(self, rays, rows) -> tuple:
        """The exact product: the products of a stack of rays with one row
        (one per ray) or with a stack of rows (a row of them per ray, as
        ``rays @ rows.T``) and their signs, and the rays (a rational stack
        read as (a, 0) over Q(sqrt d), ``field_stack``) in the dtype in
        which ``combine_rays`` on them cannot overflow: a product is at most
        S = width (1 + d) max|row| max|ray|, a combined entry at most
        2 (1 + d) S max|ray|.  max|row| counts as at least 1, so that the
        rays themselves fit also against a zero row."""
        rays = self.field_stack(rays)
        top = _top(rays)
        dtype = self.dtype(rays.shape[1], max(1, _top(rows)), top, 2 * top)
        rays, rows = rays.astype(dtype, copy=False), rows.astype(dtype, copy=False)
        # a stack of rows as columns; one row is its own column
        columns = rows if rows.ndim < rays.ndim else rows.swapaxes(0, 1)
        products = self.matmul(rays, columns)
        return rays, products, self.sign(products)

    def pair_signs(self, rays, rows):
        """The exact signs of the products of rays and rows taken in pairs,
        ray i with row i, rational stacks read as (a, 0) over Q(sqrt d), in
        the dtype of S = width (1 + d) max|row| max|ray|, each max counted
        as at least 1, so that both stacks fit."""
        rays, rows = self.field_stack(rays), self.field_stack(rows)
        dtype = self.dtype(rays.shape[1], max(1, _top(rows)), max(1, _top(rays)), 0)
        rays, rows = rays.astype(dtype, copy=False), rows.astype(dtype, copy=False)
        # ray i times row i: a stack of 1 x 1 matrix products
        return self.sign(self.matmul(rays[:, None], rows[:, :, None])[:, 0, 0])

    def squared_norms(self, stack):
        """|v|^2 of each vector of a stack in kernel layout, in the dtype of
        width (1 + d) max|v|^2."""
        top = _top(stack)
        stack = stack.astype(self.dtype(stack.shape[1], top, top), copy=False)
        return self.matmul(stack[:, None], stack[:, :, None])[:, 0, 0]

    def ranks(self, rows):
        """The rank of each value among the distinct values, from one
        integer row (n, t) per value n / t: the parts of the numerator n in
        kernel layout, then the denominator t > 0.

        The values are put in order by their floats, and one ``pair_signs``
        call gives the exact sign of each value minus the one before it,
        (n2 t1 - n1 t2) / (t1 t2), which confirms that order and gives equal
        values one rank.  Only when a sign is negative (distinct values whose
        floats are out of order) are the values sorted by exact comparison,
        one ``pair_signs`` call per comparison: a float filter with an exact
        decision behind it (Shewchuk, Discrete Comput. Geom. 18, 1997)."""
        count = len(rows)
        nums = rows[:, :-1].reshape((count, 1) + np.shape(self.one))
        dens = rows[:, -1:]

        def signs(i, j):  # of value i minus value j, pairwise
            return self.pair_signs(
                np.concatenate((nums[i], nums[j]), axis=1),
                np.concatenate((dens[j], -dens[i]), axis=1),
            )

        try:
            # Python int division: the float of each part correctly rounded
            with np.errstate(over="ignore", invalid="ignore"):
                parts = nums / dens.reshape(dens.shape + (1,) * (nums.ndim - 2))
                order = np.argsort(self.floats(parts)[0][:, 0], kind="stable")
        except OverflowError:  # a value past float64's range
            order = np.arange(count)
        steps = signs(order[1:], order[:-1])
        if (steps < 0).any():
            compare = cmp_to_key(lambda i, j: signs([i], [j])[0])
            order = np.array(sorted(order.tolist(), key=compare), dtype=np.intp)
            steps = signs(order[1:], order[:-1])
        rank = np.zeros(count, dtype=np.intp)
        rank[order[1:]] = np.cumsum(steps != 0)
        return rank

    def argmax(self, values, dens) -> int:
        """The index of the first largest of the values n / t, one n and
        one rational t > 0 per value in kernel layout: the first of the top
        rank (``ranks``)."""
        rows = (values.reshape(len(values), -1), dens.reshape(len(dens), -1)[:, :1])
        return int(self.ranks(np.concatenate(rows, axis=1)).argmax())

    def products_nonnegative(self, rays, rows) -> bool:
        """Whether every product of a stack of rays with a stack of rows
        (``rays @ rows.T``) is >= 0, decided exactly.

        The rays are mapped once to the float64 values of their entries
        (``floats``) and bounded once, the rows a block of
        ``FLOAT_BLOCK_ENTRIES`` products at a time, and each block is one
        BLAS product: a static bound B on the error of every entry decides
        each sign whose float clears B above 0, and only the entries at or
        below B (tight pairs, whose product is 0, most of all; a negative
        one only when the answer is False) are recomputed exactly from their
        gathered ray and row by ``pair_signs``.  The answer is False at the
        first block with a negative sign.  When an entry has no finite
        float, or the products could overflow, the block is the exact
        ``classify``.

        The bound.  With u = 2^-53 and gamma_k = k u / (1 - k u) (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3), an
        entry x = a + b sqrt(d) with integer a, b (b = 0 over Q) becomes
        fl(fl(a) + fl(fl(b) fl(sqrt d))), at most gamma_4 m(x) from x, where
        m(x) = |a| + |b| sqrt(d).  Let M_R and M_W bound m over the rays and
        the block's rows, and w be the width.  Then the exact product of the
        floats of a ray and a row is within w gamma_4 (2 + gamma_4) M_R M_W
        of the product of the entries, and the computed sum of the w float
        products, in any order and with or without fused multiply-adds,
        within gamma_w w (1 + gamma_4)^2 M_R M_W of that (Higham (3.5)).  For
        w u < 2^-33 the total is at most (w + 8) u (1 + 2^-31) w M_R M_W.
        No product or partial sum underflows: a nonzero float of an entry
        is at least 2^-52, as the difference of two floats of size 1 or
        more.  M_R and M_W are taken in floats, as the largest
        fl(|fl(a)| + fl(|fl(b)| fl(sqrt d))), each at least (1 - gamma_4)
        times its m(x), and
        B = 2^-52 (w + 9) w M_R M_W
        is evaluated with three more roundings; so B, about twice the
        total, bounds the error of every entry with room to spare.  When
        w M_R M_W is below 2^1000 no partial sum comes near float64's
        largest value."""
        def floats(stack):  # with the largest size inf when one has no float
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    return self.floats(stack)
            except OverflowError:  # a Python int beyond float64's range
                return None, float("inf")

        width = rays.shape[1]
        r, r_top = floats(rays)
        for block in row_blocks(len(rows), len(rays), FLOAT_BLOCK_ENTRIES):
            part = rows[block]
            w, w_top = floats(part)
            top = width * r_top * w_top
            if top < 2.0**1000:
                # the entries whose floats do not clear B above 0
                i, j = np.nonzero(r @ w.T <= 2.0**-52 * (width + 9) * top)
                signs = self.pair_signs(rays[i], part[j])
            else:  # also when top is inf or nan
                signs = self.classify(rays, part)[2]
            if (signs < 0).any():
                return False
        return True

    def vertex_table(self, rays) -> tuple:
        """The coordinates x / t of each ray (t, x) of a stack as a value
        table (``value_table``): the distinct values in order and a matrix
        with each ray's coordinates as ranks in them.

        Each coordinate is one integer row (``quotient_rows``), and a block
        of rays at a time only the block's distinct rows (``distinct_rows``)
        reach Python, where one dict numbers them across blocks and each
        becomes one ``quotient``.  The rows new to the dict, kept as arrays,
        are put in order by ``ranks``, so that equal values met as different
        rows, such as 1/2 and 2/4 over Q, share one rank."""
        count, dim = rays.shape[:2]
        n = dim - 1
        numbers, rows, slots = {}, [], np.empty((count, n), dtype=np.intp)
        for block in row_blocks(count, n):
            part = rays[block]
            m = len(part)
            x = part[:, 1:].reshape(m * n, -1)
            t = np.repeat(part[:, :1].reshape(m, -1), n, axis=0)
            raw = self.quotient_rows(x, t)
            first, place = distinct_rows(raw)
            raw, known = raw[first], len(numbers)
            keys = map(tuple, raw.tolist())
            number = [numbers.setdefault(key, len(numbers)) for key in keys]
            number = np.array(number, dtype=np.intp)
            rows.append(raw[number >= known])
            slots[block] = number[place].reshape(m, n)
        values = list(starmap(self.quotient, numbers))
        return _ranked(values, self.ranks(np.concatenate(rows)), slots)


def _top(stack) -> int:
    """The largest absolute entry of an integer array (int64 or Python
    ints), 0 when it is empty: from its largest and its smallest entry,
    with no array of absolute values."""
    top = np.maximum.reduce(stack, axis=None, initial=0)
    return max(int(top), -int(np.minimum.reduce(stack, axis=None, initial=0)))


class _RationalKernel(_ExactKernel):
    """Vectors as integer arrays: Q as d = 0, with no sqrt(d) part."""

    one = 1
    d = 0
    matmul = matmul

    @staticmethod
    def sign(values):
        """Elementwise sign of an integer array."""
        return np.sign(values)

    @staticmethod
    def floats(stack) -> tuple:
        """The float64 value of each entry of an integer stack, and the
        largest of their sizes, the bound that ``products_nonnegative``
        reads.  OverflowError when a Python int has no float."""
        values = stack.astype(float)
        return values, float(abs(values).max(initial=0.0))

    def quotient(self, x: int, t: int) -> Fraction:
        return Fraction(x, t)

    def to_scalar(self, raw: int) -> Scalar:
        return Fraction(raw)


class _QuadraticKernel(_ExactKernel):
    """Vectors as integer arrays with a last axis of (a, b) pairs meaning
    a + b*sqrt(d)."""

    one = (1, 0)

    def __init__(self, d: int):
        self.d = d

    def sign(self, values):
        """Elementwise sign of a + b sqrt(d) on a stack of (a, b) values
        (int64 or Python ints): entries whose parts have opposite signs are
        decided by the sign of a^2 - d b^2, computed on those entries only."""
        a, b = values[..., 0], values[..., 1]
        sa, sb = np.sign(a), np.sign(b)
        out = np.sign(sa + sb)
        mixed = sa * sb < 0
        if mixed.any():
            am, bm = a[mixed], b[mixed]
            out[mixed] = sa[mixed] * np.sign(am * am - self.d * (bm * bm))
        return out

    @staticmethod
    def field_stack(stack):
        """A stack of vectors in (a, b) layout: a rational stack (no (a, b)
        axis) read as (a, 0)."""
        if stack.ndim == 3:
            return stack
        return np.stack((stack, np.zeros_like(stack)), axis=-1)

    def multiply(self, x, y):
        """The entrywise product of stacks of (a, b) values, broadcast."""
        xa, xb = x[..., 0, None], x[..., 1, None]
        ya, yb = y[..., 0, None], y[..., 1, None]
        a, b = xa * ya + self.d * (xb * yb), xa * yb + xb * ya
        return np.concatenate((a, b), axis=-1)

    def matmul(self, rays, columns):
        """The matrix product of stacks of (a, b) values in three integer
        products: ra wb + rb wa is (ra + rb)(wa + wb) - ra wa - rb wb, whose
        sums are at most 4 width max|row| max|ray| < 2^63 when the bound of
        the caller's dtype, at least 3 width max|row| max|ray|, is below
        2^62."""
        ra, rb, wa, wb = rays[..., 0], rays[..., 1], columns[..., 0], columns[..., 1]
        aa, bb = ra @ wa, rb @ wb
        a, b = aa + self.d * bb, (ra + rb) @ (wa + wb) - aa - bb
        return np.concatenate((a[..., None], b[..., None]), axis=-1)

    def floats(self, stack) -> tuple:
        """The float64 value fl(fl(a) + fl(fl(b) fl(sqrt d))) of each entry
        a + b sqrt(d) of a stack, a rational one read as (a, 0), and the
        largest of the bounds fl(|fl(a)| + fl(|fl(b)| fl(sqrt d))) on their
        sizes, which ``products_nonnegative`` reads.  OverflowError when a
        Python int has no float."""
        stack = self.field_stack(stack)
        a, b = stack[..., 0].astype(float), stack[..., 1].astype(float)
        root = sqrt(self.d)
        return a + b * root, float((abs(a) + abs(b) * root).max(initial=0.0))

    def normal_form(self, stack, s=None):
        """Each vector of a stack times conj(s) * sign(conj(s)), one field
        value s per vector, in primitive form; without s, the stack made
        primitive first, so that the products stay small, and s its
        ``leading`` entries.  The factor is a positive field element, so no
        vector changes direction; when s is an entry of its vector, that
        entry becomes rational with the sign of s, and every positive field
        multiple of the vector has the same form.  In the dtype of
        (1 + d) max|s| max(max|s|, max|v|), which bounds the products and
        the norms of s that ``sign`` takes."""
        if s is None:
            stack = self.primitive(stack)
            s = self.leading(stack)
        top = _top(s)
        dtype = self.dtype(1, top, max(top, _top(stack)))
        stack, s = stack.astype(dtype, copy=False), s.astype(dtype, copy=False)
        conj = s * np.array([1, -1])
        factor = conj * self.sign(conj)[:, None]
        return self.primitive(self.multiply(factor[:, None], stack))

    def quotient_rows(self, x, t):
        """The row (p, q, r) of each coordinate x / t = (p + q sqrt(d)) / r,
        one (a, b) row of x and of t each: x * conj(t) and the norm
        t * conj(t) over the gcd of the three, r positive, so that equal
        values give equal rows.  In the dtype of (1 + d) max(|x|, |t|)^2."""
        top = max(_top(x), _top(t))
        dtype = self.dtype(1, top, top)
        x, t = x.astype(dtype, copy=False), t.astype(dtype, copy=False)
        conj = t * np.array([1, -1])
        rows = np.concatenate(
            (self.multiply(x, conj), self.multiply(t, conj)[:, :1]), axis=1
        )
        g = np.gcd.reduce(rows, axis=1) * np.sign(rows[:, 2])
        return rows // g[:, None]

    def quotient(self, p: int, q: int, r: int) -> Scalar:
        """(p + q sqrt(d)) / r; a Fraction when it has no sqrt(d) part."""
        qa = Fraction(p, r)
        return qa if q == 0 else Quadratic(qa, Fraction(q, r), self.d)

    def to_scalar(self, raw: tuple) -> Scalar:
        a, b = raw
        return Fraction(a) if b == 0 else Quadratic(a, b, self.d)

    def orient(self, stack, products):
        """Each vector of a stack in ``normal_form`` on its product s with
        its row (one per vector), negated where s is negative.  A vector is
        fixed only up to a field element; this is the primitive integer
        form of its multiple whose product is a positive rational, whatever
        element scaled it, not a multiple of it whose coefficients grow."""
        return super().orient(self.normal_form(stack, products), self.sign(products))


class _FloatKernel(_Kernel):
    """Vectors as float64 arrays scaled to unit max-norm."""

    one = 1.0

    def primitive(self, stack):
        """Each vector of a stack over its largest absolute entry; a zero
        vector stays as it is."""
        scale = abs(stack).max(axis=1)
        scale[scale == 0.0] = 1.0
        return stack / scale[:, None]

    # each direction has one unit max-norm form
    normal_form = primitive

    def classify(self, rays, rows) -> tuple:
        """Products of a stack of rays with one row or a stack of rows, as
        the exact ``classify`` gives them, each summed column by column as a
        Python ``sum`` of the entry products sums it, and their signs: zero
        within ``ZERO_EPS``."""
        rows = np.asarray(rows)
        columns = rays.T.reshape(rays.T.shape + (1,) * (rows.ndim - 1))
        products = np.zeros((len(rays),) + rows.shape[:-1])
        for j, column in enumerate(columns):
            products += column * rows[..., j]
        signs = (products > ZERO_EPS).astype(int) - (products < -ZERO_EPS)
        return rays, products, signs

    def squared_norms(self, stack):
        """|v|^2 of each vector of a stack, its squares summed column by
        column as ``dot`` sums them."""
        norms = stack[:, 0] * stack[:, 0]
        for j in range(1, stack.shape[1]):
            norms = norms + stack[:, j] * stack[:, j]
        return norms

    def argmax(self, values, dens) -> int:
        """The index of the first largest of the values n / t."""
        return int((values / dens).argmax())

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
    values = list(chain.from_iterable(rows))
    index = np.arange(len(values)).reshape(len(rows), -1)
    lifted = lift(values, index, field)
    kernel = lifted.kernel
    picks, _, _ = kernel.first_cone(kernel.primitive(lifted.stack()), index.shape[1])
    return len(picks)


def _int_dtype(bound: int):
    """int64 when ``bound`` shows every intermediate fits, else Python ints."""
    return np.int64 if bound < 2**62 else object


def row_blocks(rows: int, width: int, entries: int = BLOCK_ENTRIES):
    """Slices of at most ``entries / width`` rows (at least one), so that a
    block's product with ``width`` columns stays small."""
    step = max(1, entries // max(1, width))
    return (slice(i, i + step) for i in range(0, rows, step))


class Lift:
    """Equal-length vectors p = v / scale, one row each, the v in the
    kernel layout of ``kernel``'s field: an integer matrix over Q, with a
    last (a, b) axis meaning a + b*sqrt(d) over Q(sqrt d), int64 when the
    entries fit and Python ints otherwise.  On the float field ``vectors``
    is the float64 matrix of the vectors themselves and ``scale`` is 1.
    """

    __slots__ = ("scale", "vectors", "kernel")

    def __init__(self, scale: int, vectors, kernel: _Kernel):
        self.scale, self.vectors, self.kernel = scale, vectors, kernel

    def stack(self, t=None, sign=None):
        """The vectors v, each times ``sign`` (one per vector) when given,
        with a leading entry t * scale (one t per vector, or one for all)
        when ``t`` is given.  Python ints when the scale leaves int64."""
        vectors = self.vectors
        dtype = vectors.dtype if self.scale < 2**63 else object
        if t is None and sign is None:
            return vectors.astype(dtype, copy=False)
        lead = int(t is not None)
        shape = (len(vectors), vectors.shape[1] + lead) + vectors.shape[2:]
        stack = np.zeros(shape, dtype=dtype)
        sign = np.asarray(1 if sign is None else sign, dtype=dtype)
        sign = sign.reshape((-1,) + (1,) * (vectors.ndim - 1))
        np.multiply(vectors, sign, out=stack[:, lead:])
        if lead:
            # the first entry of each vector; its a part over Q(sqrt d)
            stack[(slice(None), 0) + (0,) * (stack.ndim - 2)] = (
                np.asarray(t, dtype=dtype) * self.scale
            )
        return stack


def index_dtype(size: int):
    """int8 positions into a table of at most 128 values, int16 into one
    of at most 32,768, else intp."""
    return np.int8 if size <= 128 else np.int16 if size <= 2**15 else np.intp


def row_keys(index, base: int):
    """One integer per row of an integer matrix, its entries read as the
    digits of a number in ``base``, the first column most significant: when
    the entries lie in [0, base) (positions), or are balanced digits in
    (-base / 2, base / 2), the keys are equal exactly when the rows are, and
    sort as the rows do.  int64 when every key fits, Python ints otherwise."""
    width = index.shape[1]
    dtype = np.int64 if base**width <= 2**63 else object
    weights = np.array([base ** (width - 1 - j) for j in range(width)], dtype=dtype)
    return index.astype(dtype) @ weights


def distinct_rows(stack) -> tuple:
    """The index of the first row of each distinct row of an integer matrix
    (int64 or Python ints), the distinct rows in ascending order, and each
    row's place among them: one ``np.unique`` of the rows' ``row_keys``,
    the entries, at most top in size, read as balanced digits in base
    2 top + 1."""
    keys = row_keys(stack, 2 * _top(stack) + 1)
    _, first, place = np.unique(keys, return_index=True, return_inverse=True)
    return first, place


def value_table(values, index, key=None) -> tuple:
    """The distinct values of ``values`` in ascending order, the first of
    equal values kept, and ``index``, an array of positions into
    ``values``, renumbered into them (as ``index_dtype``).

    Floats are ranked by one ``np.unique`` of their ``key``s, and are equal
    when their keys are.  Exact values (no ``key``) are lifted once, in the
    field that ``lift`` infers, and ranked by the kernel's ``ranks`` on the
    rows (v, scale) of their lift.
    """
    if key is not None:
        rank = np.unique(np.array(list(map(key, values))), return_inverse=True)[1]
    else:
        lifted = lift(values, np.arange(len(values)))
        vectors = lifted.stack()
        scale = np.full(len(values), lifted.scale, dtype=vectors.dtype)
        rank = lifted.kernel.ranks(np.column_stack((vectors, scale)))
    return _ranked(values, rank, index)


def _ranked(values, rank, index) -> tuple:
    """The value table of ``values`` given the rank of each among the
    distinct values: the first value of each rank in order, and ``index``
    renumbered into them (as ``index_dtype``)."""
    rank = np.asarray(rank, dtype=np.intp)
    rank = rank.astype(index_dtype(int(rank.max(initial=-1)) + 1))
    first = np.unique(rank, return_index=True)[1].tolist()
    return tuple(map(values.__getitem__, first)), rank[index]


def lift(values, index, field: Field | None = None) -> Lift:
    """The vectors ``values[index[i]]`` as a :class:`Lift`: the one place
    where scalars become kernel integers.  Without ``field`` the values are
    exact and their field is Q(sqrt d) when one is a Quadratic of d, else Q.

    Each table value a + b sqrt(d) is converted once, to the numerators of
    a and b over the least common denominator of every part, which is the
    scale; the matrices are those numerators indexed by ``index``.  The
    scale and the numerators have no common factor, since each prime power
    of the scale is the whole denominator of some part.  A value outside
    the field raises TypeError.
    """
    if field is None:
        d = next((x.d for x in values if isinstance(x, Quadratic)), None)
        field = RATIONAL if d is None else quadratic_field(d)
    kernel = kernel_for(field)
    if not field.is_exact:
        return Lift(1, np.array(values, dtype=float)[index], kernel)
    parts = [[_rational_part(x, field) for x in values]]
    if field.kind == "quadratic":
        parts.append([x.b if isinstance(x, Quadratic) else 0 for x in values])
    scale = lcm(*(x.denominator for x in chain.from_iterable(parts)))
    parts = [[x.numerator * (scale // x.denominator) for x in p] for p in parts]
    top = max(map(abs, chain.from_iterable(parts)), default=0)
    dtype = np.int64 if top < 2**63 else object
    table = np.array(parts, dtype=dtype).T.reshape((-1,) + np.shape(kernel.one))
    return Lift(scale, table[index], kernel)


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
