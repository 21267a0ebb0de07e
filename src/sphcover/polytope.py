"""Exact vertex enumeration for halfspace-defined polytopes.

The enumerator is an incremental double description method run on the
homogenization cone in E^(n+1): build a simplicial subcone by inserting
constraint rows into the whole space (``first_cone``: each row that some
lineality vector is not tight on takes one as its ray), insert the
remaining halfspaces one at a time, and combine adjacent ray pairs that
straddle each new hyperplane.  Two rays are adjacent iff no third ray is
tight on every row they share (Fukuda & Prodon 1996), so the heavily
degenerate polytopes produced by symmetric configurations need no
perturbation.  Exact backends run on integer (or integer-quadratic) ray
coordinates; the float backend uses fixed absolute tolerances on rows and
rays scaled to unit max-norm.

Each insertion runs on whole arrays.  The rays are the first ``count`` rows
of one store (int64 while a bound shows every product fits, Python ints
otherwise; an (a, b) axis over Q(sqrt d); float64) and their tight sets
the same rows of a store of bit masks packed into uint64 words.  An
insertion writes only the rays it cuts off and adds, as cddlib deletes
rays from its list: the fresh rays take the rows of the rays cut off, any
more go past ``count``, and when fewer come the live rows past the new
``count`` move into the rows left empty below it.  The stores grow
geometrically from ``SPARE_RAYS`` rows past the first cone's and are made
anew when ``classify`` changes the rays' dtype; no output depends on the
order of the rows.  One product classifies every ray.  Pairs whose masks
share fewer than n-1 rows are dropped by popcounts of word ANDs: every
pair when the insertion's plus x minus pairs fit one ``PAIR_BLOCK``, else
first the union of each block of ``UNION_RAYS`` plus masks against each
minus mask, and then only the plus masks of the blocks that pass (a mask
inside the union shares no more rows with the minus mask than the union
does).  Rays made by one insertion are alike, so the union step takes the
plus rays in the order they were made, which a third store numbers, not
in store order.  The rest are tested for containment on the masks
alone, one code path for every field, and the adjacent pairs are combined
in one array step with a row gcd; over Q(sqrt d) each combined ray is then
put in the kernel's ``normal_form`` (its first nonzero entry rational), so
that its entries do not grow with the insertions.  A third ray is looked
for only among the rays tight on the inserted row and the other candidate
pairs that share a ray with the pair (``_adjacent``).

The exact output stage stays on integers, a block of rays at a time: the
tight sets come from the packed masks, and the kernel's ``vertex_table``
keys each coordinate x / t as an integer row (``_linalg.distinct_rows``):
its raw parts (x, t) over Q, its reduced quotient over Q(sqrt d), one row
per value.  Each distinct row becomes one quotient, and the kernel's
``ranks`` ranks the distinct rows by value (put in order by their floats,
the order confirmed by one exact sign call on the neighbouring
differences) with no comparison of quotient objects; the vertices are
ordered by ``np.lexsort`` on the matrix of their value ranks, so that the
result is sorted by value with no comparison of vertex tuples.  The returned :class:`VertexSet` keeps the
distinct values in order and the matrix of the vertices' value ranks as
its value table, and its vertices share the value objects of that table.
Its ``lift`` (one integer matrix over a common denominator, built from
that table and cached) serves ``max_squared_norm`` and the covering
module's certificate.

The float output stage runs on arrays too.  Each ray is re-solved from its
tight rows to remove the drift of the insertions: the rays are grouped by
the size of their tight sets and each group's tight rows go through one
stacked SVD per chunk of ``RANK_ENTRIES`` entries, unpadded, so that every
matrix is the one a single ray's SVD would see.  The null vector replaces
the ray only where the rows have rank n by the ``RANK_RTOL`` rule and the
ray lies within 1e-5 of it.  The coordinates x / t are deduplicated on
their ``DEDUP_EPS`` grid with ``np.unique``, the first ray in (ray, mask)
order kept, and ordered by ``np.lexsort``.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

from ._linalg import Lift, kernel_for, value_table
from ._linalg import lift as lift_table
from .configgen import Configuration
from .scalar import FLOAT, Field, Vector, dot, format_scalar, parse_scalar, sign_of

__all__ = [
    "HPolytope",
    "Halfspace",
    "Unbounded",
    "VertexSet",
    "dump_hpolytope",
    "enumerate_vertices",
    "load_hpolytope",
    "max_squared_norm",
    "polar_hrep",
    "symmetry_cone",
]

logger = logging.getLogger(__name__)

DEDUP_EPS = 1e-8  # float vertex deduplication, componentwise
# float refinement rank: singular values above this times the largest count
RANK_RTOL = 1e-9
# mask pairs per block of the adjacency pre-filter (plus x minus, block
# union x minus, block x minus) and of the containment tests (pair x zero
# ray, pair x pair); an insertion's plus x minus pairs that fit one block
# are all counted, without the union step
PAIR_BLOCK = 1 << 16
# plus rays per block whose union is counted against the minus masks first
UNION_RAYS = 16
# entries of a list of candidate pairs sharing a ray that each entry is
# first tested against; a longer list is then tested as a block of its own
LONG_LIST = 16
# matrix entries per chunk of the float refinement's stacked SVDs
RANK_ENTRIES = 1 << 13
# rays per block of the output stage's tight sets
OUTPUT_RAYS = 1 << 10
# rows of the DD's ray store past the first cone's, so that small systems
# do not regrow it on every insertion that adds rays
SPARE_RAYS = 256

POLAR = "polar"  # <v, x> <= 1
CONE = "cone"  # <c, x> >= 0


class Unbounded(Exception):
    """The polyhedron admits a recession direction.

    For a polar system without cone rows this means the origin is not
    interior to the convex hull of the configuration.
    """

    def __init__(self, direction: Vector):
        self.direction = direction
        super().__init__(
            "polyhedron is unbounded along ("
            + ", ".join(format_scalar(x) for x in direction)
            + ")"
        )


@dataclass(frozen=True)
class Halfspace:
    normal: Vector
    kind: str  # POLAR or CONE

    def __post_init__(self):
        if self.kind not in (POLAR, CONE):
            raise ValueError(f"unknown halfspace kind {self.kind!r}")
        if all(sign_of(x) == 0 for x in self.normal):
            raise ValueError("halfspace normal must be nonzero")


@dataclass(frozen=True)
class HPolytope:
    dimension: int
    halfspaces: tuple
    field: Field


@dataclass(frozen=True)
class VertexSet:
    vertices: tuple  # tuple[Vector, ...]
    tight_sets: tuple  # tuple[tuple[int, ...], ...], halfspace indices
    # exact vertices as a value table: the distinct coordinate values in
    # order and the matrix of each vertex's positions in them
    table: tuple | None = dataclasses.field(default=None, repr=False, compare=False)

    @cached_property
    def lift(self) -> Lift:
        """The vertices lifted once: exact ones from their value table
        (built by ``_linalg.value_table`` from every coordinate when the set
        came without one) in the field that ``_linalg.lift`` infers from
        them; float ones, which share few coordinate values, as their
        float64 matrix."""
        import numpy as np

        if isinstance(self.vertices[0][0], float):
            return Lift(1, np.array(self.vertices, dtype=float), kernel_for(FLOAT))
        table = self.table
        if table is None:
            coords = list(chain.from_iterable(self.vertices))
            index = np.arange(len(coords)).reshape(len(self.vertices), -1)
            table = value_table(coords, index)
        return lift_table(*table)


def polar_hrep(config: Configuration) -> HPolytope:
    """One halfspace <v, x> <= 1 per point of the (unnormalized) set.

    The resulting polytope is the polar body scaled by the common point
    norm; the covering module folds the scale back in.
    """
    return HPolytope(
        config.dimension,
        tuple(Halfspace(p, POLAR) for p in config.points),
        config.field,
    )


def symmetry_cone(n: int, field: Field) -> tuple:
    """The fundamental cone x1 >= 0, x1 >= x2 >= ... >= xn."""
    if n < 2:
        raise ValueError(f"symmetry cone needs dimension >= 2, got {n}")
    one, zero = field.one, field.zero
    rows = [tuple(one if j == 0 else zero for j in range(n))]
    for i in range(n - 1):
        rows.append(
            tuple(
                one if j == i else (-one if j == i + 1 else zero) for j in range(n)
            )
        )
    return tuple(Halfspace(r, CONE) for r in rows)


# -- double description core -------------------------------------------------


def _homogenized_rows(poly: HPolytope, kernel):
    """Row 0 is t >= 0; polar <v,x> <= 1 becomes (1, -v); cone stays (0, c).

    The normals are lifted at once; ``primitive`` then gives each row the
    kernel form it has alone.  Row 0 keeps sign +1, its float zeros 0.0."""
    import numpy as np

    n = poly.dimension
    if any(len(hs.normal) != n for hs in poly.halfspaces):
        raise ValueError("halfspace dimension mismatch")
    values = list(chain((poly.field.zero,) * n, *(hs.normal for hs in poly.halfspaces)))
    index = np.arange(len(values)).reshape(len(poly.halfspaces) + 1, n)
    polar = np.array([1] + [hs.kind == POLAR for hs in poly.halfspaces])
    sign = np.append(1, 1 - 2 * polar[1:])
    lifted = lift_table(values, index, poly.field)
    return kernel.primitive(lifted.stack(t=polar, sign=sign))


def enumerate_vertices(poly: HPolytope) -> VertexSet:
    """Complete vertex set of a bounded H-polytope, exact over its field.

    Raises :class:`Unbounded` when a recession direction survives all
    insertions, which for a pure polar system means the origin is not
    interior to the convex hull of the defining points.
    """
    import numpy as np

    n = poly.dimension
    dim = n + 1
    field = poly.field
    kernel = kernel_for(field)
    rows = _homogenized_rows(poly, kernel)

    selected, rays, lineality = kernel.first_cone(rows, dim)
    if len(selected) < dim:
        # every row is tight on the lineality left, so the t >= 0 row
        # forces t = 0 and the rest of its first vector, primitive with its
        # first nonzero coordinate rational and positive, is orthogonal to
        # every constraint normal
        direction = lineality[0, 1:].tolist()
        raise Unbounded(tuple(map(kernel.to_scalar, direction)))
    # the rays, their masks and the order in which they were made are the
    # first count rows of three stores; ray j is tight on every selected
    # row but row j, positive on row j
    count = made = dim
    rays = _room(rays, count, count + SPARE_RAYS, rays.dtype)
    masks = np.zeros((len(rays), -(-len(rows) // 64)), dtype=np.uint64)
    born = np.arange(len(rays))
    for j, idx in enumerate(selected):
        for i in selected:
            if i != idx:
                masks[j, i >> 6] |= np.uint64(1 << (i & 63))

    need = dim - 2
    remaining = [i for i in range(len(rows)) if i not in selected]
    for step, idx in enumerate(remaining):
        live, products, signs = kernel.classify(rays[:count], rows[idx])
        if live.dtype != rays.dtype:
            rays = _room(rays, count, count, live.dtype)
        word, bit = idx >> 6, np.uint64(1 << (idx & 63))
        masks[:count][signs == 0, word] |= bit
        minus = np.flatnonzero(signs < 0)
        if not minus.size:
            continue
        plus = np.flatnonzero(signs > 0)
        if not _dense(len(plus), len(minus)):
            plus = plus[np.argsort(born[plus])]
        p, m, common = _candidate_pairs(masks[plus], masks[minus], need, len(rows))
        p, m = plus[p], minus[m]
        adjacent = _adjacent(masks[:count], signs, p, m, common)
        p, m, common = p[adjacent], m[adjacent], common[adjacent]
        fresh_rays = kernel.combine_rays(products[p], live[m], products[m], live[p])
        common[:, word] |= bit
        # the fresh rays take the minus rays' rows, then rows past the live
        # ones; when fewer come, the live rows past the new count move into
        # the minus rows left below it
        size = count + len(fresh_rays) - len(minus)
        rays = _room(rays, count, size, np.result_type(rays, fresh_rays))
        masks = _room(masks, count, size, masks.dtype)
        born = _room(born, count, size, born.dtype)
        if size < count:
            empty = minus[len(fresh_rays):]
            holes = empty[empty < size]
            moved = np.arange(size, count)
            moved = moved[signs[moved] >= 0]
            rays[holes], masks[holes] = rays[moved], masks[moved]
            born[holes] = born[moved]
        slots = np.concatenate((minus, np.arange(count, size)))[:len(fresh_rays)]
        rays[slots], masks[slots] = fresh_rays, common
        born[slots] = np.arange(made, made + len(slots))
        count, made = size, made + len(slots)
        logger.debug(
            "inserted %d/%d halfspaces, %d rays", step + 1, len(remaining), count
        )
    rays, masks = rays[:count], masks[:count]

    _, _, t_signs = kernel.classify(rays, rows[0])
    if (t_signs == 0).any():
        # the first unbounded ray in (ray, mask) order
        vec = min(rays[t_signs == 0].tolist())
        raise Unbounded(tuple(map(kernel.to_scalar, vec[1:])))

    # the rays left are bounded, so none is tight on row 0 (t >= 0), and
    # halfspace i is row i + 1.  Python objects are made a block of rays at
    # a time, so that their temporaries stay small next to the output; the
    # float rays are refined a block at a time too.
    tights = []
    if field.is_exact:
        values, rank = kernel.vertex_table(rays)
    else:
        out = np.empty(rays.shape)  # refined rays
    for start in range(0, len(rays), OUTPUT_RAYS):
        block = slice(start, start + OUTPUT_RAYS)
        index, counts = _tight_indices(masks[block], len(rows))
        if not field.is_exact:
            out[block] = _refine_float_rays(rows, rays[block], index, counts)
        index = (index - 1).tolist()
        tights += (tuple(r[:c]) for r, c in zip(index, counts.tolist()))
    if field.is_exact:
        # lexsort's last key is its first
        order = np.lexsort(rank.T[::-1])
        rank = rank[order]
        table = np.array(values, dtype=object)
        vertices = []
        for start in range(0, len(rank), OUTPUT_RAYS):
            vertices += map(tuple, table[rank[start:start + OUTPUT_RAYS]])
        tights = map(tights.__getitem__, order.tolist())
        return VertexSet(tuple(vertices), tuple(tights), (values, rank))

    # deduplication keeps the first ray in (ray, mask) order
    keys = [masks[:, j] for j in range(masks.shape[1])]
    keys += [rays[:, j] for j in reversed(range(dim))]
    order = np.lexsort(keys)
    coords = out[:, 1:] / out[:, :1]
    _, first = np.unique(np.rint(coords[order] / DEDUP_EPS), axis=0, return_index=True)
    kept = order[first]
    # lexsort's last key is its first
    kept = kept[np.lexsort(coords[kept].T[::-1])]
    return VertexSet(
        tuple(map(tuple, coords[kept].tolist())),
        tuple(map(tights.__getitem__, kept.tolist())),
    )


def _room(store, count: int, size: int, dtype):
    """``store`` when it holds ``dtype`` and at least ``size`` rows, else a
    new store of ``dtype`` with its first ``count`` rows: as long as
    ``store`` when it has the rows, else twice as long or ``size`` rows,
    whichever is more.  The rows past ``count`` are unset."""
    import numpy as np

    if store.dtype == dtype and len(store) >= size:
        return store
    length = len(store) if len(store) >= size else max(size, 2 * len(store))
    grown = np.empty((length,) + store.shape[1:], dtype=dtype)
    grown[:count] = store[:count]
    return grown


def _candidate_pairs(plus, minus, need: int, rows: int):
    """(plus index, minus index, common mask) of every pair of packed tight
    masks over ``rows`` rows sharing at least ``need`` of them, in (plus,
    minus) order.

    The plus masks are taken in blocks of ``UNION_RAYS`` consecutive rays
    (the test drops the most blocks when consecutive masks are alike, as
    those of rays made one after another are), and each block's union U is
    counted against every minus mask m (``_sharing_pairs``).  Every plus
    mask p of the block lies inside U, so |p & m| <= |U & m|, and a block
    whose union shares fewer than ``need`` rows with m holds no candidate
    for m: the test drops no pair.  When the insertion's plus x minus pairs
    fit one ``PAIR_BLOCK``, every block is one mask, its own union, and
    that count is the result.  Otherwise the plus masks of each block that
    passes are counted against its minus mask, gathered a whole block at a
    time (the last block's rays past the end read as its last ray and
    dropped), at most ``PAIR_BLOCK`` mask words (of one block at least) at
    a time, and the survivors are sorted back into (plus, minus) order.
    Popcounts are summed over the words in which both some plus and some
    minus mask have a row, into uint8 (uint16 from 256 rows on).
    """
    import numpy as np

    dtype = np.uint8 if rows < 256 else np.uint16
    size = 1 if _dense(len(plus), len(minus)) else min(UNION_RAYS, len(plus))
    unions = plus
    if size > 1:
        unions = np.bitwise_or.reduceat(plus, np.arange(0, len(plus), size), axis=0)
    # the unions have rows in the same words as the plus masks
    live = np.flatnonzero(_union(unions) & _union(minus)).tolist()
    b, m = _sharing_pairs(unions, minus, need, live, dtype)
    if size == 1:
        return b, m, plus[b] & minus[m]
    offsets = np.arange(size)
    # a gathered chunk holds at most PAIR_BLOCK words, as one word of the
    # pairs of a dense block does
    step = max(1, PAIR_BLOCK // (size * plus.shape[1]))
    hits = [(np.zeros(0, dtype=np.intp),) * 2]
    for start in range(0, len(b), step):
        hit_b, hit_m = b[start:start + step], m[start:start + step]
        rays = hit_b[:, None] * size + offsets
        counts = np.zeros(rays.shape, dtype=dtype)
        block = plus.take(rays, axis=0, mode="clip")
        _shared_rows(counts, block, minus[hit_m, None], live)
        h, i = np.nonzero(counts >= need)
        hits.append((rays[h, i], hit_m[h]))
    p, m = map(np.concatenate, zip(*hits))
    # the last block's rays past the end were read as its last ray
    kept = p < len(plus)
    p, m = p[kept], m[kept]
    order = np.argsort(p * len(minus) + m)
    p, m = p[order], m[order]
    return p, m, plus[p] & minus[m]


def _dense(plus: int, minus: int) -> bool:
    """Whether an insertion's ``plus`` x ``minus`` pairs fit one
    ``PAIR_BLOCK``, so that ``_candidate_pairs`` counts every pair and
    takes no union step."""
    return plus * minus <= PAIR_BLOCK


def _union(masks):
    """The union of packed masks (words on the last axis).  numpy reduces
    an array of several words over its ray axis about ten times slower than
    it reduces each word's column alone, so those are reduced a column at a
    time."""
    import numpy as np

    reduce = np.bitwise_or.reduce
    if masks.shape[1] == 1:
        return reduce(masks, axis=0)
    return np.fromiter(map(reduce, masks.T), dtype=np.uint64, count=masks.shape[1])


def _sharing_pairs(plus, minus, need: int, live, dtype):
    """(plus index, minus index) of every pair of packed masks sharing at
    least ``need`` rows, in (plus, minus) order, counted by
    ``_shared_rows`` a block of plus masks at a time."""
    import numpy as np

    step = max(1, PAIR_BLOCK // len(minus))
    p, m = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for start in range(0, len(plus), step):
        block = plus[start:start + step, None]
        counts = np.zeros((len(block), len(minus)), dtype=dtype)
        _shared_rows(counts, block, minus[None], live)
        i, j = np.nonzero(counts >= need)
        p.append(i + start)
        m.append(j)
    return np.concatenate(p), np.concatenate(m)


def _shared_rows(counts, a, b, live) -> None:
    """Add to ``counts`` the rows shared by the packed masks ``a`` and
    ``b`` (broadcast to its shape, words on the last axis): the popcounts
    of their ANDs over the words ``live``."""
    import numpy as np

    for j in live:
        counts += np.bitwise_count(a[..., j] & b[..., j])


def _adjacent(masks, signs, p, m, common):
    """Whether each candidate pair of a plus ray ``p`` and a minus ray
    ``m`` (ray indices) with ``common`` mask S = mask p & mask m is
    adjacent: whether no third ray's mask contains S.

    A third ray that contains S is tight on the row being inserted, or it
    is a plus ray c, and then (c, m) is a candidate pair whose common mask
    contains S, or a minus ray c, and then (p, c) is one.  So S is tested
    against the masks of the rays that are tight on the row, and against
    the common masks of the other pairs that share a ray with its pair:
    each pair is listed under its plus and under its minus ray, and the
    entries of a list are tested against each other: every entry against
    the first ``LONG_LIST`` entries of its list in one gathered pass, and a
    longer list against itself as a block of its own.  Every test runs in
    blocks of at most ``PAIR_BLOCK`` tests (of one row at least), on the
    masks' words taken one at a time.
    """
    import numpy as np

    # only the words in which some common mask has a row, and the first: a
    # set with no row in a word lies inside every mask there
    live = _union(common) != 0
    live[0] = True
    words = np.ascontiguousarray(common.T[live])
    covered = _covered(words, ~masks[signs == 0].T[live], 0)
    # the lists: each pair entered under its plus and under its minus ray,
    # in ray order; each entry's list starts at first and has size entries
    ray = np.concatenate((p, m))
    order = np.argsort(ray, kind="stable")
    ray, pair = ray[order], order % len(common)
    first = np.searchsorted(ray, ray)
    size = np.searchsorted(ray, ray, "right") - first
    sets = words[:, pair]
    complements = ~sets
    # every entry against the LONG_LIST entries from the start of its list,
    # those in its list counted: whole short lists, part of the long ones;
    # an entry's own set is one of those that contain it
    offsets = np.arange(LONG_LIST)
    step = max(1, PAIR_BLOCK // LONG_LIST)
    for start in range(0, len(ray), step):
        rows = slice(start, start + step)
        cols = np.minimum(first[rows, None] + offsets, len(ray) - 1)
        inside = _inside(sets[:, rows, None], complements[:, cols])
        inside &= offsets < size[rows, None]
        covered[pair[rows][np.count_nonzero(inside, axis=1) > 1]] = True
    # a long list against the whole of itself
    heads = np.flatnonzero((size > LONG_LIST) & (first == np.arange(len(ray))))
    for head, length in zip(heads.tolist(), size[heads].tolist()):
        block = slice(head, head + length)
        covered[pair[block][_covered(sets[:, block], complements[:, block], 1)]] = True
    return ~covered


def _covered(sets, complements, least: int):
    """Whether each packed set, one word per row of ``sets``, lies inside
    more than ``least`` of the masks whose complements are given the same
    way, in blocks of at most ``PAIR_BLOCK`` tests (of one set at least)."""
    import numpy as np

    covered = np.empty(sets.shape[1], dtype=bool)
    step = max(1, PAIR_BLOCK // max(1, complements.shape[1]))
    for start in range(0, sets.shape[1], step):
        rows = slice(start, start + step)
        inside = _inside(sets[:, rows, None], complements[:, None])
        covered[rows] = np.count_nonzero(inside, axis=1) > least
    return covered


def _inside(sets, complements):
    """Whether each packed set, one word per row of ``sets``, lies inside
    the mask whose complement is given the same way (broadcast)."""
    outside = sets[0] & complements[0]
    for word, complement in zip(sets[1:], complements[1:]):
        outside |= word & complement
    return outside == 0


def _tight_indices(masks, rows: int):
    """Row indices of the set bits of each packed mask over ``rows`` rows,
    in increasing order and padded with ``rows`` to equal length, and the
    popcount of each mask."""
    import numpy as np

    bits = np.unpackbits(
        masks.astype("<u8", copy=False).view(np.uint8),
        axis=1,
        count=rows,
        bitorder="little",
    )
    item, row = np.nonzero(bits)
    counts = np.bincount(item, minlength=len(masks))
    index = np.full((len(masks), counts.max(initial=0)), rows)
    index[item, np.arange(len(row)) - (np.cumsum(counts) - counts)[item]] = row
    return index, counts


def _refine_float_rays(tight_rows, rays, index, counts):
    """Each float ray re-solved from its tight rows to remove drift.

    The null vector is the last right singular vector of the rays' tight
    rows (``index`` and ``counts`` as ``_tight_indices`` gives them, the
    padding unread) over its first entry.  It replaces the ray, scaled to
    unit max-norm, where the rows have rank dim - 1 by the ``RANK_RTOL``
    rule, that first entry is at least 1e-12 in size and every coordinate
    is within 1e-5 of the ray's over its own first entry; other rays are
    kept as they are.

    The rays are taken by tight-set size, one stacked SVD of their tight
    rows per chunk of at most ``RANK_ENTRIES`` matrix entries; each matrix
    is the one a single ray's SVD would take, unpadded, so the vectors are
    the same whatever the chunk.
    """
    import numpy as np

    dim = rays.shape[1]
    out = rays.copy()
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        group = np.flatnonzero(counts == k)
        step = max(1, RANK_ENTRIES // max(1, k * dim))
        for start in range(0, len(group), step):
            chunk = group[start:start + step]
            _, svals, vt = np.linalg.svd(tight_rows[index[chunk, :k]])
            rank = (svals > RANK_RTOL * svals[:, :1]).sum(axis=1)
            null = vt[:, -1]
            solved = (rank == dim - 1) & (np.abs(null[:, 0]) >= 1e-12)
            chunk, null, raw = chunk[solved], null[solved], rays[chunk[solved]]
            null = null / null[:, :1]
            drift = np.abs(raw / raw[:, :1] - null).max(axis=1)
            chunk, null = chunk[drift < 1e-5], null[drift < 1e-5]
            out[chunk] = null / np.abs(null).max(axis=1, keepdims=True)
    return out


def max_squared_norm(vertices: VertexSet):
    """Exact maximum of sum(x_i^2) over vertices, with the first attaining vertex.

    The vertices are compared on ``vertices.lift`` by its kernel's
    ``squared_norms`` (scale^2 |v|^2 in kernel layout; float squares summed
    column by column as ``dot`` sums them) and ``argmax``.
    """
    if not vertices.vertices:
        raise ValueError("empty vertex set")
    lift = vertices.lift
    kernel = lift.kernel
    best = vertices.vertices[kernel.argmax(kernel.squared_norms(lift.vectors))]
    return dot(best, best), best


# -- halfspace dump format (oracle --hrep) -------------------------------------


def _field_tag(field: Field) -> str:
    if field.kind == "quadratic":
        return f"quadratic:{field.d}"
    return field.kind


def _field_from_tag(tag: str) -> Field:
    if tag.startswith("quadratic:"):
        return Field("quadratic", int(tag.split(":", 1)[1]))
    return Field(tag)


def dump_hpolytope(poly: HPolytope, path: str | Path) -> None:
    lines = [f"hpolytope dim={poly.dimension} field={_field_tag(poly.field)}"]
    for hs in poly.halfspaces:
        lines.append(f"{hs.kind}: " + " ".join(format_scalar(x) for x in hs.normal))
    Path(path).write_text("\n".join(lines) + "\n")


def load_hpolytope(path: str | Path) -> HPolytope:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("hpolytope "):
        raise ValueError(f"{path}: not an hpolytope dump")
    header = {}
    for part in lines[0].split()[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(
                f"{path}: malformed header token {part!r}, expected key=value"
            )
        header[key] = value
    for key in ("dim", "field"):
        if key not in header:
            raise ValueError(f"{path}: header has no {key}=")
    n = int(header["dim"])
    if n < 1:
        raise ValueError(f"{path}: dim={n}, expected a positive dimension")
    field = _field_from_tag(header["field"])
    halfspaces = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        kind, _, rest = line.partition(":")
        kind = kind.strip()
        if kind not in (POLAR, CONE):
            raise ValueError(f"{path}:{lineno}: unknown row kind {kind!r}")
        normal = tuple(parse_scalar(tok, field) for tok in rest.split())
        if len(normal) != n:
            raise ValueError(f"{path}:{lineno}: expected {n} coordinates")
        halfspaces.append(Halfspace(normal, kind))
    return HPolytope(n, tuple(halfspaces), field)
