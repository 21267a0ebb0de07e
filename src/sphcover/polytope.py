"""Exact vertex enumeration for halfspace-defined polytopes.

The enumerator is an incremental double description method run on the
homogenization cone in E^(n+1): build a simplicial subcone by inserting
constraint rows into the whole space (``first_cone``: each row that some
lineality vector is not tight on takes one as its ray), insert the
remaining halfspaces one at a time, and combine adjacent ray pairs that
straddle each new hyperplane.  Adjacency is certified algebraically by the
rank of the common tight set, so the heavily degenerate polytopes produced
by symmetric configurations need no perturbation.  Exact backends run on
integer (or integer-quadratic) ray coordinates; the float backend uses
fixed absolute tolerances on rows and rays scaled to unit max-norm.

Each insertion runs on whole arrays.  The rays are one matrix (int64 while
a bound shows every product fits, Python ints otherwise; an (a, b) axis
over Q(sqrt d); float64) and their tight sets are bit masks packed into
uint64 words.  One product classifies every ray.  Pairs whose masks share
fewer than n-1 rows are dropped by popcounts of word ANDs, a block of plus
rays at a time.  The common tight rows of the remaining pairs go through
one batched fraction-free (Bareiss) rank elimination per chunk, over
Q(sqrt d) on the rational regular representation, and the adjacent pairs
are combined in one array step with a row gcd.

The exact output stage stays on integers, a block of rays at a time: the
tight sets come from the packed masks, and each coordinate x / t becomes a
slot in a table of the distinct raw pairs (x, t), one quotient each.
``_linalg.value_table`` ranks the quotients by value (put in order by
their floats, the order confirmed by one exact comparison per neighbouring
pair) and the vertices are ordered by ``np.lexsort`` on the matrix of
their value ranks, so that the result is sorted by value with no
comparison of vertex tuples.  The returned :class:`VertexSet` keeps the
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
from itertools import chain, starmap
from pathlib import Path

from ._linalg import RANK_RTOL, Lift, kernel_for, value_table
from ._linalg import lift as lift_table
from .configgen import Configuration
from .scalar import (
    RATIONAL,
    Field,
    Quadratic,
    Vector,
    dot,
    format_scalar,
    parse_scalar,
    quadratic_field,
    sign_of,
)

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
# plus x minus mask pairs per block of the adjacency pre-filter
PAIR_BLOCK = 1 << 16
# matrix entries per chunk of the batched rank test
RANK_ENTRIES = 1 << 13
# rays per block of the output stage's tight sets
OUTPUT_RAYS = 1 << 10

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
        came without one) and lifted over Q(sqrt d) when a coordinate is a
        Quadratic, over Q when all are Fractions (``_linalg.lift``); float
        ones, which share few coordinate values, as their float64 matrix."""
        import numpy as np

        if isinstance(self.vertices[0][0], float):
            return Lift(1, np.array(self.vertices, dtype=float), None, 0)
        table = self.table
        if table is None:
            coords = list(chain.from_iterable(self.vertices))
            index = np.arange(len(coords)).reshape(len(self.vertices), -1)
            table = value_table(coords, index)
        values, index = table
        d = next((x.d for x in values if isinstance(x, Quadratic)), None)
        return lift_table(values, index, RATIONAL if d is None else quadratic_field(d))


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
    # ray j is tight on every selected row but row j, positive on row j
    masks = np.zeros((dim, -(-len(rows) // 64)), dtype=np.uint64)
    for j, idx in enumerate(selected):
        for i in selected:
            if i != idx:
                masks[j, i >> 6] |= np.uint64(1 << (i & 63))

    need = dim - 2
    tight_rows = kernel.rank_rows(rows)
    remaining = [i for i in range(len(rows)) if i not in selected]
    for step, idx in enumerate(remaining):
        rays, products, signs = kernel.classify(rays, rows[idx])
        word, bit = idx >> 6, np.uint64(1 << (idx & 63))
        masks[signs == 0, word] |= bit
        minus = np.flatnonzero(signs < 0)
        if not minus.size:
            continue
        plus = np.flatnonzero(signs > 0)
        fresh_rays, fresh_masks = [], []
        pairs = _candidate_pairs(masks[plus], masks[minus], need, len(rows))
        for p, m, common in pairs:
            adjacent = _adjacent(kernel, tight_rows, common, need)
            p, m = plus[p[adjacent]], minus[m[adjacent]]
            fresh_rays.append(
                kernel.combine_rays(products[p], rays[m], products[m], rays[p])
            )
            common = common[adjacent]
            common[:, word] |= bit
            fresh_masks.append(common)
        keep = signs >= 0
        rays = np.concatenate([rays[keep], *fresh_rays])
        masks = np.concatenate([masks[keep], *fresh_masks])
        logger.debug(
            "inserted %d/%d halfspaces, %d rays", step + 1, len(remaining), len(rays)
        )

    _, _, t_signs = kernel.classify(rays, rows[0])
    if (t_signs == 0).any():
        # the first unbounded ray in (ray, mask) order
        vec = min(rays[t_signs == 0].tolist())
        raise Unbounded(tuple(map(kernel.to_scalar, vec[1:])))

    # the rays left are bounded, so none is tight on row 0 (t >= 0), and
    # halfspace i is row i + 1.  Python objects are made a block of rays at
    # a time, so that their temporaries stay small next to the output; the
    # float rays are refined a block at a time too.
    tights, shared = [], {}
    if field.is_exact:
        out = np.empty((len(rays), n), dtype=np.intp)  # coordinate slots
    else:
        out = np.empty(rays.shape)  # refined rays
    for start in range(0, len(rays), OUTPUT_RAYS):
        block = slice(start, start + OUTPUT_RAYS)
        index, counts = _tight_indices(masks[block], len(rows))
        if field.is_exact:
            out[block] = kernel.quotient_slots(rays[block], shared)
        else:
            out[block] = _refine_float_rays(tight_rows, rays[block], index, counts)
        index = (index - 1).tolist()
        tights += (tuple(r[:c]) for r, c in zip(index, counts.tolist()))
    if field.is_exact:
        values, rank = value_table(list(starmap(kernel.quotient, shared)), out)
        del out  # the ranks replace the slots; free them before the vertices
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


def _candidate_pairs(plus, minus, need: int, rows: int):
    """(plus index, minus index, common mask) of every pair of packed tight
    masks over ``rows`` rows sharing at least ``need`` of them, a block of
    plus rows at a time.

    The popcounts of the word ANDs are summed one word at a time into
    uint8 (uint16 from 256 rows on).
    """
    import numpy as np

    words = plus.shape[1]
    dtype = np.uint8 if rows < 256 else np.uint16
    step = max(1, PAIR_BLOCK // len(minus))
    for start in range(0, len(plus), step):
        block = plus[start:start + step]
        counts = np.zeros((len(block), len(minus)), dtype=dtype)
        for j in range(words):
            counts += np.bitwise_count(block[:, j, None] & minus[None, :, j])
        p, m = np.nonzero(counts >= need)
        if p.size:
            yield p + start, m, block[p] & minus[m]


def _adjacent(kernel, tight_rows, common, need: int):
    """Whether the rows of each packed mask have rank ``need``:
    ``tight_rows`` ends in a zero row, which pads the shorter sets.  The
    masks are taken in order of their popcount, a chunk of at most
    ``RANK_ENTRIES`` matrix entries at a time."""
    import numpy as np

    index, counts = _tight_indices(common, len(tight_rows) - 1)
    order = np.argsort(counts, kind="stable")
    step = max(1, RANK_ENTRIES // max(1, index.shape[1] * tight_rows[0].size))
    adjacent = np.empty(len(order), dtype=bool)
    for start in range(0, len(order), step):
        chunk = order[start:start + step]
        stack = tight_rows[index[chunk, : counts[chunk[-1]]]]
        adjacent[chunk] = kernel.ranks(stack, need) >= need
    return adjacent


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
    rows (``index`` and ``counts`` as ``_tight_indices`` gives them) over
    its first entry.  It replaces the ray, scaled to unit max-norm, where
    the rows have rank dim - 1 by the ``RANK_RTOL`` rule, that first entry
    is at least 1e-12 in size and every coordinate is within 1e-5 of the
    ray's over its own first entry; other rays are kept as they are.

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

    Exact vertices are compared on ``vertices.lift``: scale^2 |v|^2 is the
    integer row sum u + w sqrt(d), so over Q the largest u wins, and over
    Q(sqrt d) the largest of the distinct pairs (u, w), each decided once.
    Float vertices are compared on the float matrix of their lift, by
    squares summed column by column as ``dot`` sums them.
    """
    if not vertices.vertices:
        raise ValueError("empty vertex set")
    lift = vertices.lift
    if isinstance(vertices.vertices[0][0], float):
        a = lift.a
        norms = a[:, 0] * a[:, 0]
        for j in range(1, a.shape[1]):
            norms = norms + a[:, j] * a[:, j]
        first = int(norms.argmax())
    else:
        u, w = lift.squared_norms()
        if w is None:
            first = int(u.argmax())
        else:
            norms = list(zip(u.tolist(), w.tolist()))
            top = max(set(norms), key=lambda uw: Quadratic(*uw, lift.d))
            first = norms.index(top)
    best = vertices.vertices[first]
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
