"""Exact vertex enumeration for halfspace-defined polytopes.

The enumerator is an incremental double description method run on the
homogenization cone in E^(n+1): pick a simplicial subcone from independent
constraint rows, insert the remaining halfspaces one at a time, and combine
adjacent ray pairs that straddle each new hyperplane.  Adjacency is
certified algebraically by the rank of the common tight set, so the heavily
degenerate polytopes produced by symmetric configurations need no
perturbation.  Exact backends run on integer (or integer-quadratic) ray
coordinates; the float backend uses fixed absolute tolerances on rows and
rays scaled to unit max-norm.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ._linalg import kernel_for
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


def _homogenized_rows(poly: HPolytope, kernel) -> list:
    """Row 0 is t >= 0; polar <v,x> <= 1 becomes (1, -v); cone stays (0, c)."""
    n = poly.dimension
    zero, one = poly.field.zero, poly.field.one
    rows = [kernel.vec_from_scalars((one,) + (zero,) * n)]
    for hs in poly.halfspaces:
        if len(hs.normal) != n:
            raise ValueError("halfspace dimension mismatch")
        if hs.kind == POLAR:
            rows.append(kernel.vec_from_scalars((one,) + tuple(-x for x in hs.normal)))
        else:
            rows.append(kernel.vec_from_scalars((zero,) + tuple(hs.normal)))
    return rows


def enumerate_vertices(poly: HPolytope) -> VertexSet:
    """Complete vertex set of a bounded H-polytope, exact over its field.

    Raises :class:`Unbounded` when a recession direction survives all
    insertions, which for a pure polar system means the origin is not
    interior to the convex hull of the defining points.
    """
    n = poly.dimension
    dim = n + 1
    field = poly.field
    kernel = kernel_for(field)
    rows = _homogenized_rows(poly, kernel)

    # simplicial initialization: ray j is orthogonal to every selected row
    # but row j, on its positive side
    selected, basis = kernel.greedy_basis(rows, dim)
    if len(selected) < dim:
        # the t >= 0 row forces t = 0, so the rest of a null vector of all
        # rows is orthogonal to every constraint normal; oriented against
        # e_j, j its first nonzero coordinate, it is primitive and that
        # coordinate is rational and positive
        direction = kernel.null_vector(rows)[1:]
        j = next(i for i, x in enumerate(direction) if kernel.sign(x) != 0)
        direction = kernel.orient(direction, kernel.unit(n, j))
        raise Unbounded(tuple(kernel.to_scalar(x) for x in direction))
    sel_mask = 0
    for idx in selected:
        sel_mask |= 1 << idx
    rays = []
    for j, idx in enumerate(selected):
        vec = kernel.null_vector(basis[:j] + basis[j + 1:])
        rays.append((kernel.orient(vec, basis[j]), sel_mask & ~(1 << idx)))
    rays.sort()

    remaining = [i for i in range(len(rows)) if i not in set(selected)]
    need = dim - 2
    for step, idx in enumerate(remaining):
        w = rows[idx]
        bit = 1 << idx
        plus, zero, minus = [], [], []
        for vec, mask in rays:
            s = kernel.dot(w, vec)
            sg = kernel.sign(s)
            if sg > 0:
                plus.append((vec, mask, s))
            elif sg < 0:
                minus.append((vec, mask, s))
            else:
                zero.append((vec, mask | bit))
        if not minus:
            rays = [(v, m) for v, m, _ in plus] + zero
            rays.sort()
            continue
        fresh = []
        for vp, mp, sp in plus:
            for vm, mm, sm in minus:
                common = mp & mm
                if common.bit_count() < need:
                    continue
                tight_rows = []
                m = common
                while m:
                    low = m & -m
                    tight_rows.append(rows[low.bit_length() - 1])
                    m ^= low
                if not kernel.rank_at_least(tight_rows, need):
                    continue
                fresh.append((kernel.combine(sp, vm, sm, vp), common | bit))
        rays = [(v, m) for v, m, _ in plus] + zero + fresh
        if not rays:
            raise ValueError("constraint system is infeasible")
        rays.sort()
        logger.debug(
            "inserted %d/%d halfspaces, %d rays", step + 1, len(remaining), len(rays)
        )

    for vec, _ in rays:
        if kernel.sign(vec[0]) == 0:
            raise Unbounded(tuple(kernel.to_scalar(x) for x in vec[1:]))

    if field.kind == "float":
        rays = _refine_float_rays(rows, rays)

    results = []
    for vec, mask in rays:
        coords = kernel.dehomogenize(vec)
        tight = []
        m = mask >> 1  # drop the t >= 0 row; halfspace i sits at bit i+1
        i = 0
        while m:
            if m & 1:
                tight.append(i)
            m >>= 1
            i += 1
        results.append((coords, tuple(tight)))

    if field.kind == "float":
        deduped = {}
        for coords, tight in results:
            key = tuple(round(x / DEDUP_EPS) for x in coords)
            deduped.setdefault(key, (coords, tight))
        results = list(deduped.values())

    results.sort(key=lambda item: item[0])
    return VertexSet(
        tuple(coords for coords, _ in results),
        tuple(tight for _, tight in results),
    )


def _refine_float_rays(rows, rays):
    """Re-solve each float ray from its tight rows to remove drift."""
    import numpy as np

    dim = len(rays[0][0]) if rays else 0
    refined = []
    for vec, mask in rays:
        tight = []
        m = mask
        while m:
            low = m & -m
            tight.append(rows[low.bit_length() - 1])
            m ^= low
        matrix = np.array(tight, dtype=float)
        _, svals, vt = np.linalg.svd(matrix)
        rank_est = int((svals > 1e-9 * svals[0]).sum()) if len(svals) else 0
        null = vt[-1]
        if rank_est != dim - 1 or abs(null[0]) < 1e-12:
            refined.append((vec, mask))
            continue
        null = null / null[0]
        drift = np.abs(np.asarray(vec) / vec[0] - null).max()
        if drift < 1e-5:
            scale = np.abs(null).max()
            refined.append((tuple(float(x / scale) for x in null), mask))
        else:
            refined.append((vec, mask))
    return refined


def max_squared_norm(vertices: VertexSet):
    """Exact maximum of sum(x_i^2) over vertices, with the first attaining vertex.

    Exact vertices are compared by one scalar each, |x|^2 / t^2 from the
    vertex's integer lift (t, x), the ray of (1, v); float vertices by their
    float dot product.
    """
    if not vertices.vertices:
        raise ValueError("empty vertex set")
    if isinstance(vertices.vertices[0][0], float):
        best = max(vertices.vertices, key=lambda v: dot(v, v))
    else:
        d = next(
            (x.d for v in vertices.vertices for x in v if isinstance(x, Quadratic)),
            None,
        )
        kernel = kernel_for(RATIONAL if d is None else quadratic_field(d))
        one = Fraction(1)
        keys = [
            kernel.squared_norm(kernel.vec_from_scalars((one,) + v))
            for v in vertices.vertices
        ]
        best = vertices.vertices[max(range(len(keys)), key=keys.__getitem__)]
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
