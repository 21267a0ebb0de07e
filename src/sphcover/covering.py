"""Covering radii from polar vertices, with certification and reporting.

For a finite origin-symmetric set A on the sphere of squared radius R^2,
whose convex hull has the origin interior, the covering radius r satisfies

    cos^2 r = 1 / (R^2 * max { |x|^2 : x vertex of P })

where P is the polytope cut out by <v, x> <= 1 over v in A.  When A is
invariant under coordinate permutations and global negation, P may be
intersected with the fundamental cone x1 >= 0 >= ... without changing the
maximum, which is what makes the large instances tractable.  All
certification happens on cos^2 r so exact backends never leave their field;
angles are rendered only for display.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath

from ._linalg import FLOAT_BLOCK_ENTRIES, kernel_for, row_blocks, row_keys
from ._linalg import lift as lift_table
from .configgen import (
    Configuration,
    ConfigurationError,
    builtin_configuration,
    config_to_float,
    validate,
)
from .polytope import (
    POLAR,
    Halfspace,
    HPolytope,
    VertexSet,
    enumerate_vertices,
    max_squared_norm,
    polar_hrep,
    symmetry_cone,
)
from .scalar import (
    Field,
    Scalar,
    Vector,
    dot,
    format_scalar,
    sign_of,
    to_decimal,
)

__all__ = [
    "BoundVerificationError",
    "CoveringReport",
    "RoundingUndecidedError",
    "SymmetryError",
    "ThresholdVerdict",
    "arccos_decimal",
    "covering_radius",
    "deep_hole_check",
    "report_to_dict",
    "reports_to_csv",
    "reports_to_json",
    "reports_to_text",
    "threshold_check",
    "verify_bounds",
]

logger = logging.getLogger(__name__)

INCONCLUSIVE_MARGIN = 1e-6  # float cos^2 margin below which a verdict is void
FLOAT_CHECK_EPS = 1e-9
ARCCOS_MAX_DPS = 4096  # working digits beyond which arccos_decimal gives up


class SymmetryError(ValueError):
    """The configuration lacks the symmetry required for cone reduction."""


class RoundingUndecidedError(ValueError):
    """An angle lies too close to a rounding boundary to be rounded within
    ``ARCCOS_MAX_DPS`` working digits."""


class BoundVerificationError(RuntimeError):
    """A built-in configuration failed its certification."""

    def __init__(self, dimension: int, reason: str):
        self.dimension = dimension
        self.reason = reason
        super().__init__(f"dimension {dimension}: {reason}")


@dataclass(frozen=True)
class ThresholdVerdict:
    passes: bool
    margin: float  # cos^2 r minus the threshold, as a float
    inconclusive: bool


def _threshold_cos2(n: int, field: Field) -> Scalar:
    if field.is_exact:
        return Fraction(n - 1, 2 * n)
    return (n - 1) / (2 * n)


def threshold_check(n: int, cos2: Scalar, field: Field) -> ThresholdVerdict:
    """Does cos^2 r clear (n-1)/(2n)?  Exact comparison on exact fields;
    the float field reports a margin and flags near-ties as inconclusive."""
    if n < 1:
        raise ValueError("threshold needs dimension >= 1")
    threshold = _threshold_cos2(n, field)
    if field.is_exact:
        passes = sign_of(cos2 - threshold) >= 0
        return ThresholdVerdict(passes, float(cos2 - threshold), False)
    margin = float(cos2) - threshold
    return ThresholdVerdict(margin >= 0, margin, abs(margin) < INCONCLUSIVE_MARGIN)


@dataclass(frozen=True)
class CoveringReport:
    dimension: int
    cardinality: int
    backend: Field
    cos2_radius: Scalar
    radius: str  # decimal rendering
    threshold_radius: str
    passes: bool
    inconclusive: bool
    margin_cos2: float
    xray_bound: int
    attaining_vertex: Vector
    wall_time: float
    used_symmetry: bool
    label: str | None = None

    @property
    def radius_float(self) -> float:
        return float(mpmath.acos(mpmath.sqrt(float(self.cos2_radius))))


def arccos_decimal(cos2: Scalar, digits: int = 5) -> str:
    """Correctly rounded decimal of arccos(sqrt(cos2)); ValueError when
    ``digits`` leave no room under ``ARCCOS_MAX_DPS`` working digits."""

    def rounded_at(dps: int) -> int:
        with mpmath.workdps(dps):
            if isinstance(cos2, Fraction):
                val = mpmath.mpf(cos2.numerator) / cos2.denominator
            elif isinstance(cos2, float):
                val = mpmath.mpf(cos2)
            else:  # quadratic a + b sqrt(d)
                val = (
                    mpmath.mpf(cos2.a.numerator) / cos2.a.denominator
                    + mpmath.mpf(cos2.b.numerator)
                    / cos2.b.denominator
                    * mpmath.sqrt(cos2.d)
                )
            angle = mpmath.acos(mpmath.sqrt(val))
            return int(mpmath.nint(angle * mpmath.mpf(10) ** digits))

    dps = digits + 15
    if dps > ARCCOS_MAX_DPS:
        raise ValueError(f"{digits} digits exceed {ARCCOS_MAX_DPS} working digits")
    q = rounded_at(dps)
    while q != rounded_at(2 * dps):  # near a rounding boundary; sharpen
        dps *= 2
        if dps > ARCCOS_MAX_DPS:
            raise RoundingUndecidedError(
                f"arccos(sqrt({cos2})) is not rounded to {digits} digits "
                f"within {ARCCOS_MAX_DPS} working digits"
            )
        q = rounded_at(dps)
    sign = "-" if q < 0 else ""
    q = abs(q)
    ip, fp = divmod(q, 10**digits)
    return f"{sign}{ip}.{fp:0{digits}d}" if digits else f"{sign}{q}"


def _orbit_representatives(config: Configuration) -> list | None:
    """The descending-sorted point patterns, in ascending order, or None
    when the points are not closed under negation and under every
    coordinate permutation.

    The patterns are read on the configuration's position matrix, whose
    entries are the ranks of the coordinates among its sorted values: each
    row sorted in descending order is keyed by ``_linalg.row_keys``, and a
    pattern whose key counts n! / prod(run!) points holds its whole
    permutation orbit, as the points are distinct.  On a table closed under
    negation rank i negates to rank top - i, so the negated pattern of a
    row r is top - r reversed.  Inside the fundamental cone the descending
    arrangement of a point dominates all other permutations of it
    (rearrangement), so one polar constraint per pattern suffices there;
    soundness is re-checked against every original point after enumeration.
    """
    import numpy as np

    if not config.negation_closed:
        return None
    values, index = config.table
    base, top = len(values), len(values) - 1
    patterns = np.sort(index, axis=1)[:, ::-1]
    keys, first, counts = np.unique(
        row_keys(patterns, base), return_index=True, return_counts=True
    )
    patterns = patterns[first]
    # negation is one-to-one on patterns: it maps them onto themselves when
    # their negations sort to the same keys
    if not np.array_equal(np.sort(row_keys(top - patterns[:, ::-1], base)), keys):
        return None
    for pattern, count in zip(patterns.tolist(), counts.tolist()):
        orbit = factorial(config.dimension)
        for run in Counter(pattern).values():
            orbit //= factorial(run)
        if count != orbit:
            return None
    return [tuple(map(values.__getitem__, p)) for p in patterns.tolist()]


def _certify_vertices(vertices: VertexSet, config: Configuration) -> None:
    """Every enumerated vertex must satisfy every original polar constraint.

    On exact backends the products of the configuration's lifted polar
    rows (scale, -p) with the rays of the vertices' lift (``VertexSet.lift``,
    which ``max_squared_norm`` reads too) are checked nonnegative as blocked
    integer matrix products.  The float backend bounds the inner products
    by 1 + FLOAT_CHECK_EPS, also a block of points at a time.
    """
    field = config.field
    lift = config.lift
    if not field.is_exact:
        vs = vertices.lift.a.T
        feasible = all(
            (lift.a[rows] @ vs).max() <= 1.0 + FLOAT_CHECK_EPS
            for rows in row_blocks(len(lift.a), vs.shape[1], FLOAT_BLOCK_ENTRIES)
        )
    else:
        kernel = kernel_for(field)
        rays = vertices.lift.rays(pairs=lift.b is not None)
        feasible = all(
            (kernel.signs(a, b) >= 0).all() for a, b in lift.polar_products(rays)
        )
    if not feasible:
        raise RuntimeError(
            "symmetry reduction produced an infeasible vertex; this is a bug"
        )


def covering_radius(
    config: Configuration,
    use_symmetry: bool = True,
    *,
    digits: int = 5,
) -> CoveringReport:
    """Covering radius of a configuration via its polar vertices.

    With ``use_symmetry`` the configuration must be invariant under all
    coordinate permutations and under global negation.  Enumeration then
    always runs on the fundamental cone with one polar constraint per orbit
    representative, and every enumerated vertex is certified against all
    original polar constraints.  Without it the full polar is enumerated.
    """
    start = time.perf_counter()
    report = validate(config)
    if not report.ok:
        raise ConfigurationError(f"invalid configuration: {report.failure}")
    representatives = _orbit_representatives(config) if use_symmetry else None
    if use_symmetry and representatives is None:
        raise SymmetryError(
            "configuration is not invariant under coordinate permutations "
            "and negation; rerun without symmetry"
        )

    n = config.dimension
    field = config.field
    if use_symmetry and n >= 2:
        halfspaces = symmetry_cone(n, field) + tuple(
            Halfspace(p, POLAR) for p in representatives
        )
    else:
        halfspaces = polar_hrep(config).halfspaces
        if len(halfspaces) > 1000:
            logger.warning(
                "enumerating %d halfspaces without reduction; this may take "
                "very long",
                len(halfspaces),
            )
    poly = HPolytope(n, halfspaces, field)
    logger.info(
        "enumerating vertices: n=%d, %d halfspaces (%s)",
        n,
        len(halfspaces),
        "symmetry cone" if use_symmetry else "full polar",
    )
    vertices = enumerate_vertices(poly)
    m_max, attaining = max_squared_norm(vertices)
    if use_symmetry:
        _certify_vertices(vertices, config)

    one = field.one
    cos2 = one / (config.norm_sq * m_max)
    verdict = threshold_check(n, cos2, field)
    elapsed = time.perf_counter() - start
    return CoveringReport(
        dimension=n,
        cardinality=config.cardinality,
        backend=field,
        cos2_radius=cos2,
        radius=arccos_decimal(cos2, digits),
        threshold_radius=arccos_decimal(_threshold_cos2(n, field), digits),
        passes=verdict.passes,
        inconclusive=verdict.inconclusive,
        margin_cos2=verdict.margin,
        xray_bound=config.cardinality // 2,
        attaining_vertex=attaining,
        wall_time=elapsed,
        used_symmetry=use_symmetry,
        label=config.label,
    )


def deep_hole_check(config: Configuration, report: CoveringReport) -> bool:
    """Confirm the attaining vertex is a genuine deepest hole.

    The vertex direction is compared against every configuration point: the
    largest inner product must reproduce cos^2 of the covering radius
    exactly (within 1e-9 on the float backend).  The inner products are
    taken on the configuration's lift.
    """
    import numpy as np

    field = config.field
    vec = report.attaining_vertex
    lift = config.lift
    norm = dot(vec, vec)
    # cos^2 of the hole angle is best^2 / (R^2 |x|^2); compare with cos^2 r
    if field.is_exact:
        kernel = kernel_for(field)
        ray = lift_table(vec, np.arange(len(vec))[None], field).rays()
        # the polar products scale*t - p.x of the ray (t, x) of vec are
        # scale*t*(1 - p.vec), least where p.vec is largest
        slacks = set()
        for a, b in lift.polar_products(ray):
            a = a[:, 0].tolist()
            slacks.update(a if b is None else zip(a, b[:, 0].tolist()))
        least = min(map(kernel.to_scalar, slacks))
        best = field.one - least / (lift.scale * kernel.to_scalar(ray.tolist()[0][0]))
        if sign_of(best) <= 0:
            return False
        return best * best == config.norm_sq * norm * report.cos2_radius
    best = float((lift.a @ np.array(vec, dtype=float)).max())
    if best <= 0:
        return False
    lhs = best * best / (float(config.norm_sq) * norm)
    return abs(lhs - float(report.cos2_radius)) <= FLOAT_CHECK_EPS


def verify_bounds(
    dims=None,
    backend: str | None = None,
    use_symmetry: bool = True,
    digits: int = 5,
) -> list:
    """Certify the built-in configurations for the requested dimensions.

    For each dimension this checks |A| < 2^n, that the covering radius
    clears arccos(sqrt((n-1)/(2n))) and that the attaining vertex is a deep
    hole, raising :class:`BoundVerificationError` at the first failure.
    """
    if dims is None:
        dims = range(5, 16)
    dims = sorted(set(dims))
    for n in dims:
        if not 5 <= n <= 15:
            raise ValueError(f"built-in certification covers 5..15, got {n}")
    if backend not in (None, "exact", "float"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "exact" and any(n >= 11 for n in dims):
        raise ValueError(
            "no exact field is implemented for dimensions 11..15; "
            "use the float backend there"
        )
    reports = []
    for n in dims:
        config = builtin_configuration(n)
        if backend == "float":
            config = config_to_float(config)
        report = covering_radius(config, use_symmetry, digits=digits)
        if config.cardinality >= 2**n:
            raise BoundVerificationError(
                n, f"cardinality {config.cardinality} is not below 2^{n}"
            )
        if report.inconclusive:
            raise BoundVerificationError(
                n, "threshold margin is inside the inconclusive band"
            )
        if not report.passes:
            raise BoundVerificationError(
                n, "covering radius exceeds the threshold"
            )
        if not deep_hole_check(config, report):
            raise BoundVerificationError(n, "attaining vertex is not a deep hole")
        logger.info(
            "n=%d certified: radius %s <= %s in %.2fs",
            n,
            report.radius,
            report.threshold_radius,
            report.wall_time,
        )
        reports.append(report)
    return reports


# -- serialization -------------------------------------------------------------


def report_to_dict(report: CoveringReport, include_timing: bool = False) -> dict:
    out = {
        "dimension": report.dimension,
        "cardinality": report.cardinality,
        "backend": report.backend.to_json(),
        "cos2_radius": format_scalar(report.cos2_radius),
        "cos2_radius_decimal": to_decimal(report.cos2_radius, 10),
        "radius": report.radius,
        "threshold_radius": report.threshold_radius,
        "passes": report.passes,
        "inconclusive": report.inconclusive,
        "margin_cos2": report.margin_cos2,
        "xray_bound": report.xray_bound,
        "attaining_vertex": [format_scalar(x) for x in report.attaining_vertex],
        "used_symmetry": report.used_symmetry,
        "label": report.label,
    }
    if include_timing:
        out["wall_time_s"] = round(report.wall_time, 3)
    return out


def reports_to_json(reports, include_timing: bool = False) -> str:
    return json.dumps(
        [report_to_dict(r, include_timing) for r in reports], indent=2
    )


def reports_to_csv(reports, include_timing: bool = False) -> str:
    buf = io.StringIO()
    fields = ["n", "cardinality", "radius", "threshold", "margin", "pass"]
    if include_timing:
        fields.append("wall_time_s")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for r in reports:
        radius = float(r.radius)
        threshold = float(r.threshold_radius)
        row = [
            r.dimension,
            r.cardinality,
            r.radius,
            r.threshold_radius,
            f"{threshold - radius:.5f}",
            "yes" if r.passes and not r.inconclusive else "no",
        ]
        if include_timing:
            row.append(f"{r.wall_time:.3f}")
        writer.writerow(row)
    return buf.getvalue()


def reports_to_text(reports, include_timing: bool = False) -> str:
    header = (
        f"{'n':>3} {'|A|':>6} {'2^n':>6} {'radius':>9} {'threshold':>9} "
        f"{'backend':>10} {'verdict':>12}"
    )
    if include_timing:
        header += f" {'time':>8}"
    lines = [header, "-" * len(header)]
    for r in reports:
        verdict = "pass" if r.passes else "FAIL"
        if r.inconclusive:
            verdict = "inconclusive"
        line = (
            f"{r.dimension:>3} {r.cardinality:>6} {2 ** r.dimension:>6} "
            f"{r.radius:>9} {r.threshold_radius:>9} "
            f"{str(r.backend):>10} {verdict:>12}"
        )
        if include_timing:
            line += f" {r.wall_time:>7.2f}s"
        lines.append(line)
    return "\n".join(lines) + "\n"
