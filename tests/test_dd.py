"""The double description engine against recorded outputs, and its batched
ranks and first cone against Gaussian elimination.

``data/dd-golden.json`` holds, for each system below, the vertex count, the
sha256 of ``repr(VertexSet)``, the ray count after every cutting insertion
(read from the engine's DEBUG record) and ``repr(max_squared_norm(...))``.
"""

import hashlib
import json
import logging
from fractions import Fraction
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphcover import _linalg, polytope
from sphcover.configgen import (
    builtin_configuration,
    builtin_dimensions,
    config_to_float,
)
from sphcover.covering import _orbit_representatives
from sphcover.polytope import (
    POLAR,
    Halfspace,
    HPolytope,
    enumerate_vertices,
    max_squared_norm,
    polar_hrep,
    symmetry_cone,
)
from sphcover.scalar import FLOAT, RATIONAL, Quadratic, quadratic_field, sign_of

GOLDEN = Path(__file__).parent / "data" / "dd-golden.json"
INSERTED = "inserted %d/%d halfspaces, %d rays"


def cone_system(config) -> HPolytope:
    """The fundamental cone plus one polar row per orbit representative."""
    n, field = config.dimension, config.field
    reps = _orbit_representatives(config)
    return HPolytope(
        n, symmetry_cone(n, field) + tuple(Halfspace(p, POLAR) for p in reps), field
    )


def dd_system(name: str) -> HPolytope:
    """``full-<n>``, ``cone-<n>-exact`` or ``cone-<n>-float`` of the built-in."""
    kind, n, *field = name.split("-")
    config = builtin_configuration(int(n))
    if kind == "full":
        return polar_hrep(config)
    return cone_system(config_to_float(config) if field == ["float"] else config)


def dd_names() -> list:
    names = ["full-5", "full-6"]
    for n in builtin_dimensions():
        if builtin_configuration(n).field.is_exact:
            names.append(f"cone-{n}-exact")
        names.append(f"cone-{n}-float")
    return names


def dd_record(poly: HPolytope, caplog) -> dict:
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="sphcover.polytope"):
        vertices = enumerate_vertices(poly)
    records = [r for r in caplog.records if r.msg == INSERTED]
    for r in records:
        assert r.getMessage() == "inserted %d/%d halfspaces, %d rays" % r.args
        assert all(type(x) is int for x in r.args)
    return {
        "vertices": len(vertices.vertices),
        "sha256": hashlib.sha256(repr(vertices).encode()).hexdigest(),
        "rays": [r.args[2] for r in records],
        "max_norm": repr(max_squared_norm(vertices)),
    }


@pytest.mark.parametrize("name", dd_names())
def test_matches_golden(name, caplog):
    want = json.loads(GOLDEN.read_text())[name]
    assert dd_record(dd_system(name), caplog) == want


@pytest.mark.parametrize("entries", [1 << 6, 1 << 20], ids=["2^6", "2^20"])
@pytest.mark.parametrize("name", dd_names())
def test_rank_chunking_invariant(name, entries, caplog, monkeypatch):
    """A chunk of one matrix or of every candidate of an insertion gives
    the same vertices as the default chunk.  ``RANK_ENTRIES`` also chunks
    the float rays' stacked SVDs, so a chunk of one matrix gives the same
    float vertices too."""
    monkeypatch.setattr(polytope, "RANK_ENTRIES", entries)
    want = json.loads(GOLDEN.read_text())[name]
    assert dd_record(dd_system(name), caplog) == want


# -- batched rank ---------------------------------------------------------------

small = st.integers(min_value=-3, max_value=3)


@st.composite
def planted_stacks(draw, d):
    """A stack of integer matrices in the kernel's form (pairs (a, b) for
    a + b sqrt(d) when d is given): a few random rows, rows that are
    Q(sqrt d)-combinations of them, and zero rows padding every matrix to
    the same height."""
    width = draw(st.integers(min_value=1, max_value=6))
    height = draw(st.integers(min_value=1, max_value=8))
    entry = small if d is None else st.tuples(small, small)
    matrices = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        rows = [
            draw(st.lists(entry, min_size=width, max_size=width))
            for _ in range(draw(st.integers(min_value=0, max_value=height)))
        ]
        for _ in range(height - len(rows)):
            if rows and draw(st.booleans()):
                u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
                rows.append(combination(draw(entry), u, draw(entry), v, d))
            else:
                rows.append([0 if d is None else (0, 0)] * width)
        matrices.append(draw(st.permutations(rows)))
    return matrices


def combination(s, u, t, v, d):
    """s u + t v, entrywise, over Z or Z[sqrt d]."""
    if d is None:
        return [s * x + t * y for x, y in zip(u, v)]

    def mul(p, x):
        return (p[0] * x[0] + d * p[1] * x[1], p[0] * x[1] + p[1] * x[0])

    return [tuple(map(sum, zip(mul(s, x), mul(t, y)))) for x, y in zip(u, v)]


def reference_independent(rows, d) -> list:
    """Whether each integer row (pairs (a, b) for a + b sqrt(d) when d is
    given) is independent of the rows before it, by Gaussian elimination on
    Fraction or Quadratic values."""
    basis, independent = [], []  # (pivot column, row with 1 there)
    for row in rows:
        row = [Fraction(x) if d is None else Quadratic(*x, d) for x in row]
        for col, b in basis:
            f = row[col]
            if f != 0:
                row = [x - f * y for x, y in zip(row, b)]
        col = next((j for j, x in enumerate(row) if x != 0), None)
        independent.append(col is not None)
        if col is not None:
            basis.append((col, [x / row[col] for x in row]))
    return independent


def reference_sign(u, v, d) -> int:
    """The sign of the product of two integer rows, as
    ``reference_independent`` reads them."""
    if d is None:
        return sign_of(sum(map(mul, u, v)))
    return sign_of(sum(Quadratic(*x, d) * Quadratic(*y, d) for x, y in zip(u, v)))


@pytest.mark.parametrize("d", [None, 2, 3, 5, 6], ids=["Q", "d2", "d3", "d5", "d6"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_rank_and_basis_match_gaussian_elimination(d, data):
    kernel = _linalg.kernel_for(RATIONAL if d is None else quadratic_field(d))
    matrices = data.draw(planted_stacks(d))
    want = [sum(reference_independent(m, d)) for m in matrices]
    # times 2^20 + 1 the entries fit int64 but later elimination products
    # do not; the rank is the same
    scale = data.draw(st.sampled_from([1, 2**20 + 1]))
    exact = np.array(matrices, dtype=object) * scale
    # the float kernel ranks the same stacks as float64 values a + b sqrt(d)
    floats = exact.astype(float)
    if d is not None:
        floats = floats[..., 0] + np.sqrt(d) * floats[..., 1]
    for stack, ranks in (
        (exact.astype(np.int64), kernel.ranks),
        (exact, kernel.ranks),
        (floats, _linalg.kernel_for(FLOAT).ranks),
    ):
        assert ranks(stack).tolist() == want
        k = data.draw(st.integers(min_value=0, max_value=6))
        assert ranks(stack, k).tolist() == [min(r, k) for r in want]
    # the first cone picks a row where the rank of the rows so far grows
    rows = [tuple(r) for r in matrices[0]]
    width = len(rows[0])
    picks, rays, lineality = kernel.first_cone(iter(np.array(rows)), width)
    assert picks == [i for i, x in enumerate(reference_independent(rows, d)) if x]
    rays = rays.tolist()
    for j, ray in enumerate(rays):
        signs = [reference_sign(rows[i], ray, d) for i in picks]
        assert signs == [int(i == j) for i in range(len(picks))]
    lineality = lineality.tolist()
    assert len(lineality) == width - len(picks)
    assert all(reference_independent(lineality, d))
    assert all(reference_sign(r, v, d) == 0 for r in rows for v in lineality)


@pytest.mark.parametrize(
    "field, entry", [(RATIONAL, ()), (quadratic_field(2), (2,)), (FLOAT, ())],
    ids=["Q", "d2", "float"],
)
def test_empty_tight_sets_have_rank_zero(field, entry):
    kernel = _linalg.kernel_for(field)
    dtype = float if field is FLOAT else object
    stack = np.zeros((3, 0, 4) + entry, dtype=dtype)
    assert kernel.ranks(stack).tolist() == [0, 0, 0]
    assert kernel.ranks(stack, 2).tolist() == [0, 0, 0]


def test_first_cone_reads_a_zero_row_after_large_entries():
    # the first row leaves the lineality (-1, 2^70); the zero row's products
    # are all zero, and the stack must still not be cast to int64
    kernel = _linalg.kernel_for(RATIONAL)
    rows = np.array([(2**70, 1), (0, 0), (1, 0)], dtype=object)
    picks, _, lineality = kernel.first_cone(rows, 2)
    assert picks == [0, 2] and not len(lineality)


# -- float refinement -----------------------------------------------------------


def reference_refine(tight_rows, vec):
    """One float ray re-solved from its tight rows by its own SVD, as the
    enumerator did ray by ray before the stacked SVDs."""
    _, svals, vt = np.linalg.svd(tight_rows)
    rank_est = int((svals > _linalg.RANK_RTOL * svals[0]).sum()) if len(svals) else 0
    null = vt[-1]
    if rank_est != len(vec) - 1 or abs(null[0]) < 1e-12:
        return vec
    null = null / null[0]
    drift = np.abs(np.asarray(vec) / vec[0] - null).max()
    if drift < 1e-5:
        scale = np.abs(null).max()
        return tuple(float(x / scale) for x in null)
    return vec


def planted_refinement(rng, dim: int):
    """Rays, their tight rows and whether the null vector should replace
    each: one ray of every case and tight-set size.  Each case plants a null
    vector y and tight rows orthogonal to it, and the ray is y, scaled to
    unit max-norm, plus a perturbation."""
    cases = []
    for k in range(dim - 2, dim + 3):
        for case in ("solved", "deficient", "flat", "drift"):
            y = rng.uniform(0.5, 1.0, dim) * rng.choice([-1.0, 1.0], dim)
            y[0] = 1e-14 if case == "flat" else abs(y[0])
            # a basis of the complement of y, orthonormal by QR
            q = np.linalg.qr(np.column_stack((y, rng.standard_normal((dim, dim - 1)))))[0]
            basis = q[:, 1:].T
            if case == "deficient":
                basis = basis[:-1]
            rows = rng.standard_normal((k, len(basis))) @ basis
            ray = y / np.abs(y).max()
            ray[0] = max(ray[0], 0.25)
            ray += rng.uniform(-1, 1, dim) * (1e-3 if case == "drift" else 1e-9)
            solved = case == "solved" and k >= dim - 1
            cases.append((ray / np.abs(ray).max(), rows, solved))
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


@pytest.mark.parametrize("entries", [1 << 6, 1 << 13, 1 << 20], ids=["2^6", "2^13", "2^20"])
@pytest.mark.parametrize("seed", range(4))
def test_float_refinement_matches_per_ray_svd(seed, entries, monkeypatch):
    """The stacked SVDs give, for every ray, the vector of the ray's own
    SVD, equal by repr: the null vector where the tight rows have rank
    dim - 1, its first entry is not near zero and the ray has not drifted
    from it, else the ray itself.  Tight-set sizes are mixed in one call
    and chunks hold from one matrix to all of them."""
    monkeypatch.setattr(polytope, "RANK_ENTRIES", entries)
    rng = np.random.default_rng(seed)
    dim = 4 + seed
    cases = planted_refinement(rng, dim)
    rays = np.array([ray for ray, _, _ in cases])
    # every row of every case, then the zero row that pads the index
    tight_rows = np.concatenate([rows for _, rows, _ in cases] + [np.zeros((1, dim))])
    counts = np.array([len(rows) for _, rows, _ in cases])
    index = np.full((len(cases), counts.max()), len(tight_rows) - 1)
    starts = np.cumsum(counts) - counts
    for i, (start, count) in enumerate(zip(starts, counts)):
        index[i, :count] = np.arange(start, start + count)
    got = polytope._refine_float_rays(tight_rows, rays, index, counts)
    for i, (ray, rows, solved) in enumerate(cases):
        want = reference_refine(rows, tuple(ray.tolist()))
        assert repr(tuple(got[i].tolist())) == repr(want)
        assert (want != tuple(ray.tolist())) == solved


def test_float_vertices_closer_than_dedup_eps_merge():
    """Cutting a corner of the square |x|, |y| <= 1 by x + y <= 2 - 3e-9
    makes two vertices 3e-9 apart, one ``DEDUP_EPS`` grid point: the first
    ray in (ray, mask) order is kept, with its own tight set."""
    h = 3e-9
    rows = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1 / (2 - h),) * 2]
    vertices = enumerate_vertices(
        HPolytope(2, tuple(Halfspace(r, POLAR) for r in rows), FLOAT)
    )
    assert repr(vertices.vertices) == (
        "((-1.0, -0.9999999999999997), (-1.0, 1.0), "
        "(0.999999997, 1.0000000000000002), (1.0, -0.9999999999999997))"
    )
    assert vertices.tight_sets == ((2, 3), (1, 2), (1, 4), (0, 3))


# -- the Python-int path --------------------------------------------------------


@pytest.mark.parametrize("name", ["full-5", "full-6", "cone-7-exact"])
def test_python_ints_give_the_same_vertices(name, monkeypatch):
    poly = dd_system(name)
    want = enumerate_vertices(poly)
    chosen = []
    monkeypatch.setattr(
        _linalg, "_int_dtype", lambda bound: chosen.append(bound) or object
    )
    got = enumerate_vertices(poly)
    assert chosen and repr(got) == repr(want)


S = 2**40 + 1


def scaled(poly: HPolytope, s) -> HPolytope:
    """Every polar row's point multiplied by s > 0: the vertices shrink by
    the factor s and keep their order and tight sets."""
    return HPolytope(
        poly.dimension,
        tuple(
            Halfspace(tuple(s * x for x in hs.normal), POLAR)
            if hs.kind == POLAR
            else hs
            for hs in poly.halfspaces
        ),
        poly.field,
    )


@pytest.mark.parametrize(
    "name, s, want",
    [
        ("full-5", Fraction(2**20 + 1), {np.int64, object}),
        ("full-5", Fraction(S), {object}),
        ("cone-7-exact", Fraction(S, 3), {np.int64, object}),
        ("cone-6-exact", Quadratic(S, 2**39, 6), {object}),
    ],
    ids=["full-5-2^20", "full-5", "cone-7", "cone-6"],
)
def test_scaled_system_matches_known_vertices(name, s, want, dtypes):
    """Entries near 2^20 keep the products of an insertion in int64 but not
    always its combined rays; entries near 2^40 take the rank test and the
    insertions of polar rows out of int64.
    The vertices of the unscaled system are pinned by the golden file."""
    known = enumerate_vertices(dd_system(name))
    poly = scaled(dd_system(name), s)
    dtypes.clear()
    got = enumerate_vertices(poly)
    assert set(dtypes) == want
    assert got.tight_sets == known.tight_sets
    assert got.vertices == tuple(tuple(x / s for x in v) for v in known.vertices)


def test_float_products_are_dot_products():
    """The float kernel's batched products round as a Python sum of the
    entry products rounds, so no sign decision moves."""
    kernel = _linalg.kernel_for(FLOAT)
    rng = np.random.default_rng(7)
    rays = rng.standard_normal((200, 9))
    row = tuple(rng.standard_normal(9).tolist())
    _, products, signs = kernel.classify(rays, row)
    want = [sum(map(mul, row, ray)) for ray in rays.tolist()]
    assert products.tolist() == want
    eps = _linalg.ZERO_EPS
    assert signs.tolist() == [(x > eps) - (x < -eps) for x in want]
