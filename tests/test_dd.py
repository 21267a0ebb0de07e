"""The double description engine against recorded outputs, its adjacency
test against the rank of the common tight rows, and its first cone against
Gaussian elimination.

``data/dd-golden.json`` holds, for each system below and for ``full-8``, the
vertex count, the sha256 of ``repr(VertexSet)``, the ray count after every
cutting insertion (read from the engine's DEBUG record) and
``repr(max_squared_norm(...))``.
"""

import hashlib
import json
import logging
import random
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

from conftest import integer_rank, random_polar_instance

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


def test_full_polar_of_dimension_8_matches_golden(caplog, monkeypatch):
    """The n = 8 full polar (19,440 vertices from 240 rows), the largest
    DD the tests run; left out of ``dd_names`` so that the block-size
    variants below do not run it too.  With the default constants some
    of its insertions count block unions first: their first count takes
    fewer masks than they have plus rays."""
    counted = []  # per insertion: its plus rays, then each count's masks
    candidate_pairs, sharing_pairs = polytope._candidate_pairs, polytope._sharing_pairs

    def candidates(plus, *args):
        counted.append([len(plus)])
        return candidate_pairs(plus, *args)

    def sharing(plus, *args):
        counted[-1].append(len(plus))
        return sharing_pairs(plus, *args)

    monkeypatch.setattr(polytope, "_candidate_pairs", candidates)
    monkeypatch.setattr(polytope, "_sharing_pairs", sharing)
    want = json.loads(GOLDEN.read_text())["full-8"]
    assert dd_record(dd_system("full-8"), caplog) == want
    assert any(first < plus for plus, first in counted)


@pytest.mark.parametrize("entries", [1 << 6, 1 << 20], ids=["2^6", "2^20"])
@pytest.mark.parametrize("name", dd_names())
def test_rank_chunking_invariant(name, entries, caplog, monkeypatch):
    """``RANK_ENTRIES`` chunks only the float rays' stacked SVDs: a chunk
    of one matrix or of every ray of a block gives the same vertices as the
    default chunk."""
    monkeypatch.setattr(polytope, "RANK_ENTRIES", entries)
    want = json.loads(GOLDEN.read_text())[name]
    assert dd_record(dd_system(name), caplog) == want


def store_calls(monkeypatch) -> list:
    """(rows before, rows after, whether it regrew) of every cutting
    insertion's ``_room`` call on the mask store, filled in as the engine
    runs."""
    calls, room = [], polytope._room

    def recording(store, count, size, dtype):
        grown = room(store, count, size, dtype)
        if dtype == np.uint64:
            calls.append((count, size, len(grown) > len(store)))
        return grown

    monkeypatch.setattr(polytope, "_room", recording)
    return calls


@pytest.mark.parametrize(
    "name, paths", [("full-5", (19, 2, 4)), ("full-8", (209, 17, 6))]
)
def test_ray_store_appends_and_fills_holes(name, paths, caplog, monkeypatch):
    """The insertions that add more rays than they cut off append rows
    past the live ones, and those that add fewer move live rows into the
    rows of the rays cut off; both happen on the full polars of n = 5 and
    n = 8 (counted: more, fewer, as many), and the n = 8 store regrows
    from its first size.  The golden records still hold."""
    calls = store_calls(monkeypatch)
    want = json.loads(GOLDEN.read_text())[name]
    assert dd_record(dd_system(name), caplog) == want
    assert [size for _, size, _ in calls] == want["rays"]
    more = sum(size > count for count, size, _ in calls)
    fewer = sum(size < count for count, size, _ in calls)
    assert (more, fewer, len(calls) - more - fewer) == paths
    assert any(grew for *_, grew in calls) == (name == "full-8")


@pytest.mark.parametrize("name", dd_names())
def test_no_spare_rays(name, caplog, monkeypatch):
    """``SPARE_RAYS`` only sizes the ray store past the first cone: with
    no spare row the store regrows on the first insertion that adds rays,
    and the vertices and ray counts are the default's."""
    monkeypatch.setattr(polytope, "SPARE_RAYS", 0)
    calls = store_calls(monkeypatch)
    want = json.loads(GOLDEN.read_text())[name]
    assert dd_record(dd_system(name), caplog) == want
    assert next((grew for count, size, grew in calls if size > count), True)


@pytest.mark.parametrize("block", [1, 1 << 20], ids=["1", "2^20"])
@pytest.mark.parametrize("name", dd_names())
def test_pair_block_invariant(name, block, caplog, monkeypatch):
    """``PAIR_BLOCK`` decides which insertions count every plus x minus
    pair and which count block unions first, and sizes the blocks of those
    counts and of the containment tests: blocks of one test (every
    insertion with more than one plus ray takes the union step), or of
    every test of an insertion (none does), give the same vertices and
    ray counts as the default."""
    monkeypatch.setattr(polytope, "PAIR_BLOCK", block)
    want = json.loads(GOLDEN.read_text())[name]
    assert dd_record(dd_system(name), caplog) == want


@pytest.mark.parametrize("rays", [1, 1 << 20], ids=["1", "2^20"])
@pytest.mark.parametrize("name", dd_names())
def test_union_rays_invariant(name, rays, caplog, monkeypatch):
    """``UNION_RAYS`` sizes the blocks of plus masks whose unions are
    counted first: blocks of one mask, or of all of an insertion's plus
    masks, give the same vertices and ray counts as the default."""
    monkeypatch.setattr(polytope, "UNION_RAYS", rays)
    want = json.loads(GOLDEN.read_text())[name]
    assert dd_record(dd_system(name), caplog) == want


# -- candidate pairs ------------------------------------------------------------


def scan_pairs(plus, minus, need: int) -> list:
    """Every (plus index, minus index, common mask) of two packed masks
    sharing at least ``need`` rows, in (plus, minus) order, by a scan of
    every pair in Python."""
    found = []
    for i, a in enumerate(plus.tolist()):
        for j, b in enumerate(minus.tolist()):
            common = [x & y for x, y in zip(a, b)]
            if sum(map(int.bit_count, common)) >= need:
                found.append((i, j, common))
    return found


def listed_pairs(plus, minus, need: int, rows: int) -> list:
    """``_candidate_pairs`` as ``scan_pairs`` lists its result."""
    p, m, common = polytope._candidate_pairs(plus, minus, need, rows)
    assert p.dtype == m.dtype == np.intp and common.dtype == np.uint64
    assert common.shape == (len(p), plus.shape[1])
    return list(zip(p.tolist(), m.tolist(), common.tolist()))


def packed(bits) -> np.ndarray:
    """Boolean rows packed into uint64 words, row 0 the lowest bit."""
    words = -(-bits.shape[1] // 64)
    raw = np.packbits(bits, axis=1, bitorder="little")
    raw = np.pad(raw, ((0, 0), (0, 8 * words - raw.shape[1])))
    return raw.view("<u8").astype(np.uint64).reshape(len(bits), words)


@st.composite
def mask_sets(draw):
    """Plus and minus masks over 1 to 320 rows (1 to 5 words; counts in
    uint8 below 256 rows, uint16 from there on) and a need: masks of
    random bits, or clustered ones, each a few bits off one of a few
    centres, the plus masks of one centre consecutive."""
    rows = draw(st.integers(min_value=1, max_value=320))
    counts = draw(st.integers(min_value=0, max_value=70)), draw(
        st.integers(min_value=1, max_value=30)
    )
    density = draw(st.sampled_from([0.05, 0.3, 0.7]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        centres = rng.random((draw(st.integers(min_value=1, max_value=4)), rows)) < density
        sides = []
        for count in counts:
            picks = np.sort(rng.integers(0, len(centres), count))
            sides.append(centres[picks] ^ (rng.random((count, rows)) < 0.03))
    else:
        sides = [rng.random((count, rows)) < density for count in counts]
    plus, minus = map(packed, sides)
    shared = np.bitwise_count(plus[:, None] & minus[None]).sum(axis=2)
    need = draw(
        st.one_of(
            st.integers(min_value=0, max_value=rows),
            st.sampled_from(sorted(set(shared.ravel().tolist())) or [0]),
        )
    )
    return plus, minus, need, rows


@settings(max_examples=200, deadline=None)
@given(
    masks=mask_sets(),
    block=st.integers(min_value=1, max_value=2500),
    rays=st.sampled_from([1, 5, 16]),
)
def test_candidate_pairs_match_scan_of_every_pair(masks, block, rays):
    """Every pair sharing at least ``need`` rows is found, in (plus,
    minus) order, with its common mask, whether the insertion counts every
    pair (the pairs fit one ``PAIR_BLOCK``) or block unions first, and
    whatever the size of the last plus block."""
    plus, minus, need, rows = masks
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(polytope, "PAIR_BLOCK", block)
        monkeypatch.setattr(polytope, "UNION_RAYS", rays)
        assert listed_pairs(plus, minus, need, rows) == scan_pairs(plus, minus, need)


@pytest.mark.parametrize("name", dd_names())
def test_candidate_pairs_on_golden_systems_match_count_of_every_pair(name, monkeypatch):
    """Every ``_candidate_pairs`` call of a golden system, replayed with
    the default constants and with blocks of 256 tests, so that the
    larger insertions count block unions first, equals a count of every
    pair at once."""
    calls, candidate_pairs = [], polytope._candidate_pairs

    def recording(*args):
        calls.append(args)
        return candidate_pairs(*args)

    monkeypatch.setattr(polytope, "_candidate_pairs", recording)
    enumerate_vertices(dd_system(name))
    monkeypatch.setattr(polytope, "_candidate_pairs", candidate_pairs)
    for block in (polytope.PAIR_BLOCK, 1 << 8):
        monkeypatch.setattr(polytope, "PAIR_BLOCK", block)
        for plus, minus, need, rows in calls:
            shared = np.bitwise_count(plus[:, None] & minus[None]).sum(axis=2)
            p, m = np.nonzero(shared >= need)
            want = list(zip(p.tolist(), m.tolist(), (plus[p] & minus[m]).tolist()))
            assert listed_pairs(plus, minus, need, rows) == want


# -- adjacency ------------------------------------------------------------------


def quadratic_polar_instance(rng: random.Random) -> HPolytope:
    """Polar of a random origin-symmetric point set with coordinates
    a + b sqrt(2), a and b in -1..1, sometimes intersected with the
    fundamental cone; bounded, since the points span."""
    field = quadratic_field(2)
    n = rng.randint(2, 4)
    count = rng.randint(n, 7)
    points = set()
    while len(points) < 2 * count or integer_rank(points) < n:
        parts = [(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(n)]
        v = tuple(Quadratic(a, b, 2) for a, b in parts)
        if any(v):
            points.add(v)
            points.add(tuple(-x for x in v))
    halfspaces = [Halfspace(p, POLAR) for p in sorted(points)]
    if rng.random() < 0.5:
        halfspaces = list(symmetry_cone(n, field)) + halfspaces
    return HPolytope(n, tuple(halfspaces), field)


def reference_rank(rows, d) -> int:
    """Rank of kernel rows: by ``reference_independent`` on exact rows
    (d is 0 over Q), by singular values on float rows."""
    if rows.dtype == float:
        return int(np.linalg.matrix_rank(rows, rtol=1e-9)) if len(rows) else 0
    return sum(reference_independent(rows.tolist(), d or None))


def adjacency_calls(poly: HPolytope, monkeypatch) -> list:
    """The arguments of every ``_adjacent`` call while ``poly`` is
    enumerated (the masks and signs of the rays, the plus and minus ray
    of each candidate pair and its common mask), then its result."""
    calls, adjacent = [], polytope._adjacent

    def recording(masks, signs, p, m, common):
        got = adjacent(masks, signs, p, m, common)
        calls.append((masks.copy(), signs.copy(), p, m, common.copy(), got.copy()))
        return got

    monkeypatch.setattr(polytope, "_adjacent", recording)
    enumerate_vertices(poly)
    return calls


def check_adjacency(poly: HPolytope, monkeypatch) -> int:
    """Every candidate pair is accepted iff its common tight rows have rank
    n - 1 = dim - 2; the number accepted."""
    rows = polytope._homogenized_rows(poly, _linalg.kernel_for(poly.field))
    need = poly.dimension - 1
    ranks, accepted = {}, 0
    for *_, common, adjacent in adjacency_calls(poly, monkeypatch):
        index, counts = polytope._tight_indices(common, len(rows))
        for key, tight, count, got in zip(common, index, counts, adjacent.tolist()):
            key = key.tobytes()
            if key not in ranks:
                ranks[key] = reference_rank(rows[tight[:count]], poly.field.d)
            assert got == (ranks[key] == need)
            accepted += got
    return accepted


@pytest.mark.parametrize("name", dd_names())
def test_adjacency_matches_rank_of_golden_systems(name, monkeypatch):
    assert check_adjacency(dd_system(name), monkeypatch)


@pytest.mark.parametrize("quadratic", [False, True], ids=["Q", "d2"])
@pytest.mark.parametrize("seed", range(12))
def test_adjacency_matches_rank_of_random_instances(seed, quadratic, monkeypatch):
    rng = random.Random(seed)
    draw = quadratic_polar_instance if quadratic else random_polar_instance
    check_adjacency(draw(rng), monkeypatch)


def third_rays(call) -> list:
    """For each candidate pair of an ``_adjacent`` call, the signs on the
    inserted row of every ray whose mask contains the pair's common mask,
    by a scan of every mask, the pair's own two rays included."""
    masks, signs, _, _, common, _ = call
    return [signs[((masks & s) == s).all(axis=1)].tolist() for s in common]


def check_third_rays(poly: HPolytope, monkeypatch) -> None:
    """Each candidate pair is accepted iff exactly two masks contain its
    common mask."""
    for call in adjacency_calls(poly, monkeypatch):
        assert call[-1].tolist() == [len(c) == 2 for c in third_rays(call)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), quadratic=st.booleans())
def test_adjacency_matches_scan_of_every_ray(seed, quadratic):
    draw = quadratic_polar_instance if quadratic else random_polar_instance
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_third_rays(draw(random.Random(seed)), monkeypatch)


@pytest.mark.parametrize("name", dd_names())
def test_adjacency_matches_scan_of_every_ray_on_golden_systems(name, monkeypatch):
    check_third_rays(dd_system(name), monkeypatch)


@pytest.mark.parametrize("name", ["full-5", "cone-9-exact", "cone-13-float"])
def test_adjacency_rejects_candidates(name, monkeypatch):
    """Some candidate pairs share n - 1 rows of lower rank, so the checks
    above see rejected pairs over Q, Q(sqrt 2) and floats."""
    calls = adjacency_calls(dd_system(name), monkeypatch)
    assert not all(call[-1].all() for call in calls)


@pytest.mark.parametrize(
    "name, alone",
    [("full-5", {0, 1}), ("cone-9-exact", {-1, 1}), ("cone-12-float", {-1, 0, 1})],
)
def test_third_rays_of_one_kind_reject_pairs(name, alone, monkeypatch):
    """Some candidate pairs are rejected only by rays tight on the inserted
    row (0), only by other minus rays (-1) or only by other plus rays (1),
    so that each of ``_adjacent``'s tests decides some pair alone."""
    kinds = set()
    for call in adjacency_calls(dd_system(name), monkeypatch):
        for signs in third_rays(call):
            # the pair's own rays are one plus and one minus ray
            signs.remove(1)
            signs.remove(-1)
            if len(set(signs)) == 1:
                kinds.add(signs[0])
    assert alone <= kinds


def one_dimensional(field, s) -> HPolytope:
    """s x <= 1, -s x <= 1, 2 s x <= 1, -3 s x <= 1: n = 1, so candidate
    pairs may share no row."""
    return HPolytope(
        1, tuple(Halfspace((s * c,), POLAR) for c in (1, -1, 2, -3)), field
    )


@pytest.mark.parametrize(
    "field, s, want",
    [
        (RATIONAL, Fraction(1), "((Fraction(-1, 3),), (Fraction(1, 2),))"),
        (
            quadratic_field(2),
            Quadratic(1, 1, 2),
            "((Quadratic(Fraction(1, 3), Fraction(-1, 3), d=2),), "
            "(Quadratic(Fraction(-1, 2), Fraction(1, 2), d=2),))",
        ),
        (FLOAT, 1.0, "((-0.33333333333333337,), (0.5000000000000002,))"),
    ],
    ids=["Q", "d2", "float"],
)
def test_one_dimensional_system(field, s, want, monkeypatch):
    """An empty common mask lies in every mask, of the rays tight on the
    inserted row and of the other pairs that share a ray: the interval is
    [-1/(3s), 1/(2s)], cut from the first cone of rows 0 and 1."""
    vertices = enumerate_vertices(one_dimensional(field, s))
    assert repr(vertices.vertices) == want
    assert vertices.tight_sets == ((3,), (2,))
    check_adjacency(one_dimensional(field, s), monkeypatch)
    check_third_rays(one_dimensional(field, s), monkeypatch)


# -- first cone -----------------------------------------------------------------

small = st.integers(min_value=-3, max_value=3)


@st.composite
def planted_rows(draw, d):
    """Integer rows in the kernel's form (pairs (a, b) for a + b sqrt(d)
    when d is given), in random order: a few random rows, rows that are
    Q(sqrt d)-combinations of them, and zero rows."""
    width = draw(st.integers(min_value=1, max_value=6))
    height = draw(st.integers(min_value=1, max_value=8))
    entry = small if d is None else st.tuples(small, small)
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
    return draw(st.permutations(rows))


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
def test_first_cone_basis_matches_gaussian_elimination(d, data):
    """The first cone picks a row where the rank of the rows so far grows;
    ray j is positive on pick j and tight on the others, and the lineality
    left is independent and tight on every row."""
    kernel = _linalg.kernel_for(RATIONAL if d is None else quadratic_field(d))
    rows = [tuple(r) for r in data.draw(planted_rows(d))]
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


def test_first_cone_reads_a_zero_row_after_large_entries():
    # the first row leaves the lineality (-1, 2^70); the zero row's products
    # are all zero, and the stack must still not be cast to int64
    kernel = _linalg.kernel_for(RATIONAL)
    rows = np.array([(2**70, 1), (0, 0), (1, 0)], dtype=object)
    picks, _, lineality = kernel.first_cone(rows, 2)
    assert picks == [0, 2] and not len(lineality)


# -- the Q(sqrt d) normal form --------------------------------------------------

# entries near 2^62 take the normal form to Python ints
near_2_62 = st.builds(
    lambda k, sign: sign * (2**62 + k),
    st.integers(min_value=-8, max_value=8),
    st.sampled_from([1, -1]),
)


@st.composite
def field_stacks(draw, d):
    """Nonzero integer vectors of one width, pairs (a, b) for a + b sqrt(d),
    some entries near 2^62, and one positive field factor per vector."""
    width = draw(st.integers(min_value=1, max_value=4))
    part = st.one_of(small, small, near_2_62) if draw(st.booleans()) else small
    vector = st.lists(st.tuples(part, part), min_size=width, max_size=width)
    vectors = draw(
        st.lists(vector.filter(lambda v: any(map(any, v))), min_size=1, max_size=4)
    )
    factor = st.tuples(small, small).filter(lambda x: Quadratic(*x, d) > 0)
    factors = draw(st.lists(factor, min_size=len(vectors), max_size=len(vectors)))
    return vectors, factors


def normal_form(kernel, vectors):
    """``normal_form`` of integer vectors on each one's first nonzero entry,
    int64 when every entry fits, as lists; in Python ints exactly when its
    bound (1 + d) max|s| max(max|s|, max|v|), s the first entries, does
    not fit int64."""
    top = max(abs(x) for v in vectors for pair in v for x in pair)
    stack = np.array(vectors, dtype=np.int64 if top < 2**63 else object)
    lead = [next(x for x in v if any(x)) for v in vectors]
    got = kernel.normal_form(stack, np.array(lead, dtype=stack.dtype))
    lead_top = max(abs(x) for pair in lead for x in pair)
    bound = (1 + kernel.d) * lead_top * max(lead_top, top)
    assert (got.dtype == object) == (bound >= 2**62)
    return got.tolist()


@pytest.mark.parametrize("d", [2, 5, 6], ids=["d2", "d5", "d6"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_normal_form_is_one_positive_multiple(d, data):
    """The normal form of a vector is a positive field multiple of it whose
    first nonzero entry is rational; it is its own normal form, and every
    positive field multiple of the vector has the same one."""
    kernel = _linalg.kernel_for(quadratic_field(d))
    vectors, factors = data.draw(field_stacks(d))
    got = normal_form(kernel, vectors)
    for v, w in zip(vectors, got):
        v, w = [Quadratic(*x, d) for x in v], [Quadratic(*x, d) for x in w]
        assert all(x * z == y * u for x, y in zip(v, w) for u, z in zip(v, w))
        lead = next(j for j, x in enumerate(v) if x != 0)
        assert sign_of(w[lead]) == sign_of(v[lead]) and w[lead].b == 0
    assert normal_form(kernel, got) == got
    scaled = [combination(f, v, (0, 0), v, d) for v, f in zip(vectors, factors)]
    assert normal_form(kernel, scaled) == got


# the systems of Q(sqrt d) and their distinct coordinate values
QUADRATIC_SYSTEMS = [
    ("cone-6-exact", 22),
    ("cone-9-exact", 52),
    ("cone-10-exact", 59),
    ("full-6", 11),
]


@pytest.mark.parametrize("name, values", QUADRATIC_SYSTEMS)
def test_quadratic_rays_stay_in_int64(name, values, monkeypatch):
    """Combined rays in normal form keep entries of the size of the minors
    that fix them, so the final rays fit int64, and each distinct
    coordinate value reaches ``quotient`` once."""
    kernel = _linalg._QuadraticKernel
    vertex_table, quotient = kernel.vertex_table, kernel.quotient
    tops, calls = [], []

    def table(self, rays):
        tops.append(_linalg._top(rays))
        return vertex_table(self, rays)

    def value(self, *row):
        calls.append(row)
        return quotient(self, *row)

    monkeypatch.setattr(kernel, "vertex_table", table)
    monkeypatch.setattr(kernel, "quotient", value)
    got = enumerate_vertices(dd_system(name))
    assert len(tops) == 1 and tops[0] < 2**63
    assert len(calls) == len(got.table[0]) == values


# -- float refinement -----------------------------------------------------------


def reference_refine(tight_rows, vec):
    """One float ray re-solved from its tight rows by its own SVD, as the
    enumerator did ray by ray before the stacked SVDs."""
    _, svals, vt = np.linalg.svd(tight_rows)
    rank_est = int((svals > polytope.RANK_RTOL * svals[0]).sum()) if len(svals) else 0
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
    always its combined rays; entries near 2^40 take the insertions of
    polar rows out of int64.
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
