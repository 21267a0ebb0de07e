import math
import random
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphcover import _linalg, polytope
from sphcover._linalg import kernel_for, value_table
from sphcover.configgen import (
    SubsetSigns,
    builtin_configuration,
    config_to_float,
    make_configuration,
)
from sphcover.oracle import brute_force_vertices
from sphcover.polytope import (
    CONE,
    POLAR,
    Halfspace,
    HPolytope,
    Unbounded,
    VertexSet,
    dump_hpolytope,
    enumerate_vertices,
    load_hpolytope,
    max_squared_norm,
    polar_hrep,
    symmetry_cone,
)
from sphcover.scalar import FLOAT, Quadratic, RATIONAL, dot, quadratic_field, sign_of

F = Fraction


def frac_vec(*vals):
    return tuple(F(v) for v in vals)


def cross_polytope_config(n):
    return make_configuration(n, RATIONAL, [SubsetSigns(1, value=1)])


def cube_hrep(n):
    halfspaces = []
    for i in range(n):
        for s in (1, -1):
            halfspaces.append(
                Halfspace(tuple(F(s if j == i else 0) for j in range(n)), POLAR)
            )
    return HPolytope(n, tuple(halfspaces), RATIONAL)


class TestBasics:
    def test_square_polar_of_cross(self):
        P = polar_hrep(cross_polytope_config(2))
        V = enumerate_vertices(P)
        assert set(V.vertices) == {
            frac_vec(1, 1),
            frac_vec(1, -1),
            frac_vec(-1, 1),
            frac_vec(-1, -1),
        }

    def test_cube_vertices_and_tight_sets(self):
        V = enumerate_vertices(cube_hrep(3))
        assert len(V.vertices) == 8
        assert all(len(t) == 3 for t in V.tight_sets)
        m, vec = max_squared_norm(V)
        assert m == F(3)

    def test_tight_sets_index_the_given_halfspaces(self):
        P = cube_hrep(2)
        V = enumerate_vertices(P)
        for vec, tight in zip(V.vertices, V.tight_sets):
            for i in tight:
                hs = P.halfspaces[i]
                assert sum(a * b for a, b in zip(hs.normal, vec)) == F(1)

    def test_degenerate_vertex_has_larger_tight_set(self):
        # cube with a plane through the corner (1,1,1): x+y+z <= 3
        P = cube_hrep(3)
        extra = Halfspace(
            (F(1, 3), F(1, 3), F(1, 3)), POLAR
        )  # <(1,1,1)/3, x> <= 1
        P2 = HPolytope(3, P.halfspaces + (extra,), RATIONAL)
        V = enumerate_vertices(P2)
        assert len(V.vertices) == 8
        sizes = {vec: len(t) for vec, t in zip(V.vertices, V.tight_sets)}
        assert sizes[frac_vec(1, 1, 1)] == 4
        corner_tights = dict(zip(V.vertices, V.tight_sets))[frac_vec(1, 1, 1)]
        assert integer_rank([P2.halfspaces[i].normal for i in corner_tights]) == 3

    def test_vertices_sorted_and_distinct(self):
        V = enumerate_vertices(cube_hrep(4))
        assert list(V.vertices) == sorted(set(V.vertices))


class TestSymmetryCone:
    def test_rows_n3(self):
        rows = symmetry_cone(3, RATIONAL)
        assert [hs.normal for hs in rows] == [
            frac_vec(1, 0, 0),
            frac_vec(1, -1, 0),
            frac_vec(0, 1, -1),
        ]
        assert all(hs.kind == CONE for hs in rows)

    def test_row_count(self):
        for n in (2, 5, 9):
            assert len(symmetry_cone(n, RATIONAL)) == n

    def test_n2(self):
        rows = symmetry_cone(2, RATIONAL)
        assert [hs.normal for hs in rows] == [frac_vec(1, 0), frac_vec(1, -1)]

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            symmetry_cone(1, RATIONAL)


class TestUnbounded:
    def test_open_square_has_recession(self):
        # drop one side of the square
        P = cube_hrep(2)
        P = HPolytope(2, P.halfspaces[:3], RATIONAL)
        with pytest.raises(Unbounded):
            enumerate_vertices(P)
        # the normals +-s e1 and s e2 leave one ray with t = 0 after every
        # insertion; its direction is read from the kernel's ray
        cases = [
            (RATIONAL, F(1), "(0, -1)"),
            (quadratic_field(2), Quadratic(1, 1, 2), "(0, 1-1*sqrt(2))"),
            (FLOAT, 1.0, "(-0.0, -1.0)"),
        ]
        for field, s, direction in cases:
            zero = field.zero
            normals = [(s, zero), (-s, zero), (zero, s)]
            hs = tuple(Halfspace(v, POLAR) for v in normals)
            with pytest.raises(Unbounded) as err:
                enumerate_vertices(HPolytope(2, hs, field))
            assert str(err.value) == f"polyhedron is unbounded along {direction}"

    def test_recession_ray_of_an_insertion(self):
        # the first cone takes the normals s (1, 1) and u (1, -1), so its
        # recession rays run along (-1, -1) and (-1, 1); inserting u (0, 1)
        # combines them into the one along (-1, 0), which -s (0, 1) keeps.
        # That combined ray is reported in its normal form: a positive
        # multiple whose first nonzero coordinate is rational
        field = quadratic_field(2)
        s, u = Quadratic(1, 1, 2), Quadratic(3, -2, 2)
        zero = field.zero
        normals = [(s, s), (u, -u), (zero, u), (zero, -s)]
        hs = tuple(Halfspace(v, POLAR) for v in normals)
        with pytest.raises(Unbounded) as err:
            enumerate_vertices(HPolytope(2, hs, field))
        assert str(err.value) == "polyhedron is unbounded along (-1, 0)"
        assert err.value.direction == (-1, 0)
        assert all(isinstance(x, F) for x in err.value.direction)

    @pytest.mark.parametrize(
        "field, s",
        [(RATIONAL, F(1)), (quadratic_field(2), Quadratic(1, 1, 2)), (FLOAT, 1.0)],
        ids=["Q", "Q(sqrt2)", "float"],
    )
    def test_rank_deficient_polar(self, field, s):
        # all normals orthogonal to (1, 1, -1): lineality along it
        zero = field.zero
        normals = [(s, -s, zero), (zero, s, s)]
        hs = tuple(
            Halfspace(tuple(sgn * x for x in v), POLAR)
            for v in normals
            for sgn in (1, -1)
        )
        with pytest.raises(Unbounded) as err:
            enumerate_vertices(HPolytope(3, hs, field))
        direction = err.value.direction
        assert any(sign_of(x) != 0 for x in direction)
        for v in normals:
            if field.is_exact:
                assert sign_of(dot(direction, v)) == 0
            else:
                assert abs(dot(direction, v)) <= 1e-12
        # normalized: a primitive rational multiple of (1, 1, -1), first
        # coordinate positive, whatever field element scales the normals
        if field.is_exact:
            assert all(isinstance(x, F) for x in direction)
            assert direction == (1, 1, -1)
        else:
            assert direction == pytest.approx((1.0, 1.0, -1.0), abs=1e-12)

    @pytest.mark.parametrize("last", [0, 1], ids=["e2+e3", "e2+e3+e4"])
    @pytest.mark.parametrize(
        "field, s, want",
        [
            (RATIONAL, F(-3, 2), "(0, 1, -1, 0)"),
            (quadratic_field(2), Quadratic(1, 1, 2), "(0, 1, -1, 0)"),
            (FLOAT, 0.3, "(0.0, 1.0, -1.0, 0.0)"),
        ],
        ids=["Q", "Q(sqrt2)", "float"],
    )
    def test_two_dimensional_lineality(self, field, s, want, last):
        # normals +-e1 and +-(e2 + e3), or +-(e2 + e3 + e4), in R^4 leave a
        # plane of recession directions.  The one reported is zero on x4,
        # the last coordinate that no pivot took, its first nonzero
        # coordinate positive; float zeros print as 0.0
        zero = field.zero
        normals = [(s, zero, zero, zero), (zero, s, s, last * s)]
        hs = tuple(
            Halfspace(tuple(sgn * x for x in v), POLAR)
            for v in normals
            for sgn in (1, -1)
        )
        with pytest.raises(Unbounded) as err:
            enumerate_vertices(HPolytope(4, hs, field))
        assert str(err.value) == "polyhedron is unbounded along " + want

    @pytest.mark.parametrize(
        "field, s, want",
        [
            (RATIONAL, F(1), "(-1, 0)"),
            (quadratic_field(2), Quadratic(1, 1, 2), "(-1, 0)"),
            (FLOAT, 1.0, "(-1.0, 0.0)"),
        ],
        ids=["Q", "Q(sqrt2)", "float"],
    )
    def test_recession_ray_moved_into_a_hole(self, field, s, want, monkeypatch):
        # s (x + 3y), s (x + y), 3 s y, 3 s (x + y) <= 1 recede along (-1, 0)
        # and (1, -1).  The last row cuts off two rays and adds one, so its
        # insertion moves the last live ray of the store, the recession ray
        # along (-1, 0), into the row of a ray cut off below the new count;
        # that ray is still the one reported
        kernel = kernel_for(field)
        inputs, classify = [], kernel.classify

        def recording(rays, rows):
            inputs.append(rays.tolist())
            return classify(rays, rows)

        monkeypatch.setattr(kernel, "classify", recording)
        monkeypatch.setattr(polytope, "kernel_for", lambda field: kernel)
        zero = field.zero
        normals = [(s, 3 * s), (s, s), (zero, 3 * s), (3 * s, 3 * s)]
        hs = tuple(Halfspace(v, POLAR) for v in normals)
        with pytest.raises(Unbounded) as err:
            enumerate_vertices(HPolytope(2, hs, field))
        assert str(err.value) == f"polyhedron is unbounded along {want}"
        # the last insertion's rays, and the rays left after it
        before, after = inputs[-2:]
        ray = min(r for r in after if not np.any(r[0]))
        row = after.index(ray)
        assert before.index(ray) >= len(after) and before[row] not in after

    def test_non_interior_origin_config(self):
        # permutations of (2,-2,0,0,0) span only the zero-sum hyperplane,
        # so the polar of the orbit is unbounded
        from sphcover.configgen import Pattern

        config = make_configuration(
            5, RATIONAL, [Pattern(((2, 1), (-2, 1), (0, 3)))]
        )
        with pytest.raises(Unbounded):
            enumerate_vertices(polar_hrep(config))


class TestAgainstOracle:
    def test_table1_5_with_cone(self):
        config = builtin_configuration(5)
        P = HPolytope(
            5,
            symmetry_cone(5, config.field) + polar_hrep(config).halfspaces,
            config.field,
        )
        engine = enumerate_vertices(P)
        m, _ = max_squared_norm(engine)
        assert m == F(5, 16)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_small_instances(self, seed):
        rng = random.Random(seed)
        P = random_polar_instance(rng)
        engine = enumerate_vertices(P)
        brute = brute_force_vertices(P)
        assert set(engine.vertices) == set(brute.vertices)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_vertices_satisfy_all_halfspaces_with_full_rank(self, seed):
        rng = random.Random(seed)
        P = random_polar_instance(rng)
        V = enumerate_vertices(P)
        for vec, tight in zip(V.vertices, V.tight_sets):
            for i, hs in enumerate(P.halfspaces):
                s = sum(a * b for a, b in zip(hs.normal, vec))
                if hs.kind == POLAR:
                    assert s <= 1
                    assert (s == 1) == (i in tight)
                else:
                    assert s >= 0
                    assert (s == 0) == (i in tight)
            assert (
                integer_rank([P.halfspaces[i].normal for i in tight])
                == P.dimension
            )

    def test_insertion_order_independence(self):
        rng = random.Random(99)
        P = random_polar_instance(rng)
        reference = set(enumerate_vertices(P).vertices)
        halfspaces = list(P.halfspaces)
        for _ in range(6):
            rng.shuffle(halfspaces)
            shuffled = HPolytope(P.dimension, tuple(halfspaces), P.field)
            assert set(enumerate_vertices(shuffled).vertices) == reference

    def test_polar_roundtrip_recovers_cross_polytope(self):
        config = cross_polytope_config(3)
        cube_vertices = enumerate_vertices(polar_hrep(config)).vertices
        back = HPolytope(
            3, tuple(Halfspace(v, POLAR) for v in cube_vertices), RATIONAL
        )
        recovered = enumerate_vertices(back)
        assert set(recovered.vertices) == set(config.points)


from conftest import integer_rank, random_polar_instance  # noqa: E402


class TestFloatBackend:
    def test_float_cube(self):
        hs = []
        for i in range(3):
            for s in (1.0, -1.0):
                hs.append(
                    Halfspace(tuple(s if j == i else 0.0 for j in range(3)), POLAR)
                )
        V = enumerate_vertices(HPolytope(3, tuple(hs), FLOAT))
        assert len(V.vertices) == 8
        m, _ = max_squared_norm(V)
        assert m == pytest.approx(3.0, abs=1e-9)

    def test_float_matches_exact_on_builtin(self):
        exact_cfg = builtin_configuration(6)
        float_cfg = config_to_float(exact_cfg)

        def cone_system(cfg):
            return HPolytope(
                6,
                symmetry_cone(6, cfg.field) + polar_hrep(cfg).halfspaces,
                cfg.field,
            )

        exact_m, _ = max_squared_norm(enumerate_vertices(cone_system(exact_cfg)))
        float_m, _ = max_squared_norm(enumerate_vertices(cone_system(float_cfg)))
        assert float_m == pytest.approx(float(exact_m), abs=1e-9)


class TestDumps:
    def test_hpolytope_roundtrip(self, tmp_path):
        config = builtin_configuration(9)
        P = HPolytope(
            9,
            symmetry_cone(9, config.field) + polar_hrep(config).halfspaces[:5],
            config.field,
        )
        path = tmp_path / "dump.txt"
        dump_hpolytope(P, path)
        loaded = load_hpolytope(path)
        assert loaded.dimension == P.dimension
        assert loaded.field == P.field
        assert [h.normal for h in loaded.halfspaces] == [
            h.normal for h in P.halfspaces
        ]

    def test_bad_dump_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a dump\n")
        with pytest.raises(ValueError):
            load_hpolytope(path)

    @pytest.mark.parametrize(
        "header, key",
        [
            ("hpolytope field=rational", "dim"),
            ("hpolytope dim=2", "field"),
            ("hpolytope dim=2 rational", "'rational'"),
        ],
        ids=["no-dim", "no-field", "bare-token"],
    )
    def test_malformed_header_names_key(self, tmp_path, header, key):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\npolar: 1 0\n")
        with pytest.raises(ValueError, match=key):
            load_hpolytope(path)


# -- the exact output stage -----------------------------------------------------

# times BIG, ray entries and lifted values leave int64
BIG = 2**70 + 1
tiny = st.integers(min_value=-4, max_value=4)


def quotient_value(x, t, d):
    """x / t on the scalars: Fractions over Q, Quadratics over Q(sqrt d)."""
    if d is None:
        return F(x, t)
    return Quadratic(*x, d) / Quadratic(*t, d)


def reduced_row(value):
    """(p, q, r) with value = (p + q sqrt(d)) / r, r > 0 the least common
    denominator of the value's two parts."""
    p, q = (value.a, value.b) if isinstance(value, Quadratic) else (F(value), F(0))
    r = math.lcm(p.denominator, q.denominator)
    return (int(p * r), int(q * r), r)


@st.composite
def exact_rays(draw, d):
    """Raw rays (t, x) as the kernel of Q (d None) or Q(sqrt d) holds them,
    some of them integer multiples of earlier ones, so that equal
    coordinates arrive as different (x, t) pairs."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = tiny if d is None else st.tuples(tiny, tiny)
    if d is None:
        t = st.integers(min_value=1, max_value=6)
    else:
        t = st.tuples(tiny, tiny).filter(lambda p: p != (0, 0))
    rays = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        if rays and draw(st.booleans()):
            k = draw(st.integers(min_value=2, max_value=3))
            ray = draw(st.sampled_from(rays))
            rays.append([k * x if d is None else (k * x[0], k * x[1]) for x in ray])
        else:
            rays.append([draw(t)] + draw(st.lists(entry, min_size=n, max_size=n)))
    return rays


@pytest.mark.parametrize("d", [None, 2, 5], ids=["Q", "d2", "d5"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_order_matches_sorted(d, data):
    kernel = kernel_for(RATIONAL if d is None else quadratic_field(d))
    rays = data.draw(exact_rays(d))
    values = [tuple(quotient_value(x, r[0], d) for x in r[1:]) for r in rays]
    for array in (
        np.array(rays, dtype=np.int64),
        np.array(rays, dtype=object) * BIG,
    ):
        table, rank = kernel.vertex_table(array)
        got = [tuple(table[j] for j in row) for row in rank.tolist()]
        assert got == values
        # lexsort's last key is its first
        order = np.lexsort(rank.T[::-1]).tolist()
        assert order == sorted(range(len(rays)), key=values.__getitem__)
        rows = [tuple(table[j] for j in row) for row in rank[order].tolist()]
        assert rows == sorted(values)


@pytest.mark.parametrize("d", [None, 2, 5], ids=["Q", "d2", "d5"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), entries=st.integers(min_value=1, max_value=8))
def test_vertex_table_quotients_each_raw_tuple_once(d, data, entries):
    """With a few rays per block the table is still that of all rays: the
    distinct values in order, and one ``quotient`` per distinct raw tuple
    across blocks.  Over Q the raw tuple is (x, t), so that 1/2 and 2/4 are
    two calls and one value; over Q(sqrt d) it is the value's reduced row
    (p, q, r), (p + q sqrt(d)) / r in lowest terms with r > 0, so that each
    value is one call whatever multiple of its ray carries it."""
    kernel = kernel_for(RATIONAL if d is None else quadratic_field(d))
    rays = data.draw(exact_rays(d))
    values = [tuple(quotient_value(x, r[0], d) for x in r[1:]) for r in rays]
    if d is None:
        raw = {(x, r[0]) for r in rays for x in r[1:]}
    else:
        raw = {reduced_row(v) for v in chain.from_iterable(values)}
    blocks, quotient = _linalg.row_blocks, kernel.quotient
    for scale, dtype in ((1, np.int64), (BIG, object)):
        array = np.array(rays, dtype=dtype) * scale
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                _linalg, "row_blocks", lambda rows, width: blocks(rows, width, entries)
            )
            patch.setattr(
                kernel, "quotient", lambda *key: calls.append(key) or quotient(*key)
            )
            table, rank = kernel.vertex_table(array)
        want = raw if d else {tuple(scale * x for x in key) for key in raw}
        assert sorted(calls) == sorted(want)
        assert list(table) == sorted(set(chain.from_iterable(values)))
        assert [tuple(table[j] for j in row) for row in rank.tolist()] == values


def tiny_conjugate():
    """(a - b sqrt 2) with a + b sqrt 2 = (1 + sqrt 2)^44: about 1e-17, but
    its float is -4.0, so the float order puts it below -1."""
    a, b = 1, 0
    for _ in range(44):
        a, b = a + 2 * b, a + b
    tiny = Quadratic(a, -b, 2)
    assert tiny.sign() == 1 and float(tiny) == -4.0
    return tiny


def sorted_exactly(monkeypatch, table_call) -> list:
    """The ranks that ``table_call`` gives the values -5, -1 and the tiny
    conjugate, whose table is in exact order: the signs of the neighbouring
    differences showed the float order wrong, and the exact sort ran, one
    ``pair_signs`` per comparison between the check of the float order and
    that of the exact one (two steps each)."""
    calls, pair_signs = [], _linalg._QuadraticKernel.pair_signs

    def spy(self, rays, rows):
        calls.append(len(rays))
        return pair_signs(self, rays, rows)

    monkeypatch.setattr(_linalg._QuadraticKernel, "pair_signs", spy)
    table, rank = table_call(tiny_conjugate())
    assert len(calls) > 2 and calls[0] == calls[-1] == 2
    assert set(calls[1:-1]) == {1}
    assert table == (F(-5), F(-1), tiny_conjugate())
    return rank.tolist()


def test_vertex_table_sorts_exactly_when_floats_are_out_of_order(monkeypatch):
    kernel = kernel_for(quadratic_field(2))

    def table(tiny):
        rays = [[[1, 0], [tiny.a, tiny.b], [-1, 0], [-5, 0]]]
        return kernel.vertex_table(np.array(rays, dtype=object))

    assert sorted_exactly(monkeypatch, table) == [[2, 1, 0]]


def test_value_table_sorts_exactly_when_floats_are_out_of_order(monkeypatch):
    def table(tiny):
        return value_table([tiny, F(-1), F(-5)], np.arange(3))

    assert sorted_exactly(monkeypatch, table) == [2, 1, 0]


@pytest.mark.parametrize("d", [None, 2], ids=["Q", "d2"])
def test_vertex_table_equal_values_share_rank(d):
    # 1/2 as (1, 2) and as (2, 4), 0 as (0, 2) and (0, 4)
    rays = [[2, 1, 0], [4, 2, 0]]
    if d is not None:
        rays = [[(x, 0) for x in ray] for ray in rays]
    kernel = kernel_for(RATIONAL if d is None else quadratic_field(d))
    table, rank = kernel.vertex_table(np.array(rays, dtype=np.int64))
    assert table == (F(0), F(1, 2))
    assert rank.tolist() == [[1, 0], [1, 0]]


# values of Q(sqrt 2), and forms that hold each in a new object: a Fraction
# rebuilt, or as a Quadratic with b = 0, and a Quadratic rebuilt
POOL = [F(-1), F(-1, 2), F(0), F(1, 3), F(3, 2), Quadratic(0, F(1, 2), 2),
        Quadratic(1, -1, 2), Quadratic(F(-1, 2), F(1, 2), 2)]
# a value with the float of 1/3
ABOVE_THIRD = F(1, 3) + F(1, 10**30)
FORMS = [
    lambda x: x,
    lambda x: F(x.numerator, x.denominator) if type(x) is F else Quadratic(x.a, x.b, 2),
    lambda x: Quadratic(x, 0, 2) if type(x) is F else x,
]


@st.composite
def scalars(draw, pool):
    return draw(st.sampled_from(FORMS))(draw(st.sampled_from(pool)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_value_order_groups_equal_objects(data):
    pool = POOL + [ABOVE_THIRD]
    quotients = data.draw(st.lists(scalars(pool), min_size=1, max_size=12))
    index = st.integers(min_value=0, max_value=len(quotients) - 1)
    width = data.draw(st.integers(min_value=1, max_value=4))
    row = st.lists(index, min_size=width, max_size=width)
    rows = data.draw(st.lists(row, min_size=1, max_size=20))
    keys = [tuple(quotients[j] for j in row) for row in rows]
    values, rank = value_table(quotients, np.array(rows, dtype=np.intp))
    assert [tuple(values[j] for j in row) for row in rank.tolist()] == keys
    order = np.lexsort(rank.T[::-1])
    assert order.tolist() == sorted(range(len(rows)), key=keys.__getitem__)
    # the values are the distinct ones in order, each the first object
    # holding it, and the ranks number them
    distinct = sorted(set(quotients))
    assert list(values) == distinct
    assert all(v is next(q for q in quotients if q == v) for v in values)
    _, rank = value_table(quotients, np.arange(len(quotients)))
    assert rank.tolist() == [distinct.index(q) for q in quotients]


def test_value_order_breaks_float_ties_exactly():
    assert float(ABOVE_THIRD) == float(F(1, 3))
    quotients = [ABOVE_THIRD, F(1, 3), F(0)]
    values, rank = value_table(quotients, np.arange(3))
    assert values == (F(0), F(1, 3), ABOVE_THIRD) and rank.tolist() == [2, 1, 0]


# times 2^600, squared norms have no float64 value
@pytest.mark.parametrize(
    "big", [0, BIG, 2**600 + 1], ids=["int64", "python-int", "past-float"]
)
@pytest.mark.parametrize("quadratic", [False, True], ids=["Q", "d2"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_max_squared_norm_matches_max(quadratic, big, data):
    """Few values, so that several vertices tie for the maximum; the first
    of them wins, as with ``max``."""
    pool = POOL if quadratic else [x for x in POOL if type(x) is F]
    if big:
        pool = [x * F(big, 3) for x in pool]
    n = data.draw(st.integers(min_value=1, max_value=4))
    vertices = data.draw(
        st.lists(
            st.lists(scalars(pool), min_size=n, max_size=n).map(tuple),
            min_size=1,
            max_size=10,
        )
    )
    vset = VertexSet(tuple(vertices), ((),) * len(vertices))
    want = max(vset.vertices, key=lambda v: dot(v, v))
    norm, got = max_squared_norm(vset)
    assert got is want and norm == dot(want, want)
    assert (vset.lift.vectors.dtype == object) == (big and any(map(any, vertices)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_float_max_squared_norm_matches_max(data):
    """Float squares are summed as ``dot`` sums them, so the attaining
    vertex is the one ``max`` picks, the first of any ties."""
    pool = [-0.0, 0.1, -0.1, 0.2, 0.3, 1 / 3, -0.7, 1e-9]
    n = data.draw(st.integers(min_value=1, max_value=5))
    vertex = st.lists(st.sampled_from(pool), min_size=n, max_size=n).map(tuple)
    vertices = data.draw(st.lists(vertex, min_size=1, max_size=10))
    vset = VertexSet(tuple(vertices), ((),) * len(vertices))
    want = max(vset.vertices, key=lambda v: dot(v, v))
    norm, got = max_squared_norm(vset)
    assert got is want and repr(norm) == repr(dot(want, want))
