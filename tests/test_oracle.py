import ast
import inspect
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from conftest import integer_rank, random_polar_instance
from hypothesis import given, settings
from hypothesis import strategies as st

from sphcover import _linalg, oracle, polytope
from sphcover.configgen import SubsetSigns, builtin_configuration, make_configuration
from sphcover.oracle import (
    SAMPLE_BATCH_PRODUCTS,
    InstanceTooLarge,
    brute_force_vertices,
    sampled_covering_radius,
)
from sphcover.polytope import (
    CONE,
    POLAR,
    Halfspace,
    HPolytope,
    VertexSet,
    enumerate_vertices,
    polar_hrep,
    symmetry_cone,
)
from sphcover.scalar import FLOAT, RATIONAL, Quadratic, quadratic_field

F = Fraction


def cross_polytope(n):
    return make_configuration(n, RATIONAL, [SubsetSigns(1, value=1)])


def cube_hrep(n):
    halfspaces = []
    for i in range(n):
        for s in (1, -1):
            halfspaces.append(
                Halfspace(tuple(F(s if j == i else 0) for j in range(n)), POLAR)
            )
    return HPolytope(n, tuple(halfspaces), RATIONAL)


def octagon_polar(field, cone=False):
    """Polar of the regular octagon (+-1, 0), (0, +-1), (+-r, +-r), r = sqrt(2)/2."""
    r = field.coerce(Quadratic(0, F(1, 2), 2))
    one, zero = field.one, field.zero
    points = [(one, zero), (-one, zero), (zero, one), (zero, -one)]
    points += [(sx * r, sy * r) for sx in (1, -1) for sy in (1, -1)]
    halfspaces = tuple(Halfspace(p, POLAR) for p in points)
    if cone:
        halfspaces = symmetry_cone(2, field) + halfspaces
    return HPolytope(2, halfspaces, field)


# -- the per-subset reference --------------------------------------------------
#
# The exact brute force as one fraction-free Gauss-Jordan elimination
# (Bareiss 1968) per n-subset, on Python ints over Q and on integer pairs
# a + b*sqrt(d) over Q(sqrt d).  It is what the batched elimination must
# reproduce, vertices, order, scalar types and tight sets.


class Surd:
    """a + b*sqrt(d) with integers a and b; ``//`` is exact division (times
    the conjugate, over the integer norm), ``/`` the quotient as a field
    value."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a, self.b, self.d = a, b, d

    def __add__(self, other):
        return Surd(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other):
        return Surd(self.a - other.a, self.b - other.b, self.d)

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __mul__(self, other):
        d = self.d
        return Surd(
            self.a * other.a + d * self.b * other.b,
            self.a * other.b + self.b * other.a,
            d,
        )

    def times_conjugate(self, other):
        if isinstance(other, int):
            return self.a, self.b, other
        d = self.d
        return (
            self.a * other.a - d * self.b * other.b,
            self.b * other.a - self.a * other.b,
            other.a * other.a - d * other.b * other.b,
        )

    def __floordiv__(self, other):
        a, b, norm = self.times_conjugate(other)
        return Surd(a // norm, b // norm, self.d)

    def __truediv__(self, other):
        a, b, norm = self.times_conjugate(other)
        return Quadratic(F(a, norm), F(b, norm), self.d)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def sign(self):
        sa, sb = sign(self.a), sign(self.b)
        if sa * sb >= 0:
            return sign(sa + sb)
        return sa * sign(self.a * self.a - self.d * self.b * self.b)


def sign(x):
    if isinstance(x, Surd):
        return x.sign()
    return (x > 0) - (x < 0)


def reference_lift(hs, field):
    parts = [(x.a, x.b) if isinstance(x, Quadratic) else (x, 0) for x in hs.normal]
    scale = math.lcm(*(F(p).denominator for pair in parts for p in pair))
    s = 1 if hs.kind == POLAR else -1
    rhs = scale if hs.kind == POLAR else 0
    if field.kind == "rational":
        return tuple(int(s * scale * a) for a, _ in parts) + (rhs,)
    surds = (Surd(int(s * scale * a), int(s * scale * b), field.d) for a, b in parts)
    return tuple(surds) + (Surd(rhs, 0, field.d),)


def bareiss(rows):
    """(N, D) with D > 0 and x = N / D on the n boundaries of n lifted rows,
    or None when they are linearly dependent."""
    work = [list(r) for r in rows]
    n = len(work)
    prev = 1
    for k in range(n):
        p = k
        while not work[p][k]:
            p += 1
            if p == n:
                return None
        work[k], work[p] = work[p], work[k]
        top = work[k]
        pivot = top[k]
        for i, row in enumerate(work):
            if i != k:
                f = row[k]
                for j in range(k + 1, n + 1):
                    row[j] = (pivot * row[j] - f * top[j]) // prev
        prev = pivot
    numer = [row[n] for row in work]
    if sign(prev) < 0:
        return [-x for x in numer], -prev
    return numer, prev


def reference_vertices(poly):
    field = poly.field
    rows = [reference_lift(hs, field) for hs in poly.halfspaces]
    rational = field.kind == "rational"
    found = {}
    for subset in combinations(rows, poly.dimension):
        solution = bareiss(subset)
        if solution is None:
            continue
        numer, denom = solution
        tight = []
        for i, row in enumerate(rows):
            side = sign(sum((a * x for a, x in zip(row, numer)), -(row[-1] * denom)))
            if side > 0:
                break
            if side == 0:
                tight.append(i)
        else:
            if rational:
                g = math.gcd(denom, *numer)
                key = (tuple(x // g for x in numer), denom // g)
            else:
                key = tuple(field.coerce(x / denom) for x in numer)
            found.setdefault(key, tuple(tight))
    if rational:
        results = [
            (tuple(F(x, denom) for x in numer), tight)
            for (numer, denom), tight in found.items()
        ]
    else:
        results = list(found.items())
    results.sort(key=lambda item: item[0])
    return VertexSet(tuple(c for c, _ in results), tuple(t for _, t in results))


class TestBruteForce:
    def test_cube(self):
        V = brute_force_vertices(cube_hrep(3))
        assert len(V.vertices) == 8

    def test_square_polar(self):
        V = brute_force_vertices(polar_hrep(cross_polytope(2)))
        assert set(V.vertices) == {
            (F(1), F(1)),
            (F(1), F(-1)),
            (F(-1), F(1)),
            (F(-1), F(-1)),
        }

    def test_tight_sets_are_complete(self):
        P = cube_hrep(2)
        V = brute_force_vertices(P)
        for vec, tight in zip(V.vertices, V.tight_sets):
            expected = tuple(
                i
                for i, hs in enumerate(P.halfspaces)
                if sum(a * b for a, b in zip(hs.normal, vec)) == 1
            )
            assert tight == expected

    def test_guard(self):
        with pytest.raises(InstanceTooLarge):
            brute_force_vertices(cube_hrep(7))  # dimension 7 > 6
        big = HPolytope(
            2,
            tuple(
                Halfspace((F(k), F(1)), POLAR) for k in range(-20, 21)
            ),
            RATIONAL,
        )
        with pytest.raises(InstanceTooLarge):
            brute_force_vertices(big)

    def test_cone_rows_read_as_lower_bounds(self):
        # the square |x_i| <= 1 cut by x1 >= 0, x1 >= x2; halfspaces 0, 1
        # are the cone rows, then (1,0), (-1,0), (0,1), (0,-1)
        square = cube_hrep(2)
        P = HPolytope(2, symmetry_cone(2, RATIONAL) + square.halfspaces, RATIONAL)
        V = brute_force_vertices(P)
        assert V == VertexSet(
            ((F(0), F(-1)), (F(0), F(0)), (F(1), F(-1)), (F(1), F(1))),
            ((0, 5), (0, 1), (2, 5), (1, 2, 4)),
        )
        assert all(type(x) is Fraction for v in V.vertices for x in v)

    def test_degenerate_apex_reported_once(self):
        # four side rows meet at the apex (0, 0, 1); their 3-subsets have
        # different determinants, so the solutions must be reduced before
        # they are compared
        normals = [(2, 0, 1), (-1, 0, 1), (0, 3, 1), (0, -1, 1), (0, 0, -1)]
        P = HPolytope(
            3,
            tuple(Halfspace(tuple(F(x) for x in v), POLAR) for v in normals),
            RATIONAL,
        )
        V = brute_force_vertices(P)
        assert V == VertexSet(
            (
                (F(-2), F(-2), F(-1)),
                (F(-2), F(2, 3), F(-1)),
                (F(0), F(0), F(1)),
                (F(1), F(-2), F(-1)),
                (F(1), F(2, 3), F(-1)),
            ),
            ((1, 3, 4), (1, 2, 4), (0, 1, 2, 3), (0, 3, 4), (0, 2, 4)),
        )

    @pytest.mark.parametrize("cone", [False, True], ids=["full", "cone"])
    def test_quadratic_field_matches_engine(self, cone):
        P = octagon_polar(quadratic_field(2), cone)
        V = brute_force_vertices(P)
        assert V == enumerate_vertices(P)
        assert len(V.vertices) == (6 if cone else 8)
        assert any(isinstance(x, Quadratic) for v in V.vertices for x in v)

    @pytest.mark.parametrize("cone", [False, True], ids=["full", "cone"])
    def test_quadratic_field_matches_engine_3d(self, cone):
        # +-e_i and the 12 points (+-r, +-r, 0) up to order, r = sqrt(2)/2:
        # three-row eliminations divide by Q(sqrt 2) pivots
        field = quadratic_field(2)
        r = Quadratic(0, F(1, 2), 2)
        config = make_configuration(
            3, field, [SubsetSigns(1, value=1), SubsetSigns(2, value=r)]
        )
        halfspaces = polar_hrep(config).halfspaces
        if cone:
            halfspaces = symmetry_cone(3, field) + halfspaces
        P = HPolytope(3, halfspaces, field)
        V = brute_force_vertices(P)
        assert V == enumerate_vertices(P)
        assert any(isinstance(x, Quadratic) for v in V.vertices for x in v)

    @pytest.mark.parametrize("cone", [False, True], ids=["full", "cone"])
    def test_float_matches_engine(self, cone):
        P = octagon_polar(FLOAT, cone)
        V = brute_force_vertices(P)
        E = enumerate_vertices(P)
        assert V.tight_sets == E.tight_sets
        assert len(V.vertices) == len(E.vertices) == (6 if cone else 8)
        for v, e in zip(V.vertices, E.vertices):
            assert v == pytest.approx(e, abs=1e-9)
        # the engine's float vertices are plain Python floats, as the oracle's
        assert all(type(x) is float for e in E.vertices for x in e)

    def test_agrees_with_engine_on_cross_polytopes(self):
        for n in (2, 3, 4):
            P = polar_hrep(cross_polytope(n))
            assert set(brute_force_vertices(P).vertices) == set(
                enumerate_vertices(P).vertices
            )


@st.composite
def exact_polytopes(draw):
    """Small systems over Q or Q(sqrt 2): rational and surd entries of
    either sign, zeros, repeated rows and multiples of rows (so singular
    subsets and negative pivots), polar and cone rows."""
    field = draw(st.sampled_from([RATIONAL, quadratic_field(2)]))
    n = draw(st.integers(2, 4))
    parts = st.integers(-3, 3)

    def scalar():
        q = draw(st.integers(1, 3))
        a, b = draw(parts), draw(parts) if field.d else 0
        return field.coerce(Quadratic(F(a, q), F(b, q), 2)) if b else F(a, q)

    pool = []
    for _ in range(draw(st.integers(1, 6))):
        normal = [scalar() if draw(st.booleans()) else field.zero for _ in range(n)]
        if not any(normal):
            normal[draw(st.integers(0, n - 1))] = field.one
        pool.append(tuple(normal))
        if draw(st.booleans()):
            factor = draw(st.sampled_from([-1, 2, F(-1, 2)]))
            pool.append(tuple(factor * x for x in normal))
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from([POLAR, POLAR, CONE])),
            min_size=n,
            max_size=9,
        )
    )
    return HPolytope(n, tuple(Halfspace(v, kind) for v, kind in rows), field)


def planted(size, field):
    """Rows whose 2 x 2 minors are about size^2: (M, 1), (1, M) and their
    sign variants, with M = size over Q and size + (size // 2)*sqrt(2)."""
    big = F(size) if field.d is None else Quadratic(size, size // 2, 2)
    one = field.one
    normals = [(big, one), (one, big), (big, -one), (-one, big)]
    normals += [tuple(-x for x in v) for v in normals[:2]]
    halfspaces = tuple(Halfspace(v, POLAR) for v in normals)
    return HPolytope(2, halfspaces + (Halfspace((one, -one), CONE),), field)


class TestBatchedElimination:
    """The batched brute force against the per-subset reference."""

    @settings(max_examples=150, deadline=None)
    @given(poly=exact_polytopes(), python_ints=st.booleans())
    def test_matches_per_subset_reference(self, poly, python_ints):
        expected = repr(reference_vertices(poly))
        with pytest.MonkeyPatch.context() as patch:
            if python_ints:
                patch.setattr(oracle, "INT64_MAX", -1)
            assert repr(brute_force_vertices(poly)) == expected

    @pytest.mark.parametrize(
        "field", [RATIONAL, quadratic_field(2)], ids=["Q", "Q(sqrt2)"]
    )
    @pytest.mark.parametrize("size", [2**31 + 11, 3_037_000_499, 2**32 - 5])
    def test_large_minors_take_python_ints(self, size, field):
        # minors from 2^62 to 2^64: int64 would wrap in the elimination
        # steps and in the feasibility product
        poly = planted(size, field)
        assert oracle._int_dtype(oracle._lift(poly), 2, field.d) is object
        assert repr(brute_force_vertices(poly)) == repr(reference_vertices(poly))

    @pytest.mark.parametrize("block", [1, 2**20])
    def test_subset_block_invariant(self, monkeypatch, block):
        polys = [random_polar_instance(random.Random(seed)) for seed in range(8)]
        polys += [octagon_polar(quadratic_field(2), cone) for cone in (False, True)]
        if block == 1:  # one elimination per subset: keep to the smaller ones
            polys = [
                P for P in polys if math.comb(len(P.halfspaces), P.dimension) <= 1100
            ]
        expected = [repr(brute_force_vertices(P)) for P in polys]
        monkeypatch.setattr(oracle, "SUBSET_BLOCK", block)
        assert [repr(brute_force_vertices(P)) for P in polys] == expected

    def test_one_block_stays_small(self):
        # the largest shape of the oracle benchmark: 5 point pairs in R^5
        # cut by the fundamental cone, 15 rows, C(15, 5) = 3003 subsets
        rng = random.Random(5)
        points = set()
        while len(points) < 10 or integer_rank(points) < 5:
            points = set()
            while len(points) < 10:
                v = tuple(F(rng.randint(-3, 3)) for _ in range(5))
                if any(v):
                    points |= {v, tuple(-x for x in v)}
        halfspaces = symmetry_cone(5, RATIONAL) + tuple(
            Halfspace(p, POLAR) for p in sorted(points)
        )
        poly = HPolytope(5, halfspaces, RATIONAL)
        assert math.comb(15, 5) <= oracle.SUBSET_BLOCK
        assert oracle._int_dtype(oracle._lift(poly), 5, None) is np.int64
        brute_force_vertices(poly)
        tracemalloc.start()
        try:
            brute_force_vertices(poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestSampling:
    def test_cross_polytope_3d(self):
        config = cross_polytope(3)
        expected = math.acos(1 / math.sqrt(3))
        got = sampled_covering_radius(config, 100_000, seed=5)
        assert expected - 0.02 < got <= expected + 1e-12

    def test_upper_bound_on_builtin(self):
        config = builtin_configuration(6)
        got = sampled_covering_radius(config, 100_000, seed=5)
        assert got <= 0.84107 + 1e-9

    def test_deterministic(self):
        config = cross_polytope(4)
        a = sampled_covering_radius(config, 5000, seed=123)
        b = sampled_covering_radius(config, 5000, seed=123)
        assert a == b

    def test_batches_match_one_batch(self):
        config = builtin_configuration(8)
        samples, seed = 10_000, 7
        assert samples * len(config.points) > 2 * SAMPLE_BATCH_PRODUCTS
        points = np.array([[float(x) for x in p] for p in config.points])
        points /= math.sqrt(float(config.norm_sq))
        g = np.random.default_rng(seed).standard_normal((samples, config.dimension))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        worst_cos = float((g @ points.T).max(axis=1).min())
        expected = math.acos(min(1.0, max(-1.0, worst_cos)))
        assert sampled_covering_radius(config, samples, seed) == expected

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            sampled_covering_radius(cross_polytope(2), 0)


class TestIndependence:
    """The brute force must not borrow the engine's elimination kernels."""

    def test_oracle_does_not_import_linalg(self):
        tree = ast.parse(inspect.getsource(oracle))
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.extend(alias.name for alias in node.names)
        assert names and not any("_linalg" in name for name in names)

    def test_takes_only_polytope_types(self):
        # the rows, their kinds and the result type; nothing of the engine
        allowed = {"POLAR", "HPolytope", "VertexSet"}
        tree = ast.parse(inspect.getsource(oracle))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith("sphcover"), alias.name
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("sphcover.")
                names = {alias.name for alias in node.names}
                if module == "polytope":
                    assert names <= allowed, names - allowed
                if module in ("", "sphcover"):
                    assert not names & {"polytope", "_linalg"}, names
        for name, value in vars(oracle).items():
            assert value is not polytope, name
            if getattr(value, "__module__", None) == polytope.__name__:
                assert name in allowed, name

    def test_no_global_comes_from_linalg(self):
        for name, value in vars(oracle).items():
            assert value is not _linalg, name
            assert getattr(value, "__module__", None) != _linalg.__name__, name
