import ast
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from sphcover import _linalg, oracle
from sphcover.configgen import SubsetSigns, builtin_configuration, make_configuration
from sphcover.oracle import (
    SAMPLE_BATCH_PRODUCTS,
    InstanceTooLarge,
    brute_force_vertices,
    min_angle_to,
    sampled_covering_radius,
)
from sphcover.polytope import (
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
    def test_float_matches_engine(self, cone):
        P = octagon_polar(FLOAT, cone)
        V = brute_force_vertices(P)
        E = enumerate_vertices(P)
        assert V.tight_sets == E.tight_sets
        assert len(V.vertices) == len(E.vertices) == (6 if cone else 8)
        for v, e in zip(V.vertices, E.vertices):
            assert v == pytest.approx(e, abs=1e-9)

    def test_agrees_with_engine_on_cross_polytopes(self):
        for n in (2, 3, 4):
            P = polar_hrep(cross_polytope(n))
            assert set(brute_force_vertices(P).vertices) == set(
                enumerate_vertices(P).vertices
            )


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

    def test_angle_at_config_point_is_zero(self):
        # acos amplifies roundoff near 1, so exact zero becomes ~1e-8
        config = builtin_configuration(5)
        assert min_angle_to(config, config.points[0]) == pytest.approx(0.0, abs=1e-7)

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

    def test_no_global_comes_from_linalg(self):
        for name, value in vars(oracle).items():
            assert value is not _linalg, name
            assert getattr(value, "__module__", None) != _linalg.__name__, name
