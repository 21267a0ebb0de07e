"""The configuration lift and the exact checks that read it.

Each check is compared with a pure-Python reference computed here on the
configuration's scalars, on the int64 path and on the Python-int path.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphcover import _linalg
from sphcover.configgen import (
    Configuration,
    SubsetSigns,
    builtin_configuration,
    make_configuration,
    validate,
)
from sphcover.covering import _certify_vertices, covering_radius, deep_hole_check
from sphcover.polytope import VertexSet, enumerate_vertices, polar_hrep
from sphcover.scalar import Quadratic, dot, quadratic_field, sign_of

F = Fraction
Q2 = quadratic_field(2)


def _square_free(d):
    return all(d % (p * p) for p in range(2, int(d**0.5) + 1))


roots = st.integers(min_value=2, max_value=97).filter(_square_free)
parts = st.integers(min_value=-(2**28), max_value=2**28)
# units of Z[sqrt 2], a^2 - 2 b^2 = +-1: the closest mixed-sign calls
pell = st.sampled_from([(3, -2), (-7, 5), (17, -12), (-577, 408), (665857, -470832)])


@settings(max_examples=200)
@given(
    roots, st.lists(st.tuples(parts, parts), min_size=1, max_size=40), st.lists(pell)
)
def test_signs_match_quadratic_sign(d, pairs, units):
    if d == 2:
        pairs += units
    kernel = _linalg.kernel_for(quadratic_field(d))
    want = [Quadratic(a, b, d).sign() for a, b in pairs]
    a, b = zip(*pairs)
    small = kernel.signs(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    # the same values times 2^40 no longer square inside int64
    big = kernel.signs(
        np.array([x << 40 for x in a], dtype=object),
        np.array([x << 40 for x in b], dtype=object),
    )
    assert small.tolist() == want
    assert big.tolist() == want


def test_lift_table_and_scale():
    h = Quadratic(0, F(1, 3), 2)  # sqrt(2)/3
    points = ((F(1, 2), h), (-h, F(0)), (F(-1, 2), -h), (h, F(0)))
    coords = [x for p in points for x in p]
    values, index = _linalg.value_table(coords, np.arange(8).reshape(4, 2))
    # ascending, equal values in different objects (-h twice) merged
    assert values == (F(-1, 2), -h, F(0), h, F(1, 2))
    assert index.tolist() == [[4, 3], [1, 2], [0, 1], [3, 2]]
    lift = _linalg.lift(values, index, Q2)
    assert lift.scale == 6 and lift.top == 3
    assert lift.a.tolist() == [[3, 0], [0, 0], [-3, 0], [0, 0]]
    assert lift.b.tolist() == [[0, 2], [-2, 0], [0, -2], [2, 0]]
    # by hand the table is the same, so position i negates to 4 - i
    config = Configuration(2, Q2, (), points, F(17, 36))
    assert config.table[0] == values and config.negation_closed
    assert config.table[1].tolist() == index.tolist()
    keys = _linalg.row_keys(index, 5).tolist()
    negated = _linalg.row_keys(4 - index, 5).tolist()
    assert len(set(keys)) == 4
    assert negated == [keys[2], keys[3], keys[0], keys[1]]
    assert config.lift.a.tolist() == lift.a.tolist()
    assert config.lift.b.tolist() == lift.b.tolist()


# -- reference checks, on the configuration's own scalars ---------------------


def reference_feasible(config, vertices) -> bool:
    return all(
        sign_of(1 - dot(p, v)) >= 0 for p in config.points for v in vertices
    )


def reference_one_norm(config) -> bool:
    return all(dot(p, p) == config.norm_sq for p in config.points)


def reference_deep_hole(config, report) -> bool:
    vec = report.attaining_vertex
    best = max(dot(p, vec) for p in config.points)
    return sign_of(best) > 0 and (
        best * best == config.norm_sq * dot(vec, vec) * report.cos2_radius
    )


S = Quadratic(2**40 + 1, 2**39, 2)


def big_cross_polytope():
    """Points +-S e_i with S of size 2^40 in Q(sqrt 2): their squared norms
    and the vertex rays (entries near 2^79) no longer fit int64."""
    return make_configuration(3, Q2, [SubsetSigns(1, value=S)])


def push(vertex):
    scale = F(1000001, 1000000)
    return tuple(scale * x for x in vertex)


class TestPythonIntPath:
    def test_verdicts_match_reference(self, dtypes):
        config = big_cross_polytope()
        assert validate(config).ok and reference_one_norm(config)
        vertices = enumerate_vertices(polar_hrep(config)).vertices
        assert len(vertices) == 8 and reference_feasible(config, vertices)
        _certify_vertices(VertexSet(vertices, ((),) * 8), config)
        pushed = push(vertices[0])
        assert not reference_feasible(config, [pushed])
        with pytest.raises(RuntimeError, match="infeasible vertex"):
            _certify_vertices(VertexSet((pushed,), ((),)), config)
        report = covering_radius(config)
        assert report.cos2_radius == F(1, 3)
        assert deep_hole_check(config, report) and reference_deep_hole(config, report)
        # the direction of a configuration point is no hole at all
        toward_point = (report.attaining_vertex[0], F(0), F(0))
        bad = dataclasses.replace(report, attaining_vertex=toward_point)
        assert not deep_hole_check(config, bad)
        assert not reference_deep_hole(config, bad)
        assert dtypes and all(dtype is object for dtype in dtypes)

    # S + 1 changes both parts of the squared norm, the conjugate of S
    # only its sqrt(2) part
    @pytest.mark.parametrize(
        "t", [S + 1, Quadratic(S.a, -S.b, 2)], ids=["shifted", "conjugate"]
    )
    def test_unequal_norm_matches_reference(self, dtypes, t):
        config = big_cross_polytope()
        points = [p for p in config.points if p[0] not in (S, -S)]
        points += [(t, F(0), F(0)), (-t, F(0), F(0))]
        broken = Configuration(3, Q2, (), tuple(sorted(points)), config.norm_sq)
        assert not reference_one_norm(broken)
        assert validate(broken).failure == "points do not share one norm"
        assert dtypes and all(dtype is object for dtype in dtypes)


@pytest.mark.parametrize("n", [5, 10])
def test_python_ints_agree_with_int64(n, monkeypatch):
    config = builtin_configuration(n)
    report = covering_radius(config)
    assert deep_hole_check(config, report)
    monkeypatch.setattr(_linalg, "_int_dtype", lambda bound: object)
    config = builtin_configuration(n)
    assert validate(config).ok
    forced = covering_radius(config)
    assert forced.cos2_radius == report.cos2_radius
    assert forced.attaining_vertex == report.attaining_vertex
    assert deep_hole_check(config, forced)
    vertex = report.attaining_vertex
    with pytest.raises(RuntimeError, match="infeasible vertex"):
        _certify_vertices(VertexSet((vertex, push(vertex)), ((), ())), config)
