"""Configurations as a value table plus a position matrix.

Points, orbit representatives and the order of both are compared with
references computed here on scalar tuples: the sorted, merged output of
``expand`` and the sort-based orbit search on the points.
"""

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphcover.configgen import (
    Configuration,
    Pattern,
    SubsetSigns,
    SubsetValues,
    builtin_configuration,
    builtin_dimensions,
    expand,
    make_configuration,
)
from sphcover.covering import _orbit_representatives, covering_radius, deep_hole_check
from sphcover.scalar import FLOAT, RATIONAL, Quadratic, quadratic_field

F = Fraction
Q2 = quadratic_field(2)


def reference_points(config) -> tuple:
    """``sorted(set(...))`` of every rule's expansion; on the float field a
    coordinate is first replaced by the first value seen that agrees with
    it to 12 decimals."""
    n, field = config.dimension, config.field
    if field.is_exact:
        points = chain.from_iterable(expand(r, n, field) for r in config.rules)
        return tuple(sorted(set(points)))
    first = {}
    points = {
        tuple(first.setdefault(round(x, 12) + 0.0, x) for x in p)
        for rule in config.rules
        for p in expand(rule, n, field)
    }
    return tuple(sorted(points))


def reference_representatives(config) -> list | None:
    """The descending patterns of the points by sorting and hashing scalar
    tuples: None unless the values are closed under negation and every
    pattern holds its whole permutation orbit and its negation."""
    values = sorted(set(chain.from_iterable(config.points)))
    if any(-x != y for x, y in zip(values, reversed(values))):
        return None
    rank = {x: i for i, x in enumerate(values)}.__getitem__
    first: dict = {}
    members = Counter()
    for p in config.points:
        key = tuple(sorted(map(rank, p), reverse=True))
        first.setdefault(key, p)
        members[key] += 1
    top = len(values) - 1
    for key, count in members.items():
        orbit = factorial(config.dimension)
        for run in Counter(key).values():
            orbit //= factorial(run)
        if count != orbit or tuple(top - r for r in reversed(key)) not in first:
            return None
    return [tuple(sorted(first[key], key=rank, reverse=True)) for key in sorted(first)]


def signs_reference(n, support, counts, value, zero) -> list:
    """Sign vectors by support, then number of minus signs, then minus
    positions, each in lexicographic order."""
    out = []
    for combo in combinations(range(n), support):
        for k in sorted(counts):
            for flips in combinations(combo, k):
                vec = [zero] * n
                for i in combo:
                    vec[i] = -value if i in flips else value
                out.append(tuple(vec))
    return out


def values_reference(n, support, a, b) -> list:
    out = []
    for combo in combinations(range(n), support):
        vec = tuple(a if i in combo else b for i in range(n))
        out += [vec, tuple(-x for x in vec)]
    return out


# -- random rule sets ----------------------------------------------------------

rationals = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
FIELD_VALUES = {
    "Q": (RATIONAL, rationals),
    "Q(sqrt2)": (
        Q2,
        st.builds(lambda a, b: Q2.coerce(Quadratic(a, b, 2)), rationals, rationals),
    ),
    # no value here agrees with another, or with a default 1/sqrt(support),
    # to 12 decimals without being equal: near duplicates are tested below
    "float": (
        FLOAT,
        st.one_of(rationals.map(float), st.sampled_from([2**0.5, -(5**0.5)])),
    ),
}
# supports whose default value 1/sqrt(support) lies in the field
DEFAULT_SUPPORTS = {"Q": {1, 4}, "Q(sqrt2)": {1, 2, 4}, "float": set(range(1, 8))}


@st.composite
def rule_sets(draw, field_name):
    field, values = FIELD_VALUES[field_name]
    nonzero = values.filter(lambda x: x != 0)
    n = draw(st.integers(2, 7))
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["pattern", "signs", "values"]))
        if kind == "pattern":
            pool = draw(st.lists(values, min_size=1, max_size=3))
            coords = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            rules.append(Pattern(tuple((x, 1) for x in coords)))
            continue
        support = draw(st.integers(1, n))
        if kind == "signs":
            counts = draw(st.sets(st.integers(0, support), min_size=1))
            counts |= {support - k for k in counts}
            default = support in DEFAULT_SUPPORTS[field_name] and draw(st.booleans())
            value = None if default else draw(nonzero)
            rules.append(SubsetSigns(support, frozenset(counts), value))
        else:
            a = draw(values)
            rules.append(SubsetValues(support, a, draw(nonzero if a == 0 else values)))
    return make_configuration(n, field, rules)


def hand_built_subset(config, keep) -> Configuration:
    """The points kept by the flags ``keep`` (cycled), in reverse order."""
    points = [p for p, k in zip(config.points, keep * len(config.points)) if k]
    return Configuration(
        config.dimension, config.field, (), points[::-1], config.norm_sq
    )


@pytest.mark.parametrize("field_name", list(FIELD_VALUES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_rules_match_references(field_name, data):
    config = data.draw(rule_sets(field_name))
    n, field = config.dimension, config.field
    for rule in config.rules:
        if isinstance(rule, SubsetSigns):
            value = field.inv_sqrt(rule.support) if rule.value is None else rule.value
            want = signs_reference(n, rule.support, rule.sign_counts, value, field.zero)
        elif isinstance(rule, SubsetValues):
            want = values_reference(n, rule.support, rule.a, rule.b)
        else:
            continue
        assert expand(rule, n, field) == want
    assert config.cardinality == len(reference_points(config))
    assert config.points == reference_points(config)
    # the table holds exactly the values the points use, in order
    coords = sorted(set(chain.from_iterable(reference_points(config))))
    assert repr(config.table[0]) == repr(tuple(coords))
    reps = _orbit_representatives(config)
    assert repr(reps) == repr(reference_representatives(config))
    keep = data.draw(st.lists(st.booleans(), min_size=1, max_size=8).filter(any))
    subset = hand_built_subset(config, keep)
    assert _orbit_representatives(subset) == reference_representatives(subset)
    # whole orbits dropped: the table may stay closed under negation while
    # a pattern loses its negation
    gone = data.draw(st.sets(st.sampled_from(reps), max_size=len(reps) - 1))
    kept = [p for p in config.points if tuple(sorted(p, reverse=True)) not in gone]
    subset = Configuration(n, field, (), kept, config.norm_sq)
    assert _orbit_representatives(subset) == reference_representatives(subset)


THIRD = 3**-0.5  # 1/sqrt(3) is one unit in the last place from it
NEAR_DUPLICATES = [
    [SubsetValues(3, THIRD, -THIRD), SubsetSigns(3, frozenset({0, 3}))],
    [SubsetSigns(3, frozenset({0, 3})), SubsetValues(3, THIRD, -THIRD)],
    [Pattern(((-THIRD, 3),)), SubsetSigns(3, frozenset({0, 3}))],
    [Pattern(((0.0, 3),)), Pattern(((-THIRD, 3),)), SubsetSigns(3, frozenset({0, 3}))],
    [SubsetSigns(3, frozenset({1, 2}), -THIRD), SubsetSigns(3, frozenset({1, 2}))],
]


@pytest.mark.parametrize("rules", NEAR_DUPLICATES)
def test_float_near_duplicate_values_keep_the_first_seen(rules):
    assert 1 / 3**0.5 != THIRD
    config = make_configuration(3, FLOAT, rules)
    assert config.points == reference_points(config)
    assert config.negation_closed and _orbit_representatives(config) is not None


@pytest.mark.parametrize("n", list(builtin_dimensions()))
def test_builtins_match_references(n):
    config = builtin_configuration(n)
    assert config.points == reference_points(config)
    reps = _orbit_representatives(config)
    assert reps is not None and repr(reps) == repr(reference_representatives(config))
    # one point short of a whole orbit
    drop = next(i for i, p in enumerate(config.points) if len(set(p)) > 1)
    kept = config.points[:drop] + config.points[drop + 1:]
    partial = Configuration(n, config.field, (), kept, config.norm_sq)
    assert _orbit_representatives(partial) is None
    assert reference_representatives(partial) is None


@pytest.mark.parametrize("n", [5, 9, 12])
def test_radius_never_builds_points(n):
    config = builtin_configuration(n)
    report = covering_radius(config)
    assert deep_hole_check(config, report)
    assert "points" not in config.__dict__


def test_index_is_int8_ranks():
    config = builtin_configuration(10)
    values, index = config.table
    assert index.dtype.name == "int8"
    assert list(values) == sorted(values)
    assert config.points[0] == tuple(values[i] for i in index[0])
