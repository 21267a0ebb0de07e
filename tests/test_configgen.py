import json
import time
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphcover.configgen import (
    Configuration,
    ConfigurationError,
    Pattern,
    SubsetSigns,
    SubsetValues,
    builtin_configuration,
    builtin_dimensions,
    config_from_json,
    config_to_float,
    config_to_json,
    expand,
    load_configuration,
    make_configuration,
    validate,
)
from sphcover.scalar import FLOAT, Quadratic, RATIONAL, quadratic_field

TABLE_CARDINALITIES = {
    5: 30,
    6: 44,
    7: 112,
    8: 240,
    9: 470,
    10: 692,
    11: 2024,
    12: 3832,
    13: 7074,
    14: 11132,
    15: 16442,
}

TABLE_NORMS = {
    5: Fraction(8),
    6: Fraction(1),
    7: Fraction(583),
    8: Fraction(8),
    9: Fraction(1),
    10: Fraction(2),
    11: 1.0,
    12: 1.0,
    13: 1.0,
    14: 1.0,
    15: 1.0,
}


class TestExpand:
    def test_unit_basis_vectors(self):
        vs = expand(SubsetSigns(1, frozenset({0, 1}), 1), 6, RATIONAL)
        assert len(vs) == 12
        assert set(vs) == {
            tuple(Fraction(s if i == j else 0) for j in range(6))
            for i in range(6)
            for s in (1, -1)
        }

    def test_subset_values_count(self):
        vs = expand(SubsetValues(2, 2, 0), 5, RATIONAL)
        assert len(vs) == 2 * comb(5, 2)

    def test_large_sign_class(self):
        rule = SubsetSigns(15, frozenset({0, 1, 3, 6, 9, 12, 14, 15}), 1)
        vs = expand(rule, 15, RATIONAL)
        assert len(vs) == sum(comb(15, k) for k in (0, 1, 3, 6, 9, 12, 14, 15))

    def test_pattern(self):
        vs = expand(Pattern(((2, 2), (0, 3))), 5, RATIONAL)
        assert len(vs) == 2 * comb(5, 2)
        assert set(vs) == set(expand(SubsetValues(2, 2, 0), 5, RATIONAL))

    def test_pattern_multiplicity_mismatch(self):
        with pytest.raises(ConfigurationError):
            expand(Pattern(((1, 2),)), 5, RATIONAL)

    def test_support_exceeds_dimension(self):
        with pytest.raises(ConfigurationError):
            expand(SubsetSigns(6, None, 1), 5, RATIONAL)

    def test_asymmetric_sign_counts_rejected(self):
        with pytest.raises(ConfigurationError, match="not negation-symmetric"):
            SubsetSigns(3, frozenset({0, 1}), 1)

    def test_zero_subset_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SubsetValues(2, 0, 0)

    def test_permutation_invariance(self):
        vs = set(expand(SubsetValues(1, 2, -1), 5, RATIONAL))
        for perm in permutations(range(5)):
            assert {tuple(v[i] for i in perm) for v in vs} == vs

    def test_default_value_is_inv_sqrt(self):
        vs = expand(SubsetSigns(9, frozenset({0, 2, 4, 5, 7, 9})), 9, quadratic_field(2))
        assert all(x == 0 or abs(x) == Fraction(1, 3) for v in vs for x in v)


def permutations_reference(entries, field) -> list:
    """A pattern expanded by walking every index permutation of its values,
    entries that repeat a value merged first: each distinct arrangement at
    its first occurrence, then its negation unless that came before."""
    counts = {}
    for value, count in entries:
        value = field.coerce(value)
        counts[value] = counts.get(value, 0) + count
    base = [value for value, count in counts.items() for _ in range(count)]
    seen, out = set(), []
    for perm in permutations(base):
        for vec in (perm, tuple(-x for x in perm)):
            if vec not in seen:
                seen.add(vec)
                out.append(vec)
    return out


TEST_PATTERNS = [
    (((Quadratic(1, 1, 2), 1), (-1, 2), (0, 1)), quadratic_field(2)),
    (((2, 1), (-2, 1), (1, 1)), RATIONAL),
    (((1, 2), (-1, 1)), RATIONAL),
    (((3, 1), (4, 1), (0, 1)), RATIONAL),
    (((2, 2), (1, 1)), RATIONAL),
    (((2, 1), (-2, 1), (0, 3)), RATIONAL),
    (((2, 2), (0, 3)), RATIONAL),
    (((Quadratic(0, 2, 2), 1), (Quadratic(0, -2, 2), 1), (0, 3)), quadratic_field(2)),
    (((2.0, 1), (-2.0, 1), (0.0, 3)), FLOAT),
]


@pytest.mark.parametrize("entries, field", TEST_PATTERNS)
def test_pattern_order_matches_permutations(entries, field):
    n = sum(count for _, count in entries)
    assert expand(Pattern(entries), n, field) == permutations_reference(entries, field)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=4
    ).filter(lambda entries: sum(c for _, c in entries) <= 7),
    st.sampled_from([RATIONAL, FLOAT]),
)
def test_random_pattern_order_matches_permutations(entries, field):
    # values may repeat across entries
    entries = tuple(entries)
    n = sum(count for _, count in entries)
    assert expand(Pattern(entries), n, field) == permutations_reference(entries, field)


def test_pattern_expansion_does_not_walk_permutations():
    # 12! index permutations but 924 arrangements: the walk took hours
    start = time.perf_counter()
    assert len(expand(Pattern(((1, 6), (0, 6))), 12, RATIONAL)) == 1848
    assert time.perf_counter() - start < 1.0


@st.composite
def sign_count_sets(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    counts = draw(st.sets(st.integers(min_value=0, max_value=m), min_size=1))
    return m, frozenset(counts)


@settings(max_examples=120)
@given(sign_count_sets())
def test_negation_closure_iff_symmetric(mc):
    m, counts = mc
    symmetric = all(m - k in counts for k in counts)
    if not symmetric:
        with pytest.raises(ConfigurationError):
            SubsetSigns(m, counts, 1)
        return
    n = m + 1
    vs = set(expand(SubsetSigns(m, counts, 1), n, RATIONAL))
    assert {tuple(-x for x in v) for v in vs} == vs


class TestBuiltins:
    @pytest.mark.parametrize("n", list(builtin_dimensions()))
    def test_cardinalities(self, n):
        config = builtin_configuration(n)
        assert config.cardinality == TABLE_CARDINALITIES[n]
        assert config.cardinality < 2**n

    @pytest.mark.parametrize("n", list(builtin_dimensions()))
    def test_norms_and_validity(self, n):
        config = builtin_configuration(n)
        if config.field.is_exact:
            assert config.norm_sq == TABLE_NORMS[n]
        else:
            assert config.norm_sq == pytest.approx(TABLE_NORMS[n])
        assert validate(config).ok

    def test_fields(self):
        assert builtin_configuration(5).field == RATIONAL
        assert builtin_configuration(6).field == quadratic_field(6)
        assert builtin_configuration(7).field == RATIONAL
        assert builtin_configuration(8).field == RATIONAL
        assert builtin_configuration(9).field == quadratic_field(2)
        assert builtin_configuration(10).field == quadratic_field(5)
        for n in range(11, 16):
            assert builtin_configuration(n).field == FLOAT

    def test_out_of_range(self):
        for n in (4, 16):
            with pytest.raises(ValueError):
                builtin_configuration(n)

    def test_force_float(self):
        config = config_to_float(builtin_configuration(9))
        assert config.field == FLOAT
        assert config.cardinality == 470
        assert config.norm_sq == pytest.approx(1.0)

    def test_points_sorted_and_unique(self):
        config = builtin_configuration(6)
        assert list(config.points) == sorted(set(config.points))

    @pytest.mark.parametrize("n", list(builtin_dimensions()))
    def test_float_points_match_rounded_dedup(self, n):
        """The float points are those of a merge keyed by ``round(x, 12)``
        per coordinate, first point kept."""
        config = config_to_float(builtin_configuration(n))
        merged = {}
        for rule in config.rules:
            for p in expand(rule, n, FLOAT):
                merged.setdefault(tuple(round(x, 12) for x in p), p)
        assert config.points == tuple(sorted(merged.values()))
        assert validate(config).ok

    def test_float_near_duplicates_merge(self):
        rules = [SubsetValues(2, 0.5, 0.25)]
        near = [SubsetValues(2, 0.5 + 1e-14, 0.25 - 1e-14)]
        config = make_configuration(4, FLOAT, rules)
        merged = make_configuration(4, FLOAT, rules + near)
        assert merged.points == config.points
        assert make_configuration(4, FLOAT, near + rules).points != config.points
        assert validate(merged).ok


class TestValidate:
    def test_missing_negation_fails(self):
        e1 = (Fraction(1), Fraction(0))
        e2 = (Fraction(0), Fraction(1))
        config = Configuration(2, RATIONAL, (), (e1, e2), Fraction(1))
        report = validate(config)
        assert not report.ok
        assert "origin-symmetric" in report.failure

    def test_unequal_norms_fail(self):
        pts = (
            (Fraction(1), Fraction(0)),
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(2)),
            (Fraction(0), Fraction(-2)),
        )
        config = Configuration(2, RATIONAL, (), pts, Fraction(1))
        assert not validate(config).ok

    @pytest.mark.parametrize(
        "field, s",
        [(RATIONAL, 2), (quadratic_field(2), Quadratic(0, 2, 2)), (FLOAT, 2.0)],
        ids=["Q", "Q(sqrt2)", "float"],
    )
    def test_rank_deficient_fails(self, field, s):
        # permutations of (s, -s, 0^3) span only the zero-sum hyperplane
        config = make_configuration(5, field, [Pattern(((s, 1), (-s, 1), (0, 3)))])
        report = validate(config)
        assert not report.ok
        assert "span" in report.failure

    def test_single_orbit_passes(self):
        config = make_configuration(5, RATIONAL, [SubsetValues(2, 2, 0)])
        assert validate(config).ok

    @pytest.mark.parametrize("n", list(builtin_dimensions()))
    def test_float_builtin_passes(self, n):
        assert validate(config_to_float(builtin_configuration(n))).ok

    def test_float_duplicate_point_fails(self):
        config = config_to_float(builtin_configuration(5))
        points = tuple(sorted(config.points + config.points[:1]))
        broken = Configuration(5, FLOAT, (), points, config.norm_sq)
        assert validate(broken).failure == "points are not pairwise distinct"

    def test_float_missing_negation_fails(self):
        config = config_to_float(builtin_configuration(5))
        negated = tuple(-x for x in config.points[0])
        points = tuple(p for p in config.points if p != negated)
        assert len(points) == len(config.points) - 1
        broken = Configuration(5, FLOAT, (), points, config.norm_sq)
        assert validate(broken).failure == "not origin-symmetric"

    def test_float_negative_zero_is_zero(self):
        # -(1.0, 0.0) is (-1.0, -0.0), stored here as (-1.0, 0.0)
        square = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
        assert validate(Configuration(2, FLOAT, (), square, 1.0)).ok
        twice = square + ((-0.0, 1.0),)
        report = validate(Configuration(2, FLOAT, (), twice, 1.0))
        assert report.failure == "points are not pairwise distinct"


class TestJson:
    def test_roundtrip_builtin(self):
        for n in (5, 9, 12):
            config = builtin_configuration(n)
            again = config_from_json(config_to_json(config))
            assert again.points == config.points
            assert again.field == config.field

    def test_readme_example_document(self):
        data = {
            "dimension": 9,
            "field": {"kind": "quadratic", "d": 2},
            "generators": [
                {
                    "type": "subset_signs",
                    "support": 2,
                    "sign_counts": [0, 1, 2],
                    "value": "1",
                },
                {
                    "type": "subset_signs",
                    "support": 9,
                    "sign_counts": [0, 2, 4, 5, 7, 9],
                    "value": "1/3*sqrt(2)",
                },
            ],
        }
        config = config_from_json(data)
        assert config.cardinality == 470
        assert config.norm_sq == Quadratic(2, 0, 2)

    def test_load_builtin_name(self):
        config = load_configuration("table1:8")
        assert config.cardinality == 240

    def test_load_bad_builtin_name(self):
        with pytest.raises(ConfigurationError):
            load_configuration("table1:16")

    def test_load_file(self, tmp_path):
        path = tmp_path / "cross.json"
        data = {
            "dimension": 4,
            "field": {"kind": "rational"},
            "generators": [{"type": "subset_signs", "support": 1, "value": "1"}],
        }
        path.write_text(json.dumps(data))
        config = load_configuration(path)
        assert config.cardinality == 8

    def test_error_messages_name_offending_field(self):
        with pytest.raises(ConfigurationError, match="dimension"):
            config_from_json({"field": {"kind": "rational"}, "generators": []})
        with pytest.raises(ConfigurationError, match="generators\\[0\\]"):
            config_from_json(
                {
                    "dimension": 3,
                    "field": {"kind": "rational"},
                    "generators": [{"type": "subset_signs", "support": 3,
                                    "sign_counts": [0, 1], "value": "1"}],
                }
            )
        with pytest.raises(ConfigurationError, match="field"):
            config_from_json(
                {"dimension": 3, "field": {"kind": "imaginary"}, "generators": [{}]}
            )
