import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphcover.scalar import (
    FLOAT,
    RATIONAL,
    Field,
    FieldMismatchError,
    Quadratic,
    format_scalar,
    parse_scalar,
    quadratic_field,
    sign_of,
    square_free_decomposition,
    to_decimal,
)

Q2 = quadratic_field(2)
Q5 = quadratic_field(5)


def q(a, b, d=2):
    return Quadratic(a, b, d)


class TestArithmetic:
    def test_inverse_of_one_plus_sqrt2(self):
        x = q(1, 1)
        assert 1 / x == q(-1, 1)
        assert x * (1 / x) == 1

    def test_conjugate_product(self):
        assert q(3, -2) * q(3, 2) == 1

    def test_fraction_reduction(self):
        r = Fraction(2, 4) + Fraction(1, 4)
        assert (r.numerator, r.denominator) == (3, 4)

    def test_multiplication_rule(self):
        x, y = q(1, 2), q(3, -1)
        # (a+b sqrt d)(a'+b' sqrt d) = (aa'+bb'd) + (ab'+a'b) sqrt d
        assert x * y == q(1 * 3 + 2 * (-1) * 2, 1 * (-1) + 3 * 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q(1, 1) / q(0, 0)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            q(1, 1, 2) + q(1, 1, 3)

    def test_rational_valued_mixing_is_allowed(self):
        assert q(2, 0, 3) + q(1, 1, 2) == q(3, 1, 2)

    def test_interop_with_int_and_fraction(self):
        assert q(1, 1) + 1 == q(2, 1)
        assert Fraction(1, 2) * q(0, 2) == q(0, 1)
        assert 2 / q(0, 1) == q(0, 1)  # 2/sqrt(2) = sqrt(2)

    def test_no_silent_float_mixing(self):
        with pytest.raises(TypeError):
            q(1, 1) + 0.5


class TestSign:
    @pytest.mark.parametrize(
        "a,b,d,expected",
        [
            (3, -2, 2, 1),  # 9 > 8
            (1, -1, 2, -1),  # 1 < 2
            (19, -12, 2, 1),  # 361 > 288
            (0, 0, 2, 0),
            (0, -1, 7, -1),
            (-5, 3, 3, 1),  # 27 > 25
        ],
    )
    def test_examples(self, a, b, d, expected):
        assert q(a, b, d).sign() == expected
        assert sign_of(q(a, b, d)) == expected

    def test_equality_with_rational(self):
        assert q(3, 0) == Fraction(3)
        assert Fraction(3) == q(3, 0)
        assert hash(q(Fraction(1, 2), 0)) == hash(Fraction(1, 2))

    def test_total_order(self):
        vals = [q(0, 1), Fraction(1), q(3, -1), Fraction(0), q(-1, 1)]
        ordered = sorted(vals)
        floats = [float(v) for v in ordered]
        assert floats == sorted(floats)


class TestDecimal:
    def test_rational(self):
        assert to_decimal(Fraction(2, 5)) == "0.40000"
        assert to_decimal(Fraction(-1, 3), 4) == "-0.3333"
        assert to_decimal(Fraction(1), 0) == "1"

    def test_quadratic(self):
        assert to_decimal(q(0, 1)) == "1.41421"
        assert to_decimal(q(19, 12) / 73) == "0.49275"

    def test_float(self):
        assert to_decimal(0.5, 3) == "0.500"

    def test_ties_round_half_even(self):
        assert to_decimal(Fraction(1, 8), 2) == "0.12"
        assert to_decimal(Fraction(3, 8), 2) == "0.38"


class TestLiterals:
    @pytest.mark.parametrize("text", ["2", "-1/2", "1/2*sqrt(2)", "19+12*sqrt(2)"])
    def test_roundtrip(self, text):
        x = parse_scalar(text, Q2)
        assert parse_scalar(format_scalar(x), Q2) == x

    def test_examples(self):
        assert parse_scalar("2", RATIONAL) == Fraction(2)
        assert parse_scalar("-1/2", RATIONAL) == Fraction(-1, 2)
        assert parse_scalar("1/2*sqrt(2)", Q2) == q(0, Fraction(1, 2))
        assert parse_scalar("19+12*sqrt(2)", Q2) == q(19, 12)
        assert parse_scalar("19/73-12/73*sqrt(2)", Q2) == q(19, -12) / 73

    def test_format(self):
        assert format_scalar(q(19, 12) / 73) == "19/73+12/73*sqrt(2)"
        assert format_scalar(q(0, Fraction(1, 2))) == "1/2*sqrt(2)"
        assert format_scalar(q(1, Fraction(-1, 3))) == "1-1/3*sqrt(2)"
        assert format_scalar(Fraction(-3, 7)) == "-3/7"

    def test_wrong_root_rejected(self):
        with pytest.raises(ValueError):
            parse_scalar("1*sqrt(3)", Q2)
        with pytest.raises(ValueError):
            parse_scalar("1*sqrt(2)", RATIONAL)

    def test_float_field_accepts_decimals_and_roots(self):
        assert parse_scalar("0.25", FLOAT) == 0.25
        assert parse_scalar("1/2*sqrt(3)", FLOAT) == pytest.approx(math.sqrt(3) / 2)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_scalar("sqrt(2)+1", RATIONAL)


class TestField:
    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            Field("quadratic", 4)  # not square-free
        with pytest.raises(ValueError):
            Field("quadratic", 1)
        with pytest.raises(ValueError):
            Field("rational", 2)
        with pytest.raises(ValueError):
            Field("octonion")
        for d in (2.0, "2", True, None):
            with pytest.raises(ValueError):
                quadratic_field(d)

    def test_json_roundtrip(self):
        for f in (RATIONAL, FLOAT, Q5):
            assert Field.from_json(f.to_json()) == f

    def test_inv_sqrt(self):
        assert RATIONAL.inv_sqrt(9) == Fraction(1, 3)
        assert Q2.inv_sqrt(2) == q(0, Fraction(1, 2))
        assert quadratic_field(6).inv_sqrt(6) == Quadratic(0, Fraction(1, 6), 6)
        assert FLOAT.inv_sqrt(12) == pytest.approx(1 / math.sqrt(12))
        with pytest.raises(ValueError):
            RATIONAL.inv_sqrt(2)

    def test_coerce(self):
        assert RATIONAL.coerce(3) == Fraction(3)
        assert RATIONAL.coerce(q(3, 0)) == Fraction(3)
        assert Q2.coerce("1/2*sqrt(2)") == q(0, Fraction(1, 2))
        assert FLOAT.coerce(q(1, 1)) == pytest.approx(1 + math.sqrt(2))
        with pytest.raises(TypeError):
            RATIONAL.coerce(0.5)
        with pytest.raises(FieldMismatchError):
            Q2.coerce(Quadratic(0, 1, 3))

    def test_square_free_decomposition(self):
        assert square_free_decomposition(12) == (2, 3)
        assert square_free_decomposition(9) == (3, 1)
        assert square_free_decomposition(30) == (1, 30)


# -- algebraic property tests ----------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**4
)
roots = st.sampled_from([2, 3, 5, 6, 7, 10])


@st.composite
def quadratics(draw, d=None):
    dd = d if d is not None else draw(roots)
    return Quadratic(draw(rationals), draw(rationals), dd)


@settings(max_examples=200)
@given(roots.flatmap(lambda d: st.tuples(quadratics(d), quadratics(d), quadratics(d))))
def test_field_axioms(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if x != 0:
        assert x * (1 / x) == 1


@settings(max_examples=200)
@given(roots.flatmap(lambda d: st.tuples(quadratics(d), quadratics(d), quadratics(d))))
def test_order_compatible_with_addition(xyz):
    x, y, z = xyz
    if x < y:
        assert x + z < y + z


def _decimal_sign(x: Quadratic) -> int:
    # independent 50-digit evaluation
    from math import isqrt

    scale = 10**50
    lo = x.a + x.b * Fraction(isqrt(x.d * scale * scale), scale)
    hi = x.a + x.b * Fraction(isqrt(x.d * scale * scale) + 1, scale)
    if x.b < 0:
        lo, hi = hi, lo
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return 0


@settings(max_examples=500)
@given(quadratics())
def test_sign_matches_decimal_evaluation(x):
    got = x.sign()
    ref = _decimal_sign(x)
    if ref != 0:
        assert got == ref
    else:
        # bracket was inconclusive only if the value is tiny or exactly zero
        assert abs(float(x)) < 1e-45


@settings(max_examples=200)
@given(quadratics(), st.integers(min_value=0, max_value=6))
def test_decimal_rendering_brackets_value(x, digits):
    s = to_decimal(x, digits)
    approx = float(Fraction(s.replace(".", "")) / 10**digits) if digits else float(s)
    assert abs(approx - float(x)) <= 0.5 * 10.0**-digits + 1e-9
