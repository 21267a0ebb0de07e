"""Exact scalar arithmetic for the rational, quadratic, and float backends.

Every coordinate entering a computation lives in one fixed field, described
by :class:`Field`: the rationals, a real quadratic extension Q(sqrt(d)) with
d a square-free integer, or double-precision floats.  The exact backends
never leave their field: the only square root available is the fixed
sqrt(d), comparisons reduce to integer sign tests, and decimal strings are
produced by correctly rounded conversion at the display boundary only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import isqrt
from typing import Union

__all__ = [
    "Field",
    "FieldMismatchError",
    "Quadratic",
    "RATIONAL",
    "FLOAT",
    "Scalar",
    "Vector",
    "dot",
    "format_scalar",
    "parse_scalar",
    "quadratic_field",
    "sign_of",
    "square_free_decomposition",
    "to_decimal",
]


class FieldMismatchError(TypeError):
    """Two scalars from incompatible fields met in one operation."""


def square_free_decomposition(m: int) -> tuple[int, int]:
    """Write a positive integer as s**2 * t with t square-free."""
    if m < 1:
        raise ValueError(f"expected a positive integer, got {m}")
    s, t = 1, m
    p = 2
    while p * p <= t:
        while t % (p * p) == 0:
            t //= p * p
            s *= p
        p += 1
    return s, t


@total_ordering
class Quadratic:
    """Element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    Arithmetic stays inside the field; ordering and the sign test are exact,
    decided by integer comparisons only.  A value with b = 0 compares (and
    hashes) equal to the plain rational a.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int | Fraction, b: int | Fraction, d: int):
        if d < 2 or square_free_decomposition(d)[0] != 1:
            raise ValueError(f"d must be a square-free integer >= 2, got {d}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Quadratic values are immutable")

    def _pair(self, other) -> "tuple[Quadratic, Quadratic] | None":
        """Both operands as Quadratic over one common d, or None."""
        if isinstance(other, (int, Fraction)):
            return self, Quadratic(other, 0, self.d)
        if not isinstance(other, Quadratic):
            return None
        if other.d == self.d:
            return self, other
        if self.b == 0:
            return Quadratic(self.a, 0, other.d), other
        if other.b == 0:
            return self, Quadratic(other.a, 0, self.d)
        raise FieldMismatchError(
            f"cannot mix sqrt({self.d}) and sqrt({other.d}) values"
        )

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Quadratic(x.a + y.a, x.b + y.b, x.d)

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Quadratic(x.a - y.a, x.b - y.b, x.d)

    def __rsub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Quadratic(y.a - x.a, y.b - x.b, x.d)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Quadratic(
            x.a * y.a + x.b * y.b * x.d,
            x.a * y.b + x.b * y.a,
            x.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return x * y._inverse()

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return y * x._inverse()

    def _inverse(self) -> "Quadratic":
        # 1/(a + b*sqrt(d)) = (a - b*sqrt(d)) / (a^2 - b^2 d)
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic scalar")
        return Quadratic(self.a / norm, -self.b / norm, self.d)

    def __neg__(self):
        return Quadratic(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    # -- comparisons ------------------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb if sa == 0 else sa
        # opposite signs: sign(a + b sqrt(d)) = sign(a) * sign(a^2 - b^2 d)
        norm = a * a - b * b * self.d
        return sa * ((norm > 0) - (norm < 0))

    def __eq__(self, other):
        if isinstance(other, Quadratic):
            if self.d == other.d:
                return self.a == other.a and self.b == other.b
            return self.b == 0 and other.b == 0 and self.a == other.a
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __lt__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return (x - y).sign() < 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"Quadratic({self.a!r}, {self.b!r}, d={self.d})"

    def __str__(self):
        return format_scalar(self)


Scalar = Union[Fraction, Quadratic, float]
Vector = tuple  # tuple[Scalar, ...]


def sign_of(x: Scalar) -> int:
    """Exact sign of a scalar: -1, 0, or +1 (native comparison for floats)."""
    if isinstance(x, Quadratic):
        return x.sign()
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def dot(u: Vector, v: Vector) -> Scalar:
    """Inner product of two scalar vectors, summed left to right in their
    own field; ``dot(v, v)`` is the squared norm."""
    total = None
    for a, b in zip(u, v):
        total = a * b if total is None else total + a * b
    return total


# -- field descriptor ------------------------------------------------------

_KINDS = ("rational", "quadratic", "float")


@dataclass(frozen=True)
class Field:
    """Descriptor of the active computation field."""

    kind: str
    d: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "quadratic":
            d = self.d
            if type(d) is not int or d < 2 or square_free_decomposition(d)[0] != 1:
                raise ValueError(
                    f"quadratic field needs a square-free d >= 2, got {d!r}"
                )
        elif self.d is not None:
            raise ValueError(f"field kind {self.kind!r} does not take d")

    @property
    def is_exact(self) -> bool:
        return self.kind != "float"

    @property
    def zero(self) -> Scalar:
        return 0.0 if self.kind == "float" else Fraction(0)

    @property
    def one(self) -> Scalar:
        return 1.0 if self.kind == "float" else Fraction(1)

    def coerce(self, value) -> Scalar:
        """Bring a value into this field, rejecting lossy conversions and
        booleans."""
        if isinstance(value, bool):
            raise TypeError(f"refusing to coerce the boolean {value!r} into a field")
        if isinstance(value, str):
            return parse_scalar(value, self)
        if self.kind == "float":
            if isinstance(value, (int, float, Fraction, Quadratic)):
                return _finite_float(value, value)
            raise TypeError(f"cannot coerce {value!r} into the float field")
        if isinstance(value, float):
            raise TypeError("refusing to coerce a float into an exact field")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, Fraction):
            return value
        if isinstance(value, Quadratic):
            if value.b == 0:
                return value.a
            if self.kind == "quadratic" and value.d == self.d:
                return value
            raise FieldMismatchError(
                f"value with sqrt({value.d}) does not belong to {self}"
            )
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def inv_sqrt(self, m: int) -> Scalar:
        """The scalar 1/sqrt(m), when it exists in this field."""
        if m < 1:
            raise ValueError(f"expected a positive integer, got {m}")
        if self.kind == "float":
            return 1.0 / math.sqrt(m)
        s, t = square_free_decomposition(m)
        if t == 1:
            return Fraction(1, s)
        if self.kind == "quadratic" and t == self.d:
            # 1/(s*sqrt(d)) = sqrt(d)/(s*d)
            return Quadratic(0, Fraction(1, s * t), t)
        raise ValueError(f"1/sqrt({m}) does not lie in {self}")

    def to_json(self) -> dict:
        if self.kind == "quadratic":
            return {"kind": "quadratic", "d": self.d}
        return {"kind": self.kind}

    @staticmethod
    def from_json(data: dict) -> "Field":
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError("field descriptor must be an object with 'kind'")
        kind = data["kind"]
        if kind == "quadratic":
            return Field("quadratic", data.get("d"))
        if "d" in data:
            raise ValueError(f"field kind {kind!r} does not take d")
        return Field(kind)

    def __str__(self):
        if self.kind == "quadratic":
            return f"Q(sqrt({self.d}))"
        return self.kind


RATIONAL = Field("rational")
FLOAT = Field("float")


def quadratic_field(d: int) -> Field:
    return Field("quadratic", d)


# -- literal grammar -------------------------------------------------------
#
#   rat     := ["-"] integer ["/" positive-integer]
#   scalar  := rat
#            | rat ("+"|"-") rat "*sqrt(" integer ")"
#            | rat "*sqrt(" integer ")"

_RAT = r"-?\d+(?:/\d+)?"
_RE_RAT = re.compile(rf"^({_RAT})$")
_RE_SUM = re.compile(rf"^({_RAT})([+-])({_RAT})\*sqrt\((\d+)\)$")
_RE_ROOT = re.compile(rf"^({_RAT})\*sqrt\((\d+)\)$")


def _parse_rat(text: str) -> Fraction:
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator in literal {text!r}")
    return Fraction(int(num), int(den or 1))


def _finite_float(value, text) -> float:
    """``float(value)``; ValueError naming ``text`` when it is NaN or
    infinite, or ``value`` is too large for a float."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"non-finite float value {text!r}")
    return x


def parse_scalar(text: str, field: Field) -> Scalar:
    """Parse a scalar literal; the sqrt argument must match the field's d.

    The float field additionally accepts plain decimal literals.
    """
    s = text.strip().replace(" ", "")
    a: Fraction | None = None
    b: Fraction | None = None
    d: int | None = None
    if m := _RE_RAT.match(s):
        a, b = _parse_rat(m.group(1)), Fraction(0)
    elif m := _RE_SUM.match(s):
        a = _parse_rat(m.group(1))
        b = _parse_rat(m.group(3))
        if m.group(2) == "-":
            b = -b
        d = int(m.group(4))
    elif m := _RE_ROOT.match(s):
        a, b, d = Fraction(0), _parse_rat(m.group(1)), int(m.group(2))
    elif field.kind == "float":
        try:
            value = float(s)
        except ValueError:
            raise ValueError(f"invalid scalar literal {text!r}") from None
        return _finite_float(value, text)
    else:
        raise ValueError(f"invalid scalar literal {text!r}")

    if d is not None:
        if field.kind == "quadratic":
            if d != field.d:
                raise ValueError(
                    f"sqrt({d}) in literal {text!r} but the field is {field}"
                )
            return field.coerce(Quadratic(a, b, d))
        if field.kind == "float":
            value = _finite_float(a, text) + _finite_float(b, text) * math.sqrt(d)
            return _finite_float(value, text)
        raise ValueError(f"literal {text!r} does not lie in {field}")
    if field.kind == "float":
        return _finite_float(a, text)
    return a


def format_scalar(x: Scalar) -> str:
    """Canonical literal form of a scalar (floats print as repr)."""
    if isinstance(x, Quadratic):
        if x.b == 0:
            return str(x.a)
        root = f"sqrt({x.d})"
        if x.a == 0:
            return f"{x.b}*{root}"
        sep = "+" if x.b > 0 else "-"
        return f"{x.a}{sep}{abs(x.b)}*{root}"
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    return repr(float(x))


# -- decimal rendering -----------------------------------------------------


def _fraction_decimal(x: Fraction, digits: int) -> str:
    q = round(x * 10**digits)  # exact, ties to even
    sign = "-" if q < 0 else ""
    q = abs(q)
    if digits == 0:
        return f"{sign}{q}"
    ip, fp = divmod(q, 10**digits)
    return f"{sign}{ip}.{fp:0{digits}d}"


def _quadratic_decimal(x: Quadratic, digits: int) -> str:
    if x.b == 0:
        return _fraction_decimal(x.a, digits)
    prec = digits + 20
    while True:
        scale = 10**prec
        root_floor = isqrt(x.d * scale * scale)
        lo = x.a + x.b * Fraction(root_floor, scale)
        hi = x.a + x.b * Fraction(root_floor + 1, scale)
        if x.b < 0:
            lo, hi = hi, lo
        s_lo = _fraction_decimal(lo, digits)
        s_hi = _fraction_decimal(hi, digits)
        if s_lo == s_hi:
            return s_lo
        prec *= 2  # value straddles a rounding boundary; sharpen the bracket


def to_decimal(x: Scalar, digits: int = 5) -> str:
    """Correctly rounded fixed-point decimal expansion of a scalar."""
    if digits < 0:
        raise ValueError("digits must be non-negative")
    if isinstance(x, Quadratic):
        return _quadratic_decimal(x, digits)
    if isinstance(x, (int, Fraction)):
        return _fraction_decimal(Fraction(x), digits)
    return f"{float(x):.{digits}f}"
