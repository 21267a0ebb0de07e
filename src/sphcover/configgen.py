"""Generator rules and the built-in point configurations.

A configuration is a finite origin-symmetric set of equal-norm vectors in
E^n.  It is described compactly by generator rules that expand through
coordinate permutations and sign patterns, mirroring how highly symmetric
point systems (root systems, scaled sign vectors) are usually written down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from . import _linalg
from .scalar import (
    FLOAT,
    Field,
    Quadratic,
    RATIONAL,
    Scalar,
    dot,
    format_scalar,
    quadratic_field,
    sign_of,
)

__all__ = [
    "ConfigurationError",
    "Configuration",
    "GeneratorRule",
    "Pattern",
    "SubsetSigns",
    "SubsetValues",
    "ValidationReport",
    "builtin_configuration",
    "builtin_dimensions",
    "config_from_json",
    "config_to_json",
    "expand",
    "load_configuration",
    "make_configuration",
    "validate",
]


class ConfigurationError(ValueError):
    """A configuration file or generator rule is malformed."""


@dataclass(frozen=True)
class Pattern:
    """A vector written (x1^n1, x2^n2, ...), closed under coordinate
    permutations and global negation."""

    entries: tuple  # tuple[(Scalar, int), ...]

    def __post_init__(self):
        for value, count in self.entries:
            if count < 1:
                raise ConfigurationError(f"pattern multiplicity {count} < 1")


@dataclass(frozen=True)
class SubsetSigns:
    """All vectors with `support` nonzero coordinates equal to +-value,
    the number of minus signs ranging over `sign_counts`.

    `value` None means the default 1/sqrt(support), which puts every
    expanded vector on the unit sphere.  `sign_counts` must be symmetric
    under k -> support - k; that is exactly origin-symmetry of the
    expansion.
    """

    support: int
    sign_counts: frozenset = dc_field(default=None)
    value: Scalar | None = None

    def __post_init__(self):
        if self.support < 1:
            raise ConfigurationError(f"support {self.support} < 1")
        counts = self.sign_counts
        if counts is None:
            counts = range(self.support + 1)
        counts = frozenset(k for k in counts if 0 <= k <= self.support)
        if not counts:
            raise ConfigurationError("sign_counts selects no vectors")
        if any(self.support - k not in counts for k in counts):
            raise ConfigurationError("sign_counts not negation-symmetric")
        object.__setattr__(self, "sign_counts", counts)
        if self.value is not None and sign_of(self.value) == 0:
            raise ConfigurationError("sign vector value must be nonzero")


@dataclass(frozen=True)
class SubsetValues:
    """All vectors with `a` on some `support` coordinates and `b` on the
    rest, together with their negatives."""

    support: int
    a: Scalar
    b: Scalar

    def __post_init__(self):
        if self.support < 1:
            raise ConfigurationError(f"support {self.support} < 1")
        if self.a == self.b and sign_of(self.a) == 0:
            raise ConfigurationError("subset_values with a = b = 0 is degenerate")


GeneratorRule = Union[Pattern, SubsetSigns, SubsetValues]


def _arrangements(counts: list):
    """Every sequence holding ``counts[r]`` entries r, each once, in
    lexicographic order (Narayana's next-permutation step)."""
    seq = [r for r, count in enumerate(counts) for _ in range(count)]
    while True:
        yield tuple(seq)
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])


def _expand_index(rule: GeneratorRule, n: int, field: Field) -> tuple:
    """One generator rule expanded as a table of scalars and a matrix of
    positions into it, one row per vector, in the order of :func:`expand`.

    Sign patterns are the bits of arange(2^support), the first support
    coordinate the most significant bit; the patterns of k minus signs in
    decreasing order of those integers are in the lexicographic order of
    ``combinations(support, k)``.
    """
    if isinstance(rule, Pattern):
        total = sum(count for _, count in rule.entries)
        if total != n:
            raise ConfigurationError(
                f"pattern multiplicities sum to {total}, expected {n}"
            )
        counts: dict = {}
        for value, count in rule.entries:
            value = field.coerce(value)
            counts[value] = counts.get(value, 0) + count
        # the values, then the negations that are not among them
        position = {x: i for i, x in enumerate(counts)}
        negation = [position.setdefault(-x, len(position)) for x in counts]
        table = list(position)
        dtype = _linalg.index_dtype(len(table))
        ranks = np.array(list(_arrangements(list(counts.values()))), dtype=dtype)
        # each arrangement followed by its negation, the first copy of each
        # distinct vector kept
        rows = np.stack((ranks, np.array(negation, dtype=dtype)[ranks]), axis=1)
        rows = rows.reshape(-1, n)
        _, first = np.unique(_linalg.row_keys(rows, len(table)), return_index=True)
        return table, rows[np.sort(first)]
    if not isinstance(rule, (SubsetSigns, SubsetValues)):
        raise TypeError(f"unknown generator rule {rule!r}")
    if rule.support > n:
        raise ConfigurationError(f"support {rule.support} exceeds dimension {n}")
    # the supports in lexicographic order, one row each
    supports = np.array(list(combinations(range(n), rule.support)))
    count = len(supports)
    if isinstance(rule, SubsetSigns):
        value = rule.value
        value = field.inv_sqrt(rule.support) if value is None else field.coerce(value)
        s = rule.support
        masks = np.arange(2**s)[::-1]
        bits = (masks[:, None] >> np.arange(s - 1, -1, -1)) & 1
        minus = bits.sum(axis=1)
        order = np.argsort(minus, kind="stable")
        order = order[np.isin(minus[order], list(rule.sign_counts))]
        signs = (1 + bits[order]).astype(np.int8)  # 1 plus, 2 minus
        rows = np.zeros((count, len(signs), n), dtype=np.int8)
        at = np.arange(count)[:, None, None], np.arange(len(signs))[:, None]
        rows[(*at, supports[:, None])] = signs
        return [field.zero, value, -value], rows.reshape(-1, n)
    a, b = field.coerce(rule.a), field.coerce(rule.b)
    rows = np.ones((count, n), dtype=np.int8)  # b everywhere, a on the support
    rows[np.arange(count)[:, None], supports] = 0
    # each vector followed by its negation
    return [a, b, -a, -b], np.stack((rows, rows + 2), axis=1).reshape(-1, n)


def expand(rule: GeneratorRule, n: int, field: Field) -> list:
    """Expand one generator rule into the full list of vectors in E^n.

    A pattern gives each distinct arrangement of its values once, in
    lexicographic order of the values' ranks (their first appearance in
    ``entries``, entries that repeat a value merged), each followed by its
    negation unless that came before.  Sign vectors go support by support
    in lexicographic order, by the number of minus signs within one; value
    vectors support by support, each followed by its negation.
    """
    table, rows = _expand_index(rule, n, field)
    return [tuple(map(table.__getitem__, row)) for row in rows.tolist()]


def _value_key(field: Field):
    """The identity of a coordinate value: the value itself on exact fields;
    on the float field the value rounded to 12 decimals, -0.0 made 0.0."""
    if field.is_exact:
        return lambda x: x
    return lambda x: round(x, 12) + 0.0


def _sorted_table(values: list, index, field: Field) -> tuple:
    """``_linalg.value_table`` with values merged by ``_value_key``: on the
    float field those equal to 12 decimals are one value, the first one
    kept, and a float zero is 0.0."""
    if field.is_exact:
        return _linalg.value_table(values, index)
    values = [x + 0.0 for x in values]
    return _linalg.value_table(values, index, _value_key(field))


class Configuration:
    """A finite origin-symmetric set of equal-norm vectors plus its
    generator description.

    The points are held in ``table``: the distinct coordinate values in
    ascending order and an integer matrix (int8 for at most 128 values) of
    each point's positions into them, one row per point.  As the values
    are in order, the positions are also their ranks.  ``points``, the
    scalar tuples, is built when it is first read.

    ``Configuration(dimension, field, rules, points, norm_sq)`` takes the
    points themselves; their table is built from every coordinate when it
    is first needed.  :func:`make_configuration` builds the table straight
    from generator rules.
    """

    def __init__(
        self,
        dimension: int,
        field: Field,
        rules: tuple,
        points: tuple,
        norm_sq: Scalar,
        label: str | None = None,
    ):
        self.dimension, self.field, self.rules = dimension, field, rules
        self.norm_sq, self.label = norm_sq, label
        self.points = tuple(points)

    def __repr__(self):
        return (
            f"Configuration(dimension={self.dimension}, field={self.field}, "
            f"cardinality={self.cardinality}, label={self.label!r})"
        )

    @classmethod
    def _from_table(cls, dimension, field, rules, table, norm_sq, label):
        config = cls.__new__(cls)
        config.dimension, config.field, config.rules = dimension, field, rules
        config.norm_sq, config.label = norm_sq, label
        config.table = table
        return config

    @cached_property
    def table(self) -> tuple:
        """``(values, index)`` of points given by hand.  A point of the
        wrong length is a :class:`ConfigurationError`."""
        if any(len(p) != self.dimension for p in self.points):
            raise ConfigurationError("point dimension mismatch")
        values = list(chain.from_iterable(self.points))
        index = np.arange(len(values)).reshape(-1, self.dimension)
        return _sorted_table(values, index, self.field)

    @cached_property
    def points(self) -> tuple:
        values, index = self.table
        return tuple(tuple(map(values.__getitem__, row)) for row in index.tolist())

    @property
    def cardinality(self) -> int:
        return len(self.table[1])

    @cached_property
    def negation_closed(self) -> bool:
        """Is every table value's negation in the table?  Then the value at
        position i negates to the one at position len(values) - 1 - i."""
        key = _value_key(self.field)
        keys = [key(x) for x in self.table[0]]
        return all(-x == y for x, y in zip(keys, reversed(keys)))

    @cached_property
    def lift(self) -> _linalg.Lift:
        """The points lifted once to the kernels' integer form (float64 on
        the float field); the exact checks that read every point use it."""
        return _linalg.lift(*self.table, self.field)


def make_configuration(
    dimension: int,
    field: Field,
    rules: Iterable[GeneratorRule],
    label: str | None = None,
) -> Configuration:
    """Expand rules on one value table, merge and deduplicate, and fix the
    common norm.

    Each rule's table is cut to the values its vectors use, the tables are
    merged by ``_sorted_table`` in the order of the rules (float values
    equal to 12 decimals are one value, the first one listed kept), and the
    points are the distinct rows of the position matrix in ascending order
    of their ``_linalg.row_keys``, which is ``sorted(set(points))``.
    """
    rules = tuple(rules)
    if not rules:
        raise ConfigurationError("configuration has no points")
    values, blocks = [], []
    for rule in rules:
        table, rows = _expand_index(rule, dimension, field)
        used = np.flatnonzero(np.bincount(rows.ravel(), minlength=len(table)))
        blocks.append(np.searchsorted(used, rows) + len(values))
        values += map(table.__getitem__, used.tolist())
    values, index = _sorted_table(values, np.concatenate(blocks), field)
    _, first = np.unique(_linalg.row_keys(index, len(values)), return_index=True)
    index = index[first]
    point = tuple(map(values.__getitem__, index[0].tolist()))
    return Configuration._from_table(
        dimension, field, rules, (values, index), dot(point, point), label
    )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failure: str | None = None


def validate(config: Configuration) -> ValidationReport:
    """Check origin-symmetry, equal norms, distinctness, and full span.

    Distinctness and origin-symmetry are read on the position rows' keys
    (``_linalg.row_keys``): a point negates to the row of positions
    top - i when the table is closed under negation, and to no point when
    it is not.  Full linear span is a necessary condition for the origin to
    be interior to the convex hull; the conclusive boundedness check happens
    during vertex enumeration.
    """
    try:
        values, index = config.table
    except ConfigurationError as exc:
        return ValidationReport(False, str(exc))
    if not len(index):
        return ValidationReport(False, "configuration has no points")
    keys = np.sort(_linalg.row_keys(index, len(values)))
    if (keys[1:] == keys[:-1]).any():
        return ValidationReport(False, "points are not pairwise distinct")
    # negation permutes distinct points exactly when it maps their keys onto
    # the same sorted keys
    if not config.negation_closed or not np.array_equal(
        np.sort(_linalg.row_keys(len(values) - 1 - index, len(values))), keys
    ):
        return ValidationReport(False, "not origin-symmetric")
    lift = config.lift
    kernel = lift.kernel
    if config.field.is_exact:
        # every scale^2 |p|^2 equals the first (the kernel layout of a value
        # is unique), and the first, converted once, is the norm
        norms = kernel.squared_norms(lift.vectors)
        first = kernel.to_scalar(norms[:1].tolist()[0])
        if (norms != norms[:1]).any() or first != config.norm_sq * lift.scale**2:
            return ValidationReport(False, "points do not share one norm")
        if sign_of(config.norm_sq) == 0:
            return ValidationReport(False, "points have zero norm")
    else:
        ref = float(config.norm_sq)
        if not math.isfinite(ref):
            return ValidationReport(False, "the squared norm of the points overflows")
        norms = kernel.squared_norms(lift.vectors)
        if (abs(norms - ref) > 1e-9 * max(1.0, abs(ref))).any():
            return ValidationReport(False, "points do not share one norm")
        if ref <= 0:
            return ValidationReport(False, "points have zero norm")
    # rows are put in kernel form a block at a time, as first_cone reads
    # them: it stops at its last pick
    stack = lift.stack()
    blocks = _linalg.row_blocks(len(stack), config.dimension)
    rows = chain.from_iterable(kernel.primitive(stack[b]) for b in blocks)
    picks, _, _ = kernel.first_cone(rows, config.dimension)
    if len(picks) < config.dimension:
        return ValidationReport(False, "points do not span the whole space")
    return ValidationReport(True)


# -- built-in configurations -------------------------------------------------
#
# One entry per dimension 5..15.  Each certifies a covering of the unit
# sphere by fewer than 2^n symmetric caps; fields are the smallest in which
# the covering radius is exactly representable (float beyond dimension 10).

def _even(n: int) -> frozenset:
    return frozenset(range(0, n + 1, 2))


def _builtin_recipe(n: int):
    S, V = SubsetSigns, SubsetValues
    if n == 5:
        return RATIONAL, [V(2, 2, 0), V(1, 2, -1)]
    if n == 6:
        return quadratic_field(6), [S(1), S(6, _even(6))]
    if n == 7:
        return RATIONAL, [V(2, 17, -1), V(2, 13, -7), V(1, 23, -3), V(1, 17, 7)]
    if n == 8:
        return RATIONAL, [S(2, value=2), S(8, _even(8), 1)]
    if n == 9:
        return quadratic_field(2), [S(2), S(9, frozenset({0, 2, 4, 5, 7, 9}))]
    if n == 10:
        inv_sqrt5 = Quadratic(0, Fraction(1, 5), 5)
        return quadratic_field(5), [S(2, value=1), S(10, _even(10), inv_sqrt5)]
    if n == 11:
        return FLOAT, [S(1), S(3), S(11, frozenset({1, 4, 7, 10}))]
    if n == 12:
        return FLOAT, [S(1), S(3), S(12, _even(12))]
    if n == 13:
        return FLOAT, [
            S(1),
            S(3),
            S(13, frozenset({0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13})),
        ]
    if n == 14:
        return FLOAT, [S(1), S(3), S(14, _even(14))]
    if n == 15:
        return FLOAT, [
            S(1),
            S(3, frozenset({1, 2})),
            S(4, frozenset({0, 4})),
            S(15, frozenset({0, 1, 3, 6, 9, 12, 14, 15})),
        ]
    raise ValueError(f"no built-in configuration for dimension {n}")


def builtin_dimensions() -> range:
    return range(5, 16)


def _rule_to_float(rule: GeneratorRule) -> GeneratorRule:
    if isinstance(rule, Pattern):
        return Pattern(tuple((float(v), c) for v, c in rule.entries))
    if isinstance(rule, SubsetSigns):
        value = None if rule.value is None else float(rule.value)
        return SubsetSigns(rule.support, rule.sign_counts, value)
    return SubsetValues(rule.support, float(rule.a), float(rule.b))


def builtin_configuration(n: int) -> Configuration:
    """The built-in configuration for dimension n in 5..15.

    :func:`config_to_float` converts it to doubles, which trades the exact
    certificate for speed.
    """
    if n not in builtin_dimensions():
        raise ValueError(f"built-in configurations cover dimensions 5..15, got {n}")
    field, rules = _builtin_recipe(n)
    return make_configuration(n, field, rules, label=f"table1:{n}")


def config_to_float(config: Configuration) -> Configuration:
    """Rebuild a configuration on the float backend."""
    if config.field.kind == "float":
        return config
    return make_configuration(
        config.dimension,
        FLOAT,
        [_rule_to_float(r) for r in config.rules],
        label=config.label,
    )


# -- JSON configuration files ------------------------------------------------


def _rule_to_json(rule: GeneratorRule) -> dict:
    if isinstance(rule, Pattern):
        return {
            "type": "pattern",
            "entries": [[format_scalar(v), c] for v, c in rule.entries],
        }
    if isinstance(rule, SubsetSigns):
        out = {
            "type": "subset_signs",
            "support": rule.support,
            "sign_counts": sorted(rule.sign_counts),
        }
        if rule.value is not None:
            out["value"] = format_scalar(rule.value)
        return out
    return {
        "type": "subset_values",
        "support": rule.support,
        "a": format_scalar(rule.a),
        "b": format_scalar(rule.b),
    }


def config_to_json(config: Configuration) -> dict:
    return {
        "dimension": config.dimension,
        "field": config.field.to_json(),
        "generators": [_rule_to_json(r) for r in config.rules],
    }


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ConfigurationError(f"{context}: missing field {key!r}")
    return data[key]


def _whole(value, what: str) -> int:
    """A JSON number with no fractional part as an int; booleans, other
    numbers and other values are a :class:`ConfigurationError`."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{what}: expected an integer, got {value!r}")
    return value


def config_from_json(data: dict, label: str | None = None) -> Configuration:
    if not isinstance(data, dict):
        raise ConfigurationError("configuration: expected a JSON object")
    dimension = _whole(_require(data, "dimension", "configuration"), "dimension")
    if dimension < 1:
        raise ConfigurationError("dimension: expected a positive integer")
    try:
        field = _require(data, "field", "configuration")
        if isinstance(field, dict) and "d" in field:
            field = {**field, "d": _whole(field["d"], "d")}
        field = Field.from_json(field)
    except ValueError as exc:
        raise ConfigurationError(f"field: {exc}") from exc
    gens = _require(data, "generators", "configuration")
    if not isinstance(gens, list) or not gens:
        raise ConfigurationError("generators: expected a non-empty list")
    rules = []
    for i, g in enumerate(gens):
        ctx = f"generators[{i}]"
        if not isinstance(g, dict):
            raise ConfigurationError(f"{ctx}: expected an object")
        kind = _require(g, "type", ctx)
        try:
            if kind == "pattern":
                entries = [
                    (field.coerce(v), _whole(c, "multiplicity"))
                    for v, c in _require(g, "entries", ctx)
                ]
                rules.append(Pattern(tuple(entries)))
            elif kind == "subset_signs":
                counts = g.get("sign_counts")
                if counts is not None:
                    counts = frozenset(_whole(k, "sign_counts") for k in counts)
                rules.append(
                    SubsetSigns(
                        _whole(_require(g, "support", ctx), "support"),
                        counts,
                        None if "value" not in g else field.coerce(g["value"]),
                    )
                )
            elif kind == "subset_values":
                rules.append(
                    SubsetValues(
                        _whole(_require(g, "support", ctx), "support"),
                        field.coerce(_require(g, "a", ctx)),
                        field.coerce(_require(g, "b", ctx)),
                    )
                )
            else:
                raise ConfigurationError(f"unknown generator type {kind!r}")
        except ConfigurationError as exc:
            raise ConfigurationError(f"{ctx}: {exc}") from None
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(f"{ctx}: {exc}") from None
    try:
        return make_configuration(dimension, field, rules, label=label)
    except ConfigurationError as exc:
        raise ConfigurationError(f"generators: {exc}") from None


def load_configuration(source: str | Path) -> Configuration:
    """Load a configuration from a JSON file or a ``table1:<n>`` name."""
    text = str(source)
    if text.startswith("table1:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(f"bad built-in name {text!r}") from None
        try:
            return builtin_configuration(n)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
    path = Path(source)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
    return config_from_json(data, label=str(source))
