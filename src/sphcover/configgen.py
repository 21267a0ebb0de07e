"""Generator rules and the built-in point configurations.

A configuration is a finite origin-symmetric set of equal-norm vectors in
E^n.  It is described compactly by generator rules that expand through
coordinate permutations and sign patterns, mirroring how highly symmetric
point systems (root systems, scaled sign vectors) are usually written down.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Iterable, Union

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


def _signs_vectors(n: int, support: int, counts, value, zero) -> list:
    out = []
    neg = -value
    for combo in combinations(range(n), support):
        for k in sorted(counts):
            for flips in combinations(combo, k):
                vec = [zero] * n
                for i in combo:
                    vec[i] = value
                for i in flips:
                    vec[i] = neg
                out.append(tuple(vec))
    return out


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


def expand(rule: GeneratorRule, n: int, field: Field) -> list:
    """Expand one generator rule into the full list of vectors in E^n.

    A pattern gives each distinct arrangement of its values once, in
    lexicographic order of the values' ranks (their first appearance in
    ``entries``, entries that repeat a value merged), each followed by its
    negation unless that came before.
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
        values = list(counts)
        seen = set()
        out = []
        for ranks in _arrangements(list(counts.values())):
            vec = tuple(map(values.__getitem__, ranks))
            for vec in (vec, tuple(-x for x in vec)):
                if vec not in seen:
                    seen.add(vec)
                    out.append(vec)
        return out
    if isinstance(rule, SubsetSigns):
        if rule.support > n:
            raise ConfigurationError(f"support {rule.support} exceeds dimension {n}")
        value = rule.value
        value = field.inv_sqrt(rule.support) if value is None else field.coerce(value)
        return _signs_vectors(n, rule.support, rule.sign_counts, value, field.zero)
    if isinstance(rule, SubsetValues):
        if rule.support > n:
            raise ConfigurationError(f"support {rule.support} exceeds dimension {n}")
        a, b = field.coerce(rule.a), field.coerce(rule.b)
        out = []
        for combo in combinations(range(n), rule.support):
            vec = [b] * n
            for i in combo:
                vec[i] = a
            out.append(tuple(vec))
            out.append(tuple(-x for x in vec))
        return out
    raise TypeError(f"unknown generator rule {rule!r}")


@dataclass(frozen=True)
class Configuration:
    """A finite origin-symmetric set of equal-norm vectors plus its
    generator description."""

    dimension: int
    field: Field
    rules: tuple
    points: tuple
    norm_sq: Scalar
    label: str | None = None

    @property
    def cardinality(self) -> int:
        return len(self.points)

    @cached_property
    def lift(self) -> _linalg.Lift:
        """The points lifted once to the kernels' integer form (float64 on
        the float field); the exact checks that read every point use it."""
        return _linalg.lift(self.points, self.field)


def make_configuration(
    dimension: int,
    field: Field,
    rules: Iterable[GeneratorRule],
    label: str | None = None,
) -> Configuration:
    """Expand rules, merge and deduplicate, and fix the common norm."""
    rules = tuple(rules)
    expanded = [p for rule in rules for p in expand(rule, dimension, field)]
    if field.is_exact or not expanded:
        keys = expanded
    else:
        # float points that agree to 12 decimals are one point, as in validate
        keys, _ = _float_row_keys(expanded)
    merged = {}
    for key, point in zip(keys, expanded):
        merged.setdefault(key, point)
    points = sorted(merged.values())
    if not points:
        raise ConfigurationError("configuration has no points")
    norm_sq = dot(points[0], points[0])
    return Configuration(dimension, field, rules, tuple(points), norm_sq, label)


def _float_row_keys(a) -> tuple:
    """The bytes of each float row rounded to 12 decimals, and of its
    negation; -0.0 becomes 0.0, so the bytes are equal exactly when the
    rounded rows are."""
    import numpy as np

    rounded = np.round(a, 12) + 0.0
    row = np.dtype((np.void, rounded.itemsize * rounded.shape[1]))
    keys = np.ascontiguousarray(rounded).view(row).ravel().tolist()
    negated = np.ascontiguousarray(0.0 - rounded).view(row).ravel().tolist()
    return keys, negated


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failure: str | None = None


def validate(config: Configuration) -> ValidationReport:
    """Check origin-symmetry, equal norms, distinctness, and full span.

    Full linear span is a necessary condition for the origin to be interior
    to the convex hull; the conclusive boundedness check happens during
    vertex enumeration.
    """
    points = config.points
    if not points:
        return ValidationReport(False, "configuration has no points")
    if any(len(p) != config.dimension for p in points):
        return ValidationReport(False, "point dimension mismatch")
    field = config.field
    lift = config.lift
    if field.is_exact:
        keys, negated = lift.row_keys()
    else:
        keys, negated = _float_row_keys(lift.a)
    seen = set(keys)
    if len(seen) != len(points):
        return ValidationReport(False, "points are not pairwise distinct")
    if any(key not in seen for key in negated):
        return ValidationReport(False, "not origin-symmetric")
    if field.is_exact:
        # scale^2 |p|^2 = u + w sqrt(d) must be the integer pair of the norm
        u, w = lift.squared_norms()
        target = config.norm_sq * lift.scale**2
        ta, tb = (target.a, target.b) if isinstance(target, Quadratic) else (target, 0)
        if (u != ta).any() or (w is not None and (w != tb).any()):
            return ValidationReport(False, "points do not share one norm")
        if sign_of(config.norm_sq) == 0:
            return ValidationReport(False, "points have zero norm")
    else:
        ref = float(config.norm_sq)
        norms = (lift.a * lift.a).sum(axis=1)
        if (abs(norms - ref) > 1e-9 * max(1.0, abs(ref))).any():
            return ValidationReport(False, "points do not share one norm")
        if ref <= 0:
            return ValidationReport(False, "points have zero norm")
    kernel = _linalg.kernel_for(config.field)
    picks, _, _ = kernel.first_cone(
        map(kernel.vec_from_scalars, points), config.dimension
    )
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


def config_from_json(data: dict, label: str | None = None) -> Configuration:
    if not isinstance(data, dict):
        raise ConfigurationError("configuration: expected a JSON object")
    dimension = _require(data, "dimension", "configuration")
    if not isinstance(dimension, int) or dimension < 1:
        raise ConfigurationError("dimension: expected a positive integer")
    try:
        field = Field.from_json(_require(data, "field", "configuration"))
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
                entries = _require(g, "entries", ctx)
                rules.append(
                    Pattern(tuple((field.coerce(v), int(c)) for v, c in entries))
                )
            elif kind == "subset_signs":
                counts = g.get("sign_counts")
                rules.append(
                    SubsetSigns(
                        int(_require(g, "support", ctx)),
                        None if counts is None else frozenset(int(k) for k in counts),
                        None if "value" not in g else field.coerce(g["value"]),
                    )
                )
            elif kind == "subset_values":
                rules.append(
                    SubsetValues(
                        int(_require(g, "support", ctx)),
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
