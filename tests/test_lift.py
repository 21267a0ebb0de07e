"""The configuration lift and the exact checks that read it.

Each check is compared with a pure-Python reference computed here on the
configuration's scalars, on the int64 path and on the Python-int path.
"""

import ast
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphcover import _linalg, polytope
from sphcover.configgen import (
    Configuration,
    SubsetSigns,
    builtin_configuration,
    make_configuration,
    validate,
)
from sphcover.covering import (
    _certify_vertices,
    _orbit_representatives,
    covering_radius,
    deep_hole_check,
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
from sphcover.scalar import FLOAT, RATIONAL, Quadratic, dot, quadratic_field, sign_of

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
    small = kernel.sign(np.array(pairs, dtype=np.int64))
    # the same values times 2^40 no longer square inside int64
    big = kernel.sign(np.array([[x << 40, y << 40] for x, y in pairs], dtype=object))
    assert small.tolist() == want
    assert big.tolist() == want


def as_kernel_array(values):
    """Integers as an int64 array when they fit, else as Python ints."""
    fits = all(abs(x) < 2**63 for x in np.ravel(np.array(values, dtype=object)))
    return np.array(values, dtype=np.int64 if fits else object)


@st.composite
def planted(draw, shape):
    """An integer array of ``shape`` with entries of one drawn size 2^e, so
    that the bound ``classify`` takes of a product falls on either side of
    2^62."""
    size = 2 ** draw(st.integers(min_value=0, max_value=62))
    entry = st.integers(min_value=-size, max_value=size)
    values = draw(st.lists(entry, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=object).reshape(shape).tolist()


def reference_products(rays, rows, d):
    """ray . row for each ray and each row, on Fractions over Q (d None) and
    on Quadratics over Q(sqrt d), where an entry without (a, b) parts is
    read as (a, 0)."""

    def scalar(x):
        if d is None:
            return F(x)
        return Quadratic(*x, d) if isinstance(x, list) else Quadratic(x, 0, d)

    return [
        [sum((scalar(x) * scalar(y) for x, y in zip(ray, row)), F(0)) for row in rows]
        for ray in rays
    ]


def check_classify(d, rays, rows, rational):
    """The one exact product: a stack of rows against per-row calls and
    against the products of Fractions and Quadratics; ``rational`` rays
    over Q(sqrt d) have no (a, b) axis."""
    kernel = _linalg.kernel_for(RATIONAL if d is None else quadratic_field(d))
    want = reference_products(rays, rows, d)
    ray_array, row_array = as_kernel_array(rays), as_kernel_array(rows)
    got_rays, products, signs = kernel.classify(ray_array, row_array)
    got = [[kernel.to_scalar(x) for x in p] for p in products.tolist()]
    assert got == want
    assert signs.tolist() == [[sign_of(x) for x in row] for row in want]
    read = [[[x, 0] for x in ray] for ray in rays] if rational and d else rays
    assert got_rays.tolist() == read
    for i, row in enumerate(row_array):
        _, single, single_signs = kernel.classify(ray_array, row)
        assert list(map(kernel.to_scalar, single.tolist())) == list(
            map(kernel.to_scalar, products[:, i].tolist())
        )
        assert single_signs.tolist() == signs[:, i].tolist()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([None, 2, 5]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
    st.data(),
)
def test_classify_matches_scalar_products(d, count, rows_count, width, rational, data):
    parts = () if d is None else (2,)
    rays = data.draw(planted((count, width) + (() if rational else parts)))
    rows = data.draw(planted((rows_count, width) + parts))
    check_classify(d, rays, rows, rational)


# one row of width w against rays of entries 1 (or (1, 0)): the rows'
# entries sit just under the size at which classify, were its width the
# number of rows (1), would keep int64 where the products leave it; over
# Q the product 5 (2^61 - 1), over Q(sqrt 2) the product 1 - 2.4e9 sqrt 2,
# whose a^2 - 2 b^2 ``signs`` takes is below -2^63
WIDE = [[1, -3 * 10**8]] + [[0, -3 * 10**8]] * 7


@pytest.mark.parametrize(
    "d, rays, rows, rational",
    [
        (None, [[1] * 5], [[2**61 - 1] * 5], False),
        (2, [[[1, 0]] * 8], [WIDE], False),
        (2, [[1] * 8], [WIDE], True),
    ],
    ids=["Q", "d2", "d2-rational-rays"],
)
def test_classify_width_bound(d, rays, rows, rational):
    check_classify(d, rays, rows, rational)


# -- the dtype rules ------------------------------------------------------------


def planted_stack(d, count, width, top):
    """A ``count`` x ``width`` int64 stack of small entries (parts over
    Q(sqrt d)) whose largest absolute entry is ``top``, planted once as a
    negative a part and, over Q(sqrt d), once as a b part."""
    stack = np.ones((count, width) + (() if d is None else (2,)), dtype=np.int64)
    stack.flat[0] = -top
    stack.flat[-1] = top
    return stack


# the documented bound of each exact dtype rule, with a stack of the planted
# size x as the call's ray (or vector) stack and small other entries: int64
# exactly when it is below 2^62.  g is 1 + d over Q(sqrt d), 1 over Q.
ROW_TOP, S_TOP = 3, 2


def classify_rule(d, width, x):
    kernel = _linalg.kernel_for(RATIONAL if d is None else quadratic_field(d))
    rays = planted_stack(d, 2, width, x)
    rows = planted_stack(d, 3, width, ROW_TOP)
    return kernel.classify(rays, rows)[0].dtype


def classify_bound(d, width, x):
    # a product is at most S = w g max(1, |row|) |ray|; a combined entry
    # 2 g S |ray|, and Q(sqrt d)'s signs square a product, g S^2
    if d is None:
        return 2 * width * ROW_TOP * x * x
    size = width * (1 + d) * ROW_TOP * x
    return (1 + d) * size * max(size, 2 * x)


def pair_signs_rule(d, width, x):
    kernel = _linalg.kernel_for(RATIONAL if d is None else quadratic_field(d))
    rays = planted_stack(d, 3, width, x)
    return kernel.pair_signs(rays, planted_stack(d, 3, width, ROW_TOP)).dtype


def pair_signs_bound(d, width, x):
    # S = w g max(1, |row|) max(1, |ray|), squared by Q(sqrt d)'s signs
    if d is None:
        return width * ROW_TOP * x
    size = width * (1 + d) * ROW_TOP * x
    return (1 + d) * size * size


def squared_norms_rule(d, width, x):
    kernel = _linalg.kernel_for(RATIONAL if d is None else quadratic_field(d))
    return kernel.squared_norms(planted_stack(d, 3, width, x)).dtype


def squared_norms_bound(d, width, x):
    return width * (1 if d is None else 1 + d) * x * x


def normal_form_rule(d, width, x):
    kernel = _linalg.kernel_for(quadratic_field(d))
    s = planted_stack(d, 3, 1, S_TOP)[:, 0]
    return kernel.normal_form(planted_stack(d, 3, width, x), s).dtype


def normal_form_bound(d, width, x):
    # the products of conj(s) and the vectors, and the norms of s
    return (1 + d) * S_TOP * max(S_TOP, x)


def quotient_rows_rule(d, width, x):
    kernel = _linalg.kernel_for(RATIONAL if d is None else quadratic_field(d))
    # one row of parts per coordinate x / t, as ``vertex_table`` reads them
    x, t = planted_stack(d, 4, 1, x), planted_stack(d, 4, 1, 1)
    return kernel.quotient_rows(x.reshape(4, -1), t.reshape(4, -1)).dtype


def quotient_rows_bound(d, width, x):
    # over Q the row is the parts themselves, which stay as they are
    return 0 if d is None else (1 + d) * x * x


def largest_below(bound, limit=2**62):
    """The largest x >= 1 with bound(x) < limit, for a nondecreasing bound."""
    lo, hi = 1, 2
    while bound(hi) < limit:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bound(mid) < limit else (lo, mid)
    return lo


RULES = {
    "classify": (classify_rule, classify_bound),
    "pair_signs": (pair_signs_rule, pair_signs_bound),
    "squared_norms": (squared_norms_rule, squared_norms_bound),
    "normal_form": (normal_form_rule, normal_form_bound),
    "quotient_rows": (quotient_rows_rule, quotient_rows_bound),
}
# Q has no normal form beyond its primitive one
CASES = [(r, d) for r in RULES for d in (None, 2, 5) if d or r != "normal_form"]


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize(
    "rule, d", CASES, ids=[f"{r}-{'Q' if d is None else f'd{d}'}" for r, d in CASES]
)
def test_exact_dtype_rules(rule, d, width):
    """Each exact rule keeps int64 exactly when its documented bound is
    below 2^62: entries planted at the largest size that keeps it below,
    and one more (entries of 2^62 and past it where the bound is 0)."""
    call, bound = RULES[rule]
    x = largest_below(lambda x: bound(d, width, x)) if bound(d, width, 2) else 2**62
    for size in (x, x + 1):
        fits = bound(d, width, size) < 2**62
        assert call(d, width, size) == (np.int64 if fits else object)
    assert bound(d, width, x + 1) >= 2**62 or not bound(d, width, 2)


def int_dtype_callers(path: Path) -> set:
    """The functions of a module, as ``Class.function``, that call
    ``_linalg._int_dtype``: by its bare name in ``_linalg`` or where it is
    imported, as ``_linalg._int_dtype`` anywhere.  A module that defines its
    own ``_int_dtype`` (the oracle, which shares no code with the kernels)
    calls that one by the bare name."""
    tree = ast.parse(path.read_text())
    own = path.name != "_linalg.py" and any(
        isinstance(node, ast.FunctionDef) and node.name == "_int_dtype"
        for node in tree.body
    )
    callers = set()

    def visit(node, names):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names = names + [node.name]
        if isinstance(node, ast.Call):
            func = node.func
            bare = isinstance(func, ast.Name) and func.id == "_int_dtype" and not own
            dotted = isinstance(func, ast.Attribute) and func.attr == "_int_dtype"
            if bare or dotted:
                callers.add(".".join(names))
        for child in ast.iter_child_nodes(node):
            visit(child, names)

    visit(tree, [])
    return callers


def test_one_routine_picks_the_exact_dtypes():
    """Every exact dtype comes from ``_ExactKernel.dtype``'s one bound; only
    ``Lift.rays``, which narrows rays already made, reads ``_int_dtype``
    apart from it."""
    src = Path(_linalg.__file__).parent
    callers = {
        f"{path.stem}:{name}"
        for path in sorted(src.glob("*.py"))
        for name in int_dtype_callers(path)
    }
    assert callers == {"_linalg:_ExactKernel.dtype", "_linalg:Lift.rays"}


# -- exact signs from one float64 product ---------------------------------------

# a unit of Z[sqrt d] for each d, a^2 - d b^2 = +-1
UNITS = {2: (1, 1), 3: (2, 1), 5: (2, 1)}


def unit_conjugate(d, power):
    """a - b sqrt(d) for (a + b sqrt(d)) = unit^power: a field value of size
    1 / (2 a) whose two parts, a and b sqrt(d), cancel."""
    u, v = UNITS[d]
    a, b = 1, 0
    for _ in range(power):
        a, b = a * u + d * b * v, a * v + b * u
    return [a, -b]


def cancelling_powers(d):
    """The powers whose ``unit_conjugate`` has a from 2^52 to 2^60."""
    return [k for k in range(80) if 2**52 <= unit_conjugate(d, k)[0] <= 2**60]


@st.composite
def sign_cases(draw, d):
    """Rays and rows of one width with small entries, plus planted exact
    zeros (a row orthogonal to a ray, the zero row), entries whose float64
    product has the wrong sign or none, and now and then entries past
    float64: one ray and two rows holding 2^h, h 300 (a finite float
    product), 520 (products past float64's range) or 1100 (no float)."""
    width = draw(st.integers(min_value=1, max_value=4))
    zero = 0 if d is None else [0, 0]
    part = st.integers(min_value=-(2**20), max_value=2**20)
    entry = part if d is None else st.lists(part, min_size=2, max_size=2)
    vector = st.lists(entry, min_size=width, max_size=width)
    rays = draw(st.lists(vector, max_size=5))
    rows = draw(st.lists(vector, max_size=5)) + [[zero] * width]
    if rays and width >= 2:
        r = rays[0]
        minus = -r[0] if d is None else [-r[0][0], -r[0][1]]
        rows.append([r[1], minus] + [zero] * (width - 2))
    if d is None and width >= 3:
        # (2^e + s/2 + 1) - (2^e + s) + (s/2 - 2) = -1 with s = 2^(e-52), the
        # spacing of floats at 2^e: the first entry rounds up by s/2 - 1,
        # so summed in order the floats give s/2 - 2 >= 0
        e = draw(st.integers(min_value=54, max_value=60))
        s = 2 ** (e - 52)
        rays.append([2**e + s // 2 + 1, -(2**e + s), s // 2 - 2] + [0] * (width - 3))
        rows += [[1, 1, 1] + [0] * (width - 3), [-1, -1, -1] + [0] * (width - 3)]
    elif d is not None:
        power = draw(st.sampled_from(cancelling_powers(d)))
        rays.append([unit_conjugate(d, power)] + [zero] * (width - 1))
        rows += [[[1, 0]] + [zero] * (width - 1), [[-1, 0]] + [zero] * (width - 1)]
    huge = draw(st.sampled_from([None, None, 300, 520, 1100]))
    if huge is not None:
        big = 2**huge if d is None else [0, 2**huge]
        rays.append([big] + [zero] * (width - 1))
        rows.append([zero] * (width - 1) + [big])
        rows.append([big] * width)
    return width, rays, rows


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([None, 2, 3, 5]), st.data())
def test_product_signs_match_python_int_products(d, data):
    """``product_signs`` against the signs of the products of Fractions or
    Quadratics, on int64 stacks (when the entries fit) and on Python-int
    stacks alike."""
    width, rays, rows = data.draw(sign_cases(d))
    kernel = _linalg.kernel_for(RATIONAL if d is None else quadratic_field(d))
    want = [[sign_of(x) for x in row] for row in reference_products(rays, rows, d)]
    parts = () if d is None else (2,)
    for dtype in (np.int64, object):
        try:
            ray_array = np.array(rays, dtype=dtype).reshape((len(rays), width) + parts)
            row_array = np.array(rows, dtype=dtype).reshape((len(rows), width) + parts)
        except OverflowError:  # entries past int64
            continue
        assert kernel.product_signs(ray_array, row_array).tolist() == want


@pytest.mark.parametrize(
    "d, power, dtype",
    [(2, 43, np.int64), (2, 46, object), (5, 26, np.int64), (5, 28, object)],
)
def test_product_signs_where_float_signs_are_wrong(d, power, dtype):
    """The float64 product of a unit's conjugate with +-1 has the opposite
    sign of the exact one; only the exact recompute gets it right."""
    kernel = _linalg.kernel_for(quadratic_field(d))
    value = unit_conjugate(d, power)
    rays = np.array([[value]], dtype=dtype)
    rows = np.array([[[1, 0]], [[-1, 0]]], dtype=dtype)
    want = Quadratic(*value, d).sign()
    floats = kernel.floats(rays)[0] @ kernel.floats(rows)[0].T
    assert np.sign(floats).tolist() == [[-want, want]]
    assert kernel.product_signs(rays, rows).tolist() == [[want, -want]]


@st.composite
def repeated_rows(draw):
    """Integer rows of one width drawn from a pool of a few, with entries
    of one drawn size 2^e, negative too: small ones half the time, so that
    rows collide in a base too small for negative digits, and past 2^31
    (Python-int keys) or 2^63 (Python-int rows) otherwise."""
    size = 2 ** draw(st.one_of(st.integers(0, 2), st.integers(3, 70)))
    width = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(st.integers(-size, size), min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))


@settings(max_examples=200, deadline=None)
@given(repeated_rows())
@example([[0, 1], [1, -1], [0, 1]])
@example([[2**70, -(2**70)], [-(2**70), 2**70], [2**70, -(2**70)]])
def test_distinct_rows_match_dict(rows):
    """First rows and places against a dict of the rows' tuples."""
    firsts = {}
    for i, r in enumerate(rows):
        firsts.setdefault(tuple(r), i)
    distinct = sorted(firsts)
    first, place = _linalg.distinct_rows(as_kernel_array(rows))
    assert first.tolist() == [firsts[r] for r in distinct]
    assert place.tolist() == [distinct.index(tuple(r)) for r in rows]


def test_lift_table_and_scale():
    h = Quadratic(0, F(1, 3), 2)  # sqrt(2)/3
    points = ((F(1, 2), h), (-h, F(0)), (F(-1, 2), -h), (h, F(0)))
    coords = [x for p in points for x in p]
    values, index = _linalg.value_table(coords, np.arange(8).reshape(4, 2))
    # ascending, equal values in different objects (-h twice) merged
    assert values == (F(-1, 2), -h, F(0), h, F(1, 2))
    assert index.tolist() == [[4, 3], [1, 2], [0, 1], [3, 2]]
    lift = _linalg.lift(values, index, Q2)
    assert lift.scale == 6
    # the numerators (a, b) of a + b sqrt(2) on the last axis, at most 3
    assert lift.vectors.tolist() == [
        [[3, 0], [0, 2]],
        [[0, -2], [0, 0]],
        [[-3, 0], [0, -2]],
        [[0, 2], [0, 0]],
    ]
    assert lift.vectors.dtype == np.int64
    # by hand the table is the same, so position i negates to 4 - i
    config = Configuration(2, Q2, (), points, F(17, 36))
    assert config.table[0] == values and config.negation_closed
    assert config.table[1].tolist() == index.tolist()
    keys = _linalg.row_keys(index, 5).tolist()
    negated = _linalg.row_keys(4 - index, 5).tolist()
    assert len(set(keys)) == 4
    assert negated == [keys[2], keys[3], keys[0], keys[1]]
    assert config.lift.scale == 6
    assert config.lift.vectors.tolist() == lift.vectors.tolist()


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
        assert VertexSet(vertices, ((),) * 8).lift.rays().dtype == object
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
    chosen = []
    monkeypatch.setattr(
        _linalg, "_int_dtype", lambda bound: chosen.append(object) or object
    )
    config = builtin_configuration(n)
    assert validate(config).ok
    forced = covering_radius(config)
    assert forced.cos2_radius == report.cos2_radius
    assert forced.attaining_vertex == report.attaining_vertex
    assert deep_hole_check(config, forced)
    vertex = report.attaining_vertex
    chosen.clear()
    with pytest.raises(RuntimeError, match="infeasible vertex"):
        _certify_vertices(VertexSet((vertex, push(vertex)), ((), ())), config)
    # the certify's exact recompute ran, in Python ints
    assert chosen


def test_vertex_rays_narrow_to_int64():
    """The n=7 cone's vertices share a scale of 126 bits, so their stack
    leaves int64, but their primitive rays have entries of 15 bits:
    ``Lift.rays`` gives them as int64, equal to the Python-int rays."""
    config = builtin_configuration(7)
    halfspaces = symmetry_cone(7, config.field) + tuple(
        Halfspace(p, POLAR) for p in _orbit_representatives(config)
    )
    lift = enumerate_vertices(HPolytope(7, halfspaces, config.field)).lift
    assert lift.scale >= 2**63
    rays = lift.rays()
    assert rays.dtype == np.int64 and _linalg._top(rays) < 2**15
    assert rays.tolist() == lift.kernel.primitive(lift.stack(t=1)).tolist()


# -- homogenized rows against a per-row reference ------------------------------


def reference_rows(poly):
    """Each homogenized row (1, 0) for t >= 0, (1, -v) for a polar row and
    (0, c) for a cone row, put in kernel form alone: over Q by the lcm of
    its denominators and the gcd of its numerators, over Q(sqrt d) the same
    on its (a, b) parts, on floats over its largest absolute entry."""
    zero, one = poly.field.zero, poly.field.one
    rows = [(one,) + (zero,) * poly.dimension]
    for hs in poly.halfspaces:
        if hs.kind == POLAR:
            rows.append((one,) + tuple(-x for x in hs.normal))
        else:
            rows.append((zero,) + hs.normal)
    if poly.field is FLOAT:
        out = []
        for row in rows:
            scale = max(map(abs, row))
            out.append(row if scale in (0.0, 1.0) else tuple(x / scale for x in row))
        return out
    pairs = poly.field.kind == "quadratic"
    out = []
    for row in rows:
        parts = [
            (x.a, x.b) if isinstance(x, Quadratic) else (F(x), F(0)) for x in row
        ]
        den = math.lcm(*(p.denominator for part in parts for p in part))
        ints = [
            tuple(p.numerator * (den // p.denominator) for p in part) for part in parts
        ]
        g = math.gcd(*(i for part in ints for i in part))
        ints = [tuple(i // g for i in part) for part in ints]
        out.append(tuple(ints) if pairs else tuple(a for a, _ in ints))
    return out


numerators = st.integers(-3, 3) | st.integers(-(2**70), 2**70)
denominators = st.integers(1, 4) | st.integers(1, 2**70)
rationals = st.builds(F, numerators, denominators)


def field_values(field):
    """Values of ``field``: Fractions and b = 0 Quadratics over Q, and also
    Quadratics with a sqrt(d) part over Q(sqrt d), entries and common
    denominators past 2^63 among them; floats with both signed zeros."""
    if field is FLOAT:
        return st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])
    d = 2 if field is RATIONAL else field.d
    values = rationals | st.builds(Quadratic, rationals, st.just(0), st.just(d))
    if field is RATIONAL:
        return values
    return values | st.builds(Quadratic, rationals, rationals, st.just(d))


@st.composite
def systems(draw):
    field = draw(st.sampled_from([RATIONAL, Q2, quadratic_field(5), FLOAT]))
    n = draw(st.integers(1, 4))
    normals = st.tuples(*[field_values(field)] * n).filter(
        lambda v: any(sign_of(x) != 0 for x in v)
    )
    kinds = st.sampled_from([POLAR, CONE])
    halfspaces = draw(st.lists(st.builds(Halfspace, normals, kinds), max_size=6))
    return HPolytope(n, tuple(halfspaces), field)


def _as_tuples(rows):
    return [tuple(tuple(x) if isinstance(x, list) else x for x in r) for r in rows]


BIG = 2**64 + 1
MIXED = (F(1, 3), Quadratic(F(-2, 5), 0, 2), F(0))
SIGNED_ZEROS = (Halfspace((3.0, -0.0), CONE), Halfspace((-0.0, 2.0), POLAR))


@settings(max_examples=150, deadline=None)
@given(systems())
@example(HPolytope(3, (Halfspace(MIXED, POLAR), Halfspace(MIXED, CONE)), RATIONAL))
@example(HPolytope(3, (Halfspace(MIXED, POLAR), Halfspace(MIXED, CONE)), Q2))
@example(HPolytope(2, (Halfspace((F(1, BIG), F(1)), POLAR),), RATIONAL))
@example(HPolytope(2, (Halfspace((F(BIG), Quadratic(1, F(1, 3), 2)), CONE),), Q2))
@example(HPolytope(2, SIGNED_ZEROS, FLOAT))
def test_homogenized_rows_match_per_row_reference(poly):
    rows = polytope._homogenized_rows(poly, _linalg.kernel_for(poly.field))
    assert repr(_as_tuples(rows.tolist())) == repr(reference_rows(poly))


def test_homogenized_rows_take_python_ints_past_int64():
    # a common denominator past 2^63, and an entry past 2^63
    for normal in ((F(1, BIG), F(1)), (F(BIG), F(1))):
        poly = HPolytope(2, (Halfspace(normal, POLAR),), RATIONAL)
        rows = polytope._homogenized_rows(poly, _linalg.kernel_for(RATIONAL))
        assert rows.dtype == object
        assert repr(_as_tuples(rows.tolist())) == repr(reference_rows(poly))


@pytest.mark.parametrize(
    "field, stack, want",
    [
        (RATIONAL, [[0, 0, 0], [2, -4, 6]], [[0, 0, 0], [1, -2, 3]]),
        (
            Q2,
            [[[0, 0], [0, 0]], [[2, 4], [0, -6]]],
            [[[0, 0], [0, 0]], [[1, 2], [0, -3]]],
        ),
        (FLOAT, [[0.0, -0.0], [2.0, -4.0]], [[0.0, -0.0], [0.5, -1.0]]),
    ],
    ids=["Q", "Q(sqrt2)", "float"],
)
def test_primitive_leaves_zero_vectors(field, stack, want):
    kernel = _linalg.kernel_for(field)
    dtypes = [float] if field is FLOAT else [np.int64, object]
    for dtype in dtypes:
        got = kernel.primitive(np.array(stack, dtype=dtype)).tolist()
        assert repr(got) == repr(want)


@pytest.mark.parametrize(
    "field, value, message",
    [
        (RATIONAL, Quadratic(1, 1, 2), "quadratic value in a rational system"),
        (Q2, Quadratic(1, 1, 3), r"sqrt\(3\) value in a sqrt\(2\) system"),
    ],
    ids=["Q", "Q(sqrt2)"],
)
def test_values_outside_the_field_are_refused(field, value, message):
    poly = HPolytope(2, (Halfspace((value, field.one), POLAR),), field)
    with pytest.raises(TypeError, match=message):
        enumerate_vertices(poly)
