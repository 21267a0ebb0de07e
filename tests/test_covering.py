import dataclasses
import json
from fractions import Fraction

import mpmath
import pytest

from sphcover import covering
from sphcover.configgen import (
    Configuration,
    ConfigurationError,
    Pattern,
    SubsetSigns,
    builtin_configuration,
    builtin_dimensions,
    config_to_float,
    make_configuration,
)
from sphcover.covering import (
    BoundVerificationError,
    RoundingUndecidedError,
    SymmetryError,
    _certify_vertices,
    _orbit_representatives,
    arccos_decimal,
    covering_radius,
    deep_hole_check,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
    reports_to_text,
    threshold_check,
    verify_bounds,
)
from sphcover.polytope import (
    HPolytope,
    VertexSet,
    enumerate_vertices,
    max_squared_norm,
    polar_hrep,
    symmetry_cone,
)
from sphcover.scalar import FLOAT, Quadratic, RATIONAL, quadratic_field

F = Fraction

EXACT_COS2 = {
    5: F(2, 5),
    6: F(4, 9),
    7: F(351649, 801625),
    8: F(1, 2),
    9: Quadratic(F(19, 73), F(12, 73), 2),
    10: Quadratic(F(1, 4), F(1, 10), 5),
}


def cross_polytope(n, field=RATIONAL):
    return make_configuration(n, field, [SubsetSigns(1, value=1)])


def partial_orbit_config():
    """Negation-closed, but only a partial permutation orbit."""
    points = []
    for a, b in ((3, 4), (4, 3)):
        points.append((F(a), F(b), F(0)))
        points.append((F(-a), F(-b), F(0)))
    points += [(F(0), F(0), F(5)), (F(0), F(0), F(-5))]
    return Configuration(3, RATIONAL, (), tuple(sorted(points)), F(25))


class TestCoveringRadius:
    def test_table1_5_exact(self):
        report = covering_radius(builtin_configuration(5))
        assert report.cos2_radius == F(2, 5)
        assert report.radius == "0.88608"
        assert report.passes and not report.inconclusive
        assert report.margin_cos2 == 0.0

    def test_cross_polytopes(self):
        for n in range(2, 7):
            report = covering_radius(cross_polytope(n))
            assert report.cos2_radius == F(1, n)

    def test_table1_9_quadratic(self):
        report = covering_radius(builtin_configuration(9))
        assert report.cos2_radius == EXACT_COS2[9]
        # equal to 1/(19 - 12 sqrt(2))
        assert report.cos2_radius * Quadratic(19, -12, 2) == 1

    def test_symmetry_on_off_agree(self):
        for n in (5, 6):
            config = builtin_configuration(n)
            sym = covering_radius(config, use_symmetry=True)
            nosym = covering_radius(config, use_symmetry=False)
            assert sym.cos2_radius == nosym.cos2_radius

    def test_reduction_on_off_agree(self):
        # the orbit-reduced cone system gives the radius of the cone cut
        # by every polar row
        for n in (5, 6):
            config = builtin_configuration(n)
            fast = covering_radius(config, use_symmetry=True)
            cone = HPolytope(
                n,
                symmetry_cone(n, config.field) + polar_hrep(config).halfspaces,
                config.field,
            )
            m_max, _ = max_squared_norm(enumerate_vertices(cone))
            assert fast.cos2_radius == 1 / (config.norm_sq * m_max)

    def test_symmetry_requires_invariance(self):
        config = partial_orbit_config()
        with pytest.raises(SymmetryError):
            covering_radius(config, use_symmetry=True)
        report = covering_radius(config, use_symmetry=False)
        assert 0 < float(report.cos2_radius) <= 1

    def test_invalid_configuration_rejected(self):
        e1 = (F(1), F(0))
        config = Configuration(2, RATIONAL, (), (e1,), F(1))
        with pytest.raises(ConfigurationError):
            covering_radius(config, use_symmetry=False)

    def test_report_fields(self):
        config = builtin_configuration(8)
        report = covering_radius(config)
        assert report.dimension == 8
        assert report.cardinality == 240
        assert report.xray_bound == 120
        assert report.threshold_radius == "0.84806"
        assert report.backend == RATIONAL
        assert report.wall_time > 0
        assert len(report.attaining_vertex) == 8


def _descending_patterns(config):
    return sorted({tuple(sorted(p, reverse=True)) for p in config.points})


class TestOrbitRepresentatives:
    @pytest.mark.parametrize("n", list(builtin_dimensions()))
    def test_builtin_patterns(self, n):
        config = builtin_configuration(n)
        for cfg in (config, config_to_float(config)):
            # repr also pins the scalar types and the sign of float zeros
            reps = _orbit_representatives(cfg)
            assert repr(reps) == repr(_descending_patterns(cfg))

    def test_quadratic_pattern(self):
        config = make_configuration(
            4,
            quadratic_field(2),
            [Pattern(((Quadratic(1, 1, 2), 1), (-1, 2), (0, 1)))],
        )
        reps = _orbit_representatives(config)
        assert reps == _descending_patterns(config)
        assert len(reps) == 2  # the pattern and its negation

    def test_partial_orbit_is_rejected(self):
        assert _orbit_representatives(partial_orbit_config()) is None

    def test_missing_negated_pattern_is_rejected(self):
        # full permutation orbits, values closed under negation, but the
        # negation of (2, -2, 1) is no permutation of a point
        config = make_configuration(
            3,
            RATIONAL,
            [Pattern(((2, 1), (-2, 1), (1, 1))), Pattern(((1, 2), (-1, 1)))],
        )
        points = tuple(p for p in config.points if sorted(p) != [-2, -1, 2])
        partial = Configuration(3, RATIONAL, (), points, config.norm_sq)
        assert _orbit_representatives(partial) is None


class TestCertifyVertices:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: builtin_configuration(5),
            lambda: builtin_configuration(10),
            lambda: config_to_float(builtin_configuration(6)),
            # rational vertices, lifted over Q, against Q(sqrt 2) points
            lambda: make_configuration(3, quadratic_field(2), [SubsetSigns(1)]),
        ],
        ids=["Q", "Q(sqrt5)", "float", "Q(sqrt2)-rational-vertices"],
    )
    def test_rejects_tampered_vertex(self, make):
        config = make()
        vertex = covering_radius(config).attaining_vertex
        _certify_vertices(VertexSet((vertex,), ((),)), config)
        # the attaining vertex is tight on some point; pushed outward by
        # 1e-6 it violates that point's polar constraint
        scale = F(1000001, 1000000) if config.field.is_exact else 1 + 1e-6
        pushed = tuple(scale * x for x in vertex)
        with pytest.raises(RuntimeError, match="infeasible vertex"):
            _certify_vertices(VertexSet((vertex, pushed), ((), ())), config)

    @pytest.mark.parametrize("n", [5, 10])
    def test_rejects_vertex_pushed_below_float_resolution(self, n):
        """Pushed by 1 + 2^-60 the vertex has the floats of the attaining
        one, so only the exact recompute of the products that float64
        cannot decide sees the violated constraint."""
        config = builtin_configuration(n)
        vertex = covering_radius(config).attaining_vertex
        pushed = tuple((1 + F(1, 2**60)) * x for x in vertex)
        assert list(map(float, pushed)) == list(map(float, vertex))
        with pytest.raises(RuntimeError, match="infeasible vertex"):
            _certify_vertices(VertexSet((vertex, pushed), ((), ())), config)


    @pytest.mark.parametrize(
        "n", [n for n in builtin_dimensions() if builtin_configuration(n).field.is_exact]
    )
    def test_no_lift_after_enumeration(self, n, monkeypatch):
        """From the enumeration to the certificate the exact path reads the
        engine's own rays: within ``covering_radius`` no scalar reaches
        ``_linalg.lift`` once ``enumerate_vertices`` has returned."""
        from sphcover import _linalg, configgen, polytope

        events, lift, enumerate_ = [], _linalg.lift, covering.enumerate_vertices

        def lifting(*args):
            events.append("lift")
            return lift(*args)

        def enumerating(poly):
            vertices = enumerate_(poly)
            events.append("enumerated")
            return vertices

        for module in (_linalg, configgen, polytope, covering):
            for name, value in vars(module).items():
                if value is lift:
                    monkeypatch.setattr(module, name, lifting)
        monkeypatch.setattr(covering, "enumerate_vertices", enumerating)
        covering_radius(builtin_configuration(n))
        assert "lift" in events and events[-1] == "enumerated"


class TestThreshold:
    def test_equality_edge(self):
        verdict = threshold_check(5, F(2, 5), RATIONAL)
        assert verdict.passes and verdict.margin == 0.0 and not verdict.inconclusive

    def test_pass_n6(self):
        verdict = threshold_check(6, F(4, 9), RATIONAL)
        assert verdict.passes  # 16/36 > 15/36

    def test_fail(self):
        verdict = threshold_check(4, F(1, 4), RATIONAL)
        assert not verdict.passes  # 1/4 < 3/8

    def test_float_margin_and_inconclusive_band(self):
        n = 15
        verdict = threshold_check(n, 0.46749, FLOAT)
        assert verdict.passes and not verdict.inconclusive
        assert verdict.margin == pytest.approx(0.46749 - 14 / 30, abs=1e-12)
        near = threshold_check(n, 14 / 30 + 5e-7, FLOAT)
        assert near.inconclusive

    def test_quadratic_comparison(self):
        verdict = threshold_check(9, EXACT_COS2[9], quadratic_field(2))
        assert verdict.passes


class TestDeepHole:
    def test_square_hole(self):
        config = cross_polytope(2)
        report = covering_radius(config)
        assert report.cos2_radius == F(1, 2)
        assert deep_hole_check(config, report)

    @pytest.mark.parametrize("n", [6, 8])
    def test_builtin_holes(self, n):
        config = builtin_configuration(n)
        report = covering_radius(config)
        assert deep_hole_check(config, report)

    def test_float_hole_is_a_plain_bool(self):
        config = config_to_float(builtin_configuration(6))
        report = covering_radius(config)
        assert deep_hole_check(config, report) is True

    def test_detects_corrupted_vertex(self):
        import dataclasses

        config = builtin_configuration(5)
        report = covering_radius(config)
        bad = dataclasses.replace(
            report, attaining_vertex=tuple([F(1, 2)] + [F(0)] * 4)
        )
        assert not deep_hole_check(config, bad)


class TestVerifyBounds:
    def test_dims_8_10_12(self):
        reports = verify_bounds(dims=[8, 10, 12])
        by_dim = {r.dimension: r for r in reports}
        assert by_dim[8].cardinality == 240 and by_dim[8].radius == "0.78540"
        assert by_dim[10].cos2_radius == EXACT_COS2[10]
        assert by_dim[10].radius == "0.81180"
        assert by_dim[12].radius == "0.78540"
        assert by_dim[12].cardinality == 3832

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            verify_bounds(dims=[4])
        with pytest.raises(ValueError):
            verify_bounds(dims=[16])

    def test_exact_backend_refused_beyond_10(self):
        with pytest.raises(ValueError):
            verify_bounds(dims=[11], backend="exact")

    def test_float_override_for_small_dims(self):
        (report,) = verify_bounds(dims=[6], backend="float")
        assert report.backend == FLOAT
        assert float(report.radius) == pytest.approx(0.84107, abs=1e-5)

    def test_failed_deep_hole_check_raises(self, monkeypatch):
        calls = []

        def failing(config, report):
            calls.append(config.dimension)
            return False

        monkeypatch.setattr(covering, "deep_hole_check", failing)
        with pytest.raises(BoundVerificationError, match="not a deep hole") as info:
            verify_bounds(dims=[5, 6])
        assert info.value.dimension == 5
        assert info.value.reason == "attaining vertex is not a deep hole"
        assert calls == [5]

    def _fails(self, capsys, reason):
        """verify_bounds and ``sphcover verify --dim 5`` both stop at n=5
        with ``reason``."""
        from sphcover.cli import main

        with pytest.raises(BoundVerificationError) as info:
            verify_bounds(dims=[5])
        assert info.value.dimension == 5 and info.value.reason == reason
        assert main(["verify", "--dim", "5"]) == 1
        out = capsys.readouterr()
        assert not out.out
        assert out.err == f"verification FAILED: dimension 5: {reason}\n"

    def test_cardinality_not_below_2_to_n_raises(self, capsys, monkeypatch):
        # the 32 vertices of the 5-cube
        cube = make_configuration(5, RATIONAL, [SubsetSigns(5, value=1)])
        monkeypatch.setattr(covering, "builtin_configuration", lambda n: cube)
        self._fails(capsys, "cardinality 32 is not below 2^5")

    def test_inconclusive_margin_raises(self, capsys, monkeypatch):
        original = covering.covering_radius

        def inconclusive(*args, **kwargs):
            report = original(*args, **kwargs)
            assert report.passes and not report.inconclusive
            return dataclasses.replace(report, inconclusive=True)

        monkeypatch.setattr(covering, "covering_radius", inconclusive)
        self._fails(capsys, "threshold margin is inside the inconclusive band")

    def test_radius_above_threshold_raises(self, capsys, monkeypatch):
        # the 10 points +-e_i leave holes at angle arccos(1/sqrt 5) > 0.886
        monkeypatch.setattr(covering, "builtin_configuration", cross_polytope)
        self._fails(capsys, "covering radius exceeds the threshold")


class TestInvariants:
    def test_monotonicity_under_point_removal(self):
        # norm^2 = 25 in E^3: orbit of (5,0,0) and orbit of (3,4,0)
        big = make_configuration(
            3,
            RATIONAL,
            [SubsetSigns(1, value=5), Pattern(((3, 1), (4, 1), (0, 1)))],
        )
        small = make_configuration(3, RATIONAL, [SubsetSigns(1, value=5)])
        r_big = covering_radius(big, use_symmetry=False)
        r_small = covering_radius(small, use_symmetry=False)
        # fewer points never shrink the covering radius: cos^2 can only drop
        assert float(r_small.cos2_radius) <= float(r_big.cos2_radius) + 1e-15

    def test_monotonicity_on_random_subsets(self):
        # drop symmetric pairs from a rich norm^2 = 9 family in E^3 and
        # check cos^2 never grows
        import random

        full = make_configuration(
            3,
            RATIONAL,
            [SubsetSigns(1, value=3), Pattern(((2, 2), (1, 1)))],
        )
        reference = covering_radius(full, use_symmetry=False)
        rng = random.Random(7)
        pairs = sorted(
            {tuple(sorted([p, tuple(-x for x in p)])) for p in full.points}
        )
        for _ in range(5):
            kept = [
                pt
                for pair in pairs
                if rng.random() < 0.7
                for pt in pair
            ]
            sub = Configuration(
                3, RATIONAL, (), tuple(sorted(set(kept))), full.norm_sq
            )
            from sphcover.configgen import validate

            if not validate(sub).ok:
                continue
            try:
                smaller = covering_radius(sub, use_symmetry=False)
            except Exception:
                continue
            assert float(smaller.cos2_radius) <= float(reference.cos2_radius) + 1e-15

    def test_signed_permutation_invariance(self):
        base = make_configuration(
            3, RATIONAL, [Pattern(((3, 1), (4, 1), (0, 1)))]
        )
        ref = covering_radius(base, use_symmetry=False)
        perm, signs = (2, 0, 1), (-1, 1, -1)
        mapped_points = tuple(
            sorted(tuple(s * p[i] for i, s in zip(perm, signs)) for p in base.points)
        )
        mapped = Configuration(
            3, RATIONAL, (), mapped_points, base.norm_sq
        )
        got = covering_radius(mapped, use_symmetry=False)
        assert got.cos2_radius == ref.cos2_radius

    def test_sampling_never_exceeds_radius(self):
        from sphcover.oracle import sampled_covering_radius

        config = builtin_configuration(6)
        report = covering_radius(config)
        bound = sampled_covering_radius(config, 20_000, seed=11)
        assert bound <= report.radius_float + 1e-9


class TestRendering:
    def test_arccos_decimal(self):
        assert arccos_decimal(F(4, 9)) == "0.84107"
        assert arccos_decimal(EXACT_COS2[9]) == "0.79265"
        assert arccos_decimal(F(1, 4)) == "1.04720"
        assert arccos_decimal(F(1, 2), 7) == "0.7853982"
        assert arccos_decimal(Fraction(1)) == "0.00000"
        # the first working precision already exceeds the cap
        with pytest.raises(ValueError, match="5000 digits exceed 4096 working digits"):
            arccos_decimal(F(1, 2), 5000)
        with pytest.raises(ValueError, match="digits must be non-negative"):
            arccos_decimal(F(1, 2), -1)

    @pytest.mark.parametrize(
        "digits, message",
        [(-1, "digits must be non-negative"), (4082, "exceed 4096 working digits")],
        ids=["negative", "too-many"],
    )
    def test_bad_digits_refused_before_enumeration(self, monkeypatch, digits, message):
        def never(poly):
            raise AssertionError("vertices enumerated before digits were checked")

        monkeypatch.setattr(covering, "enumerate_vertices", never)
        with pytest.raises(ValueError, match=message):
            covering_radius(builtin_configuration(5), digits=digits)
        with pytest.raises(ValueError, match=message):
            verify_bounds(dims=[5, 6], digits=digits)

    def test_sharpening_is_capped(self, monkeypatch):
        # the angle is 1e-31 above the midpoint 0.888085: at the first
        # working precision it reads as the midpoint and rounds down
        with mpmath.workdps(80):
            theta = mpmath.mpf("0.888085") + mpmath.mpf(10) ** -31
            cos2 = Fraction(mpmath.nstr(mpmath.cos(theta) ** 2, 70))
        assert arccos_decimal(cos2) == "0.88809"
        monkeypatch.setattr(covering, "ARCCOS_MAX_DPS", 30)
        with pytest.raises(RoundingUndecidedError, match="within 30 working digits"):
            arccos_decimal(cos2)
        assert issubclass(RoundingUndecidedError, ValueError)

    def test_json_roundtrips_and_is_schema_stable(self):
        reports = verify_bounds(dims=[5, 11])
        text = reports_to_json(reports)
        data = json.loads(text)
        assert [d["dimension"] for d in data] == [5, 11]
        assert data[0]["cos2_radius"] == "2/5"
        assert data[0]["passes"] is True
        assert "wall_time_s" not in data[0]
        timed = json.loads(reports_to_json(reports, include_timing=True))
        assert "wall_time_s" in timed[0]

    def test_csv_columns(self):
        reports = verify_bounds(dims=[5])
        lines = reports_to_csv(reports).strip().splitlines()
        assert lines[0] == "n,cardinality,radius,threshold,margin,pass"
        assert lines[1] == "5,30,0.88608,0.88608,0.00000,yes"

    def test_text_table(self):
        reports = verify_bounds(dims=[7])
        text = reports_to_text(reports)
        assert "0.84688" in text and "0.85707" in text and "112" in text

    def test_report_dict_vertex_scalars_parse(self):
        from sphcover.scalar import parse_scalar

        (report,) = verify_bounds(dims=[9])
        data = report_to_dict(report)
        field = quadratic_field(2)
        parsed = [parse_scalar(tok, field) for tok in data["attaining_vertex"]]
        assert len(parsed) == 9
