import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sphcover import cli
from sphcover.cli import main
from sphcover.configgen import builtin_configuration
from sphcover.polytope import HPolytope, dump_hpolytope, symmetry_cone


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


CROSS4 = {
    "dimension": 4,
    "field": {"kind": "rational"},
    "generators": [{"type": "subset_signs", "support": 1, "value": "1"}],
}


def _quadratic(d):
    """A quadratic field descriptor with ``d`` as given."""
    return {"kind": "quadratic", "d": d}


def _reduced_table1_5():
    """Cone plus one polar row per descending point pattern of table1:5."""
    from sphcover.polytope import POLAR, Halfspace

    config = builtin_configuration(5)
    reps = sorted({tuple(sorted(p, reverse=True)) for p in config.points})
    return HPolytope(
        5,
        symmetry_cone(5, config.field) + tuple(Halfspace(r, POLAR) for r in reps),
        config.field,
    )


@pytest.fixture
def cross4_path(tmp_path):
    path = tmp_path / "cross4.json"
    path.write_text(json.dumps(CROSS4))
    return str(path)


@pytest.fixture(scope="module")
def verify_memo():
    return {}


@pytest.fixture
def remembered_verify(monkeypatch, verify_memo):
    """``verify_bounds`` remembered per argument set for the tests of this
    module that ask for it, so that they share one run of each."""
    from sphcover import cli

    original = cli.verify_bounds

    def remembered(dims, **kwargs):
        key = repr((dims, sorted(kwargs.items())))
        if key not in verify_memo:
            verify_memo[key] = original(dims, **kwargs)
        return verify_memo[key]

    monkeypatch.setattr(cli, "verify_bounds", remembered)


class TestVerify:
    def test_single_dimension(self, capsys):
        code, out, err = run(capsys, "verify", "--dim", "7")
        assert code == 0
        assert "0.84688" in out and "0.85707" in out and "112" in out

    def test_all_dimensions(self, capsys, remembered_verify):
        code, out, _ = run(capsys, "verify", "--all")
        assert code == 0
        rows = [line for line in out.splitlines() if line[:4].strip().isdigit()]
        assert len(rows) == 11
        assert all("pass" in row for row in rows)
        # tests/data/verify-all.txt holds the output of `sphcover verify --all`
        golden = Path(__file__).parent / "data" / "verify-all.txt"
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_all_dimensions_match_golden_file(self, capsys, remembered_verify, fmt):
        # tests/data/verify-all.<fmt> holds the output of
        # `sphcover verify --all --format <fmt>`
        code, out, _ = run(capsys, "verify", "--all", "--format", fmt)
        assert code == 0
        golden = Path(__file__).parent / "data" / f"verify-all.{fmt}"
        assert out.encode() == golden.read_bytes()

    def test_dim_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--dim", "16"])
        assert exc.value.code == 2

    def test_exact_backend_refused_for_large_dims(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--dim", "12", "--backend", "exact"])
        assert exc.value.code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data[0]["dimension"] == 5
        assert data[0]["cos2_radius"] == "2/5"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "8", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "8,240,0.78540,0.84806,0.06266,yes"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, "verify", "--dim", "5", "-o", str(target))
        assert code == 0
        assert out == ""
        assert "0.88608" in target.read_text()

    def test_byte_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--dim", "5", "--format", "json")
        code2, out2, _ = run(capsys, "verify", "--dim", "5", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_matches_golden_file(self, capsys):
        # tests/data/verify-5-10.json holds the output of
        # `sphcover verify --dim 5 ... --dim 10 --format json`; refactors of
        # the covering pipeline must keep it byte for byte
        golden = Path(__file__).parent / "data" / "verify-5-10.json"
        dims = [arg for n in range(5, 11) for arg in ("--dim", str(n))]
        code, out, _ = run(capsys, "verify", *dims, "--format", "json")
        assert code == 0
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--dim", "5"], ["radius", "table1:5"]],
        ids=["verify", "radius"],
    )
    def test_digits_must_be_positive(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--digits", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "sphcover: error: --digits must be positive"

    def test_math_failure_exits_one(self, capsys, monkeypatch):
        import sphcover.cli as cli
        from sphcover.covering import BoundVerificationError

        def boom(*args, **kwargs):
            raise BoundVerificationError(5, "forced failure for the test")

        monkeypatch.setattr(cli, "verify_bounds", boom)
        code, out, err = run(capsys, "verify", "--dim", "5")
        assert code == 1
        assert "FAILED" in err


class TestRadius:
    def test_cross_polytope_file(self, capsys, cross4_path):
        code, out, _ = run(capsys, "radius", cross4_path)
        assert code == 0  # threshold verdict is data, not an error
        assert "1.04720" in out
        assert "within threshold:  no" in out

    def test_builtin_by_name(self, capsys):
        code, out, _ = run(capsys, "radius", "table1:9")
        assert code == 0
        assert "19/73+12/73*sqrt(2)" in out
        assert "0.79265" in out

    def test_asymmetric_sign_counts_exit_two(self, capsys, tmp_path):
        bad = {
            "dimension": 4,
            "field": {"kind": "rational"},
            "generators": [
                {"type": "subset_signs", "support": 3, "sign_counts": [0, 1],
                 "value": "1"}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "radius", str(path))
        assert code == 2
        assert "not negation-symmetric" in err

    def test_unparseable_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        code, _, err = run(capsys, "radius", str(path))
        assert code == 2

    def test_unbounded_exit_one(self, capsys, monkeypatch):
        import sphcover.cli as cli
        from sphcover.polytope import Unbounded
        from fractions import Fraction

        def boom(*args, **kwargs):
            raise Unbounded((Fraction(1), Fraction(0)))

        monkeypatch.setattr(cli, "covering_radius", boom)
        code, _, err = run(capsys, "radius", "table1:5")
        assert code == 1
        assert "origin" in err

    def test_float_override(self, capsys):
        code, out, _ = run(
            capsys, "radius", "table1:6", "--backend", "float", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[1].startswith("6,44,0.84107,0.86912")

    def test_exact_backend_refused_for_float_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "table1:12", "--backend", "exact"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "sphcover: error: the configuration is float-valued; no exact run possible"
        )

    def test_timing_prints_wall_time(self, capsys):
        code, out, err = run(capsys, "radius", "table1:5", "--timing")
        assert code == 0
        assert out.splitlines()[-1].startswith("wall time:")
        assert err == (
            "sphcover: enumerating vertices: n=5, 9 halfspaces (symmetry cone)\n"
        )


class TestOracle:
    def test_cube_fixture_agreement(self, capsys, cross4_path):
        code, out, _ = run(capsys, "oracle", cross4_path, "--samples", "2000")
        assert code == 0
        assert "agreement: OK" in out

    def test_hrep_dump_roundtrip_agrees(self, capsys, tmp_path):
        # an equivalent reduced system brute-forces to the same vertex set
        path = tmp_path / "dump.txt"
        dump_hpolytope(_reduced_table1_5(), path)
        code, out, _ = run(capsys, "oracle", "table1:5", "--hrep", str(path))
        assert code == 0
        assert "agreement: OK" in out

    def test_corrupted_hrep_disagrees(self, capsys, tmp_path):
        path = tmp_path / "dump.txt"
        dump_hpolytope(_reduced_table1_5(), path)
        lines = path.read_text().splitlines()
        # tighten a constraint that is active at the deepest hole, keeping
        # the file parseable; the brute-forced vertex set must then differ
        idx = lines.index("polar: 2 2 0 0 0")
        lines[idx] = "polar: 4 4 0 0 0"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "oracle", "table1:5", "--hrep", str(path))
        assert code == 1
        assert "MISMATCH" in out

    @pytest.mark.parametrize(
        "header", ["hpolytope field=rational", "hpolytope dim=5 rational"]
    )
    def test_malformed_hrep_header_exit_two(self, capsys, tmp_path, header):
        path = tmp_path / "dump.txt"
        dump_hpolytope(_reduced_table1_5(), path)
        lines = path.read_text().splitlines()
        lines[0] = header
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "oracle", "table1:5", "--hrep", str(path))
        assert code == 2
        assert err.startswith("halfspace dump error")

    def test_missing_config_exit_two(self, capsys):
        code, _, err = run(capsys, "oracle", "no-such-file.json")
        assert code == 2

    def test_negative_samples_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "table1:5", "--samples", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "sphcover: error: --samples must be non-negative"

    def test_large_instance_skips_vertices(self, capsys):
        code, out, err = run(capsys, "oracle", "table1:7")
        assert code == 0 and not err
        assert out.splitlines()[1].startswith("vertices: skipped (")
        assert out.splitlines()[-1] == "agreement: OK"

    def test_sampling_mismatch_exits_one(self, capsys, monkeypatch, cross4_path):
        monkeypatch.setattr(cli, "sampled_covering_radius", lambda *args: 3.0)
        code, out, err = run(capsys, "oracle", cross4_path, "--samples", "10")
        assert code == 1
        assert "> 1.04720, MISMATCH" in out and "agreement: FAILED" in out
        assert err == (
            "oracle disagreement: sampled lower bound exceeds the computed radius\n"
        )


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--dim", "5", "--threads", "0"])
        assert exc.value.code == 2


def _config(tmp_path, generator, **fields):
    """A one-generator configuration file, CROSS4's fields overridden."""
    data = {**CROSS4, "generators": [generator], **fields}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def _hrep(tmp_path, header, row):
    """The dump of the reduced table1:5 system, its header replaced when
    given and a row appended."""
    path = tmp_path / "dump.txt"
    dump_hpolytope(_reduced_table1_5(), path)
    lines = path.read_text().splitlines()
    if header is not None:
        lines[0] = header
    path.write_text("\n".join(lines + [row]) + "\n")
    return str(path)


class TestBadInput:
    """Malformed input exits 2 with one line on stderr."""

    @pytest.mark.parametrize(
        "generator, fields",
        [
            ({"type": "subset_values", "support": 1, "a": "1/0", "b": "0"}, {}),
            ({"type": "subset_signs", "support": 1.9, "value": "1"}, {}),
            ({"type": "subset_signs", "support": True, "value": "1"}, {}),
            ({"type": "subset_signs", "support": 2, "sign_counts": [0.9, 2]}, {}),
            ({"type": "pattern", "entries": [["1", 1.5], ["0", 3]]}, {}),
            ({"type": "subset_signs", "support": "1", "value": "1"}, {}),
            ({"type": "subset_signs", "support": 1, "value": "1"}, {"dimension": True}),
            ({"type": "subset_signs", "support": 1, "value": "1"}, {"dimension": 4.5}),
            ({"type": "subset_signs", "support": 2}, {"field": _quadratic("2")}),
            ({"type": "subset_signs", "support": 2}, {"field": _quadratic(True)}),
            ({"type": "subset_signs", "support": 2}, {"field": _quadratic(2.5)}),
        ],
        ids=[
            "zero-denominator", "fractional-support", "boolean-support",
            "fractional-sign-counts", "fractional-multiplicity", "string-support",
            "boolean-dimension", "fractional-dimension", "string-d", "boolean-d",
            "fractional-d",
        ],
    )
    def test_bad_config(self, capsys, tmp_path, generator, fields):
        code, out, err = run(capsys, "radius", _config(tmp_path, generator, **fields))
        assert code == 2 and not out
        assert err.startswith("configuration error") and err.count("\n") == 1
        if "field" in fields:
            assert err.startswith("configuration error: field: d: expected an integer")

    @pytest.mark.parametrize(
        "value",
        ["nan", "inf", "-inf", "1e400", float("nan")],
        ids=["nan", "inf", "-inf", "1e400", "json-NaN"],
    )
    def test_non_finite_float_config(self, capsys, tmp_path, value):
        # json.dumps writes float("nan") as the bare JSON token NaN
        generator = {"type": "subset_values", "support": 1, "a": value, "b": "0"}
        path = _config(tmp_path, generator, field={"kind": "float"})
        code, out, err = run(capsys, "radius", path)
        assert code == 2 and not out
        assert "non-finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "header, row",
        [
            (None, "polar: 1/0 0 0 0 0"),
            ("hpolytope dim=5 field=float", "polar: nan 1 0 0 0"),
            ("hpolytope dim=5 field=float", "polar: 1e400 1 0 0 0"),
        ],
        ids=["zero-denominator", "nan", "overflow"],
    )
    def test_bad_hrep(self, capsys, tmp_path, header, row):
        path = _hrep(tmp_path, header, row)
        code, _, err = run(capsys, "oracle", "table1:5", "--hrep", path)
        assert code == 2
        assert err.startswith("halfspace dump error") and err.count("\n") == 1

    @pytest.mark.parametrize("dim", [-2, 0])
    def test_non_positive_hrep_dim(self, capsys, tmp_path, dim):
        path = tmp_path / "dump.txt"
        path.write_text(f"hpolytope dim={dim} field=rational\n")
        code, _, err = run(capsys, "oracle", "table1:5", "--hrep", str(path))
        assert code == 2
        assert err.startswith("halfspace dump error") and err.count("\n") == 1

    def test_hrep_is_read_before_the_engine(self, capsys, tmp_path, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the engine ran before the dump was read")

        monkeypatch.setattr(cli, "covering_radius", engine)
        path = tmp_path / "dump.txt"
        path.write_text("hpolytope dim=0 field=rational\n")
        code, _, err = run(capsys, "oracle", "table1:15", "--hrep", str(path))
        assert code == 2
        assert err.startswith("halfspace dump error") and err.count("\n") == 1

    def test_negative_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "table1:5", "--samples", "10", "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "sphcover: error: --seed must be non-negative"

    @pytest.mark.parametrize(
        "argv", [["verify", "--dim", "5"], ["radius", "table1:5"]],
        ids=["verify", "radius"],
    )
    def test_unwritable_output(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert code == 2 and not out
        assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["verify", "--dim", "5"], ["radius", "table1:5"]],
        ids=["verify", "radius"],
    )
    def test_too_many_digits(self, capsys, monkeypatch, argv):
        def engine(*args, **kwargs):
            raise AssertionError("the engine ran before --digits was checked")

        monkeypatch.setattr(cli, "covering_radius", engine)
        monkeypatch.setattr(cli, "verify_bounds", engine)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--digits", "5000"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "sphcover: error: --digits must be at most 4081"

    def test_whole_floats_are_integers(self, capsys, tmp_path):
        generator = {"type": "subset_signs", "support": 1, "value": "1"}
        want = run(capsys, "radius", _config(tmp_path, generator))
        generator = {**generator, "support": 1.0, "sign_counts": [0.0, 1.0]}
        got = run(capsys, "radius", _config(tmp_path, generator, dimension=4.0))
        assert got == want and want[0] == 0
        # the d of a quadratic field
        generator = {"type": "subset_signs", "support": 2}
        want, got = (
            run(capsys, "radius", _config(tmp_path, generator, field=_quadratic(d)))
            for d in (2, 2.0)
        )
        assert got == want and want[0] == 0


def test_verify_leaves_numpy_ma_unimported():
    """A plain ``np.unique(x)`` imports ``numpy.ma`` (some 15 ms and 1 MiB
    per process); neither the float nor the exact ``verify`` path may call
    it.  Run in a fresh process, BLAS pinned to one thread."""
    script = (
        "import sys\n"
        "from sphcover.cli import main\n"
        "assert main(['verify', '--dim', '11']) == 0\n"
        "assert main(['verify', '--dim', '5']) == 0\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path, **dict.fromkeys(threads, "1")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == "False\n"
