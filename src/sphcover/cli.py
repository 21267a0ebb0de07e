"""Command-line frontend: certify built-ins, evaluate configurations, and
cross-check the engine against the brute-force oracle.

Exit codes: 0 on success, 1 on a mathematical failure or oracle
disagreement, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
import time
from math import dist

from .configgen import ConfigurationError, config_to_float, load_configuration
from .covering import (
    ARCCOS_MAX_DPS,
    BoundVerificationError,
    SymmetryError,
    covering_radius,
    polar_system,
    reports_to_csv,
    reports_to_json,
    reports_to_text,
    verify_bounds,
)
from .oracle import (
    InstanceTooLarge,
    brute_force_vertices,
    sampled_covering_radius,
)
from .polytope import Unbounded, enumerate_vertices, load_hpolytope
from .scalar import format_scalar

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2

ORIGIN_INTERIOR_MSG = (
    "the convex hull of the configuration does not contain the origin in "
    "its interior, so the polar region is unbounded and no covering radius "
    "is defined"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphcover",
        description=(
            "Covering radii of origin-symmetric spherical point sets via "
            "exact polar-polytope vertex enumeration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="certify the built-in configurations against the cap bound",
    )
    dims = verify.add_mutually_exclusive_group(required=True)
    dims.add_argument("--all", action="store_true", help="all dimensions 5..15")
    dims.add_argument(
        "--dim",
        action="append",
        type=int,
        metavar="N",
        help="one dimension in 5..15 (repeatable)",
    )
    verify.add_argument("--backend", choices=["exact", "float"], default=None)
    verify.add_argument(
        "--no-symmetry",
        action="store_true",
        help="enumerate the full polar polytope instead of the cone slice",
    )
    _common_output_flags(verify)

    radius = sub.add_parser(
        "radius", help="covering radius of a configuration file or table1:<n>"
    )
    radius.add_argument("config", help="JSON configuration path or table1:<n>")
    radius.add_argument("--backend", choices=["exact", "float"], default=None)
    radius.add_argument(
        "--no-symmetry",
        action="store_true",
        help="do not require or exploit permutation and negation symmetry",
    )
    _common_output_flags(radius)

    oracle = sub.add_parser(
        "oracle",
        help="cross-check the engine against brute force and sampling",
    )
    oracle.add_argument("config", help="JSON configuration path or table1:<n>")
    oracle.add_argument(
        "--hrep",
        metavar="PATH",
        help="halfspace dump to brute-force instead of the derived system",
    )
    oracle.add_argument(
        "--samples", type=int, default=0, metavar="N", help="Monte Carlo sample count"
    )
    oracle.add_argument(
        "--seed", type=int, default=0, metavar="S", help="seed of the random directions"
    )
    oracle.add_argument(
        "--timing", action="store_true", help="print wall time; log progress to stderr"
    )
    return parser


def _common_output_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--format", choices=["text", "json", "csv"], default="text")
    cmd.add_argument("--digits", type=int, default=5, metavar="K")
    cmd.add_argument("--output", "-o", metavar="PATH", default=None)
    cmd.add_argument(
        "--timing",
        action="store_true",
        help="include wall times in output and log progress to stderr",
    )


def _configure_logging(timing: bool) -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("sphcover: %(message)s"))
    root = logging.getLogger("sphcover")
    root.handlers[:] = [handler]
    root.setLevel(logging.INFO if timing else logging.WARNING)


def _emit(text: str, path: str | None) -> int:
    """Write ``text`` to ``path`` or stdout; the exit code."""
    if not path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _unwritable(path: str | None) -> bool:
    """Report an ``--output`` that names a directory or lies in a missing
    one, before the run and creating nothing; ``_emit`` reports the rest."""
    if not path:
        return False
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.isdir(os.path.dirname(path) or "."):
        return False
    else:
        code = errno.ENOENT
    print(f"error: cannot write {path}: {os.strerror(code)}", file=sys.stderr)
    return True


def _check_digits(digits: int, parser) -> None:
    """Refuse a ``--digits`` that ``arccos_decimal`` cannot render."""
    if digits < 1:
        parser.error("--digits must be positive")
    if digits + 15 > ARCCOS_MAX_DPS:
        parser.error(f"--digits must be at most {ARCCOS_MAX_DPS - 15}")


def _render(reports, fmt: str, include_timing: bool) -> str:
    if fmt == "json":
        return reports_to_json(reports, include_timing) + "\n"
    if fmt == "csv":
        return reports_to_csv(reports, include_timing)
    return reports_to_text(reports, include_timing)


def _cmd_verify(args, parser) -> int:
    if args.all:
        dims = list(range(5, 16))
    else:
        dims = sorted(set(args.dim))
        bad = [n for n in dims if not 5 <= n <= 15]
        if bad:
            parser.error(f"--dim must lie in 5..15, got {bad[0]}")
    if args.backend == "exact" and any(n >= 11 for n in dims):
        parser.error("--backend exact is unavailable for dimensions 11..15")
    _check_digits(args.digits, parser)
    if _unwritable(args.output):
        return EXIT_USAGE
    try:
        reports = verify_bounds(
            dims,
            backend=args.backend,
            use_symmetry=not args.no_symmetry,
            digits=args.digits,
        )
    except BoundVerificationError as exc:
        print(f"verification FAILED: {exc}", file=sys.stderr)
        return EXIT_MATH
    return _emit(_render(reports, args.format, args.timing), args.output)


def _cmd_radius(args, parser) -> int:
    _check_digits(args.digits, parser)
    if _unwritable(args.output):
        return EXIT_USAGE
    try:
        config = load_configuration(args.config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.backend == "float" and config.field.kind != "float":
        config = config_to_float(config)
    if args.backend == "exact" and config.field.kind == "float":
        parser.error("the configuration is float-valued; no exact run possible")
    try:
        report = covering_radius(
            config, use_symmetry=not args.no_symmetry, digits=args.digits
        )
    except (ConfigurationError, SymmetryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Unbounded:
        print(f"error: {ORIGIN_INTERIOR_MSG}", file=sys.stderr)
        return EXIT_MATH
    if args.format == "text":
        lines = [
            f"configuration:     {config.label or args.config}",
            f"dimension:         {report.dimension}",
            f"points:            {report.cardinality}",
            f"backend:           {report.backend}",
            f"cos^2 radius:      {format_scalar(report.cos2_radius)}",
            f"covering radius:   {report.radius}",
            f"threshold:         {report.threshold_radius}",
            f"within threshold:  "
            + ("inconclusive" if report.inconclusive
               else ("yes" if report.passes else "no")),
            f"direction bound:   {report.xray_bound}",
        ]
        if args.timing:
            lines.append(f"wall time:         {report.wall_time:.3f}s")
        return _emit("\n".join(lines) + "\n", args.output)
    return _emit(_render([report], args.format, args.timing), args.output)


def _cmd_oracle(args, parser) -> int:
    start = time.perf_counter()
    if args.samples < 0:
        parser.error("--samples must be non-negative")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        config = load_configuration(args.config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        dumped = load_hpolytope(args.hrep) if args.hrep else None
        if dumped and dumped.dimension != config.dimension:
            raise ValueError(
                f"{args.hrep}: dim={dumped.dimension}, expected the "
                f"configuration's dimension {config.dimension}"
            )
    except (OSError, ValueError) as exc:
        print(f"halfspace dump error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        try:
            report = covering_radius(config, use_symmetry=True)
        except SymmetryError:
            report = covering_radius(config, use_symmetry=False)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Unbounded:
        print(f"error: {ORIGIN_INTERIOR_MSG}", file=sys.stderr)
        return EXIT_MATH

    failures = []
    lines = [f"engine:   radius {report.radius} from {report.cardinality} points"]

    engine_poly = polar_system(config, report.used_symmetry)
    try:
        brute = brute_force_vertices(dumped or engine_poly)
    except InstanceTooLarge as exc:
        lines.append(f"vertices: skipped ({exc})")
    else:
        engine = enumerate_vertices(engine_poly).vertices
        same = set(engine) == set(brute.vertices)
        if not config.field.is_exact:  # refined floats, each within 1e-9
            same = len(engine) == len(brute.vertices) and all(
                any(dist(v, w) <= 1e-9 for w in brute.vertices) for v in engine
            )
        if same:
            lines.append(f"vertices: {len(brute.vertices)} = {len(engine)}, OK")
        else:
            failures.append("vertex sets disagree")
            lines.append(
                f"vertices: oracle {len(brute.vertices)} != engine "
                f"{len(engine)}, MISMATCH"
            )

    if args.samples:
        sampled = sampled_covering_radius(config, args.samples, args.seed)
        radius = report.radius_float
        if sampled <= radius + 1e-9:
            lines.append(
                f"sampling: lower bound {sampled:.5f} <= {radius:.5f}, OK"
            )
        else:
            failures.append("sampled lower bound exceeds the computed radius")
            lines.append(
                f"sampling: lower bound {sampled:.5f} > {radius:.5f}, MISMATCH"
            )

    if args.timing:
        lines.append(f"wall time: {time.perf_counter() - start:.3f}s")
    lines.append("agreement: " + ("OK" if not failures else "FAILED"))
    sys.stdout.write("\n".join(lines) + "\n")
    if failures:
        for failure in failures:
            print(f"oracle disagreement: {failure}", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _configure_logging(getattr(args, "timing", False))
    if args.command == "verify":
        return _cmd_verify(args, parser)
    if args.command == "radius":
        return _cmd_radius(args, parser)
    return _cmd_oracle(args, parser)


if __name__ == "__main__":
    sys.exit(main())
