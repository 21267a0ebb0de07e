"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T
        [--trace] [--probe] [--record] [--scale full|tiny] [--reference PATH]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start, the sphcover import
and the generation of the inputs.  ``--probe`` stops after set-up.  Each
operation is timed alone; its outputs are checked against the reference
table afterwards, outside the timed region.  Times are reported in
quiet-host seconds (see hostspeed.py): a Speedometer starts before the
program is imported, and set-up, operations and spans are timed on its
clock.  The wall times of set-up and of the operations are reported
alongside.  ``--trace`` records spans and counters (see tracing.py);
``--record`` reports the observed outputs instead of checking them.  The
result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from math import comb
from pathlib import Path

from hostspeed import Speedometer

# started before the program is imported, so that set-up is timed on the
# quiet-host clock too
SPEED = Speedometer()
SPEED.start()
SPEED_STARTED = time.monotonic()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sphcover import cli, covering, format_scalar, oracle, polytope  # noqa: E402

from tracing import RayCounter, Tracer  # noqa: E402
from workloads import build_ops  # noqa: E402

FLOAT_REL_TOL = 1e-12  # float cos^2 against the recorded value
SAMPLE_EPS = 1e-9  # slack of the sampled lower bound, as in `sphcover oracle`

# invariants of every verify operation, whatever the reference says
VERIFY_REQUIRED = {
    "rc": 0,
    "passes": True,
    "inconclusive": False,
    "below_2n": True,
    "deep_hole": True,
}

LAYER_TIMES = {
    "configgen.expand_s": "configgen.expand",
    "configgen.validate_s": "configgen.validate",
    "covering.radius_s": "covering.radius",
    "covering.render_s": "covering.render",
    "covering.deep_hole_s": "covering.deep_hole",
    "cli.emit_s": "cli.emit",
    "polytope.enumerate_s": "polytope.enumerate",
    "polytope.max_norm_s": "polytope.max_norm",
    "oracle.brute_s": "oracle.brute",
    "oracle.engine_s": "oracle.engine",
    "oracle.sample_s": "oracle.sample",
}
LAYER_COUNTS = (
    "configgen.points",
    "cli.stdout_bytes",
    "polytope.halfspaces_in",
    "polytope.vertices_out",
    "polytope.cut_insertions",
    "polytope.max_rays",
    "polytope.rays_sum",
    "oracle.subsets",
)


def _capture(module, attr: str, sink: list) -> None:
    """Keep every result returned through ``module.attr``."""
    original = getattr(module, attr)

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, attr, capturing)


def _instrument(tracer: Tracer) -> None:
    """Wrap the names the layers call through as spans and counters."""
    wrap = tracer.wrap
    wrap(cli, "main", "cli.main")
    wrap(cli, "verify_bounds", "cli.verify")
    for name in ("reports_to_text", "reports_to_json", "reports_to_csv"):
        wrap(cli, name, "cli.emit")
    wrap(covering, "builtin_configuration", "configgen.expand",
         lambda t, a, r: t.count("configgen.points", r.cardinality))
    wrap(covering, "covering_radius", "covering.radius")
    wrap(covering, "validate", "configgen.validate")
    wrap(covering, "enumerate_vertices", "polytope.enumerate", _count_enumeration)
    wrap(covering, "max_squared_norm", "polytope.max_norm")
    wrap(covering, "arccos_decimal", "covering.render")
    wrap(covering, "deep_hole_check", "covering.deep_hole")
    wrap(oracle, "brute_force_vertices", "oracle.brute",
         lambda t, a, r: t.count("oracle.subsets",
                                 comb(len(a[0].halfspaces), a[0].dimension)))
    wrap(oracle, "sampled_covering_radius", "oracle.sample")
    # covering holds its own binding, so only the oracle workload's direct
    # engine calls go through this one
    wrap(polytope, "enumerate_vertices", "oracle.engine")


def _count_enumeration(tracer: Tracer, args, result) -> None:
    tracer.count("polytope.halfspaces_in", len(args[0].halfspaces))
    tracer.count("polytope.vertices_out", len(result.vertices))


def _layers(tracer: Tracer) -> dict:
    total, own = tracer.totals()
    out = {metric: total.get(span, 0.0) for metric, span in LAYER_TIMES.items()}
    out["covering.self_s"] = own.get("covering.radius", 0.0)
    out.update({name: tracer.counters.get(name, 0) for name in LAYER_COUNTS})
    brute = out["oracle.brute_s"]
    out["oracle.subsets_per_s"] = out["oracle.subsets"] / brute if brute else 0.0
    return out


class Pass:
    """Runs one pass's operations, timing each alone, then checks them."""

    def __init__(self, reference: dict, tracer: Tracer | None, clock):
        self.reference = reference
        self.tracer = tracer
        self.clock = clock
        self.reports, self.configs = [], []
        _capture(cli, "verify_bounds", self.reports)
        _capture(covering, "builtin_configuration", self.configs)

    # -- timed parts ---------------------------------------------------------

    def run_verify(self, op):
        self.reports.clear()
        self.configs.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(op["argv"])
        return rc, out.getvalue()

    def run_oracle(self, op):
        return [(oracle.brute_force_vertices(poly), polytope.enumerate_vertices(poly))
                for poly in op["polys"]]

    def run_sample(self, op):
        return oracle.sampled_covering_radius(op["config"], op["samples"], op["seed"])

    # -- checks, outside the timed region -----------------------------------

    def observe_verify(self, outcome, vertices_before: int) -> dict:
        rc, stdout = outcome
        observed = {"rc": rc, "stdout": stdout}
        if self.tracer is not None:
            self.tracer.count("cli.stdout_bytes", len(stdout.encode()))
            observed["vertices_out"] = (
                self.tracer.counters.get("polytope.vertices_out", 0) - vertices_before
            )
        if len(self.reports) != 1 or len(self.reports[0]) != 1 or len(self.configs) != 1:
            return observed
        report, config = self.reports[0][0], self.configs[0]
        observed.update(
            backend=str(report.backend),
            cos2=format_scalar(report.cos2_radius),
            radius=report.radius,
            threshold=report.threshold_radius,
            radius_float=report.radius_float,
            passes=bool(report.passes),
            inconclusive=bool(report.inconclusive),
            cardinality=report.cardinality,
            below_2n=report.cardinality < 2**report.dimension,
            deep_hole=bool(covering.deep_hole_check(config, report)),
        )
        return observed

    def check_verify(self, op, observed: dict) -> list:
        expected = self.reference.get(op["key"])
        if expected is None:
            return [f"{op['key']}: no reference entry"]
        problems = [
            f"{op['key']}: {key} is {observed.get(key)!r}, must be {want!r}"
            for key, want in VERIFY_REQUIRED.items()
            if observed.get(key) != want
        ]
        for key, want in expected.items():
            if key == "vertices_out" and self.tracer is None:
                continue
            got = observed.get(key)
            if key == "radius_float" or (key == "cos2" and expected["backend"] == "float"):
                same = got is not None and (
                    abs(float(got) - float(want)) <= FLOAT_REL_TOL * abs(float(want)))
            else:
                same = got == want
            if not same:
                problems.append(f"{op['key']}: {key} is {got!r}, reference {want!r}")
        return problems

    def check_oracle(self, op, outcome) -> list:
        return [f"{op['key']} #{i}: brute force has {len(brute.vertices)} vertices, "
                f"engine {len(engine.vertices)}, sets differ"
                for i, (brute, engine) in enumerate(outcome)
                if set(brute.vertices) != set(engine.vertices)]

    def check_sample(self, op, sampled: float) -> list:
        if sampled <= op["certified"] + SAMPLE_EPS:
            return []
        return [f"{op['key']}: sampled bound {sampled!r} exceeds certified "
                f"radius {op['certified']!r}"]

    def run(self, ops, record: bool) -> dict:
        tracer = self.tracer
        op_s, wall_s, failures, observations = [], [], [], {}
        failed = 0
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            vertices_before = tracer.counters.get("polytope.vertices_out", 0) if tracer else 0
            start, start_wall = self.clock(), time.perf_counter()
            try:
                outcome = getattr(self, "run_" + op["kind"])(op)
            except Exception:
                op_s.append(self.clock() - start)
                wall_s.append(time.perf_counter() - start_wall)
                failures.append(f"{op['key']}: raised\n{traceback.format_exc()}")
                failed += 1
                continue
            op_s.append(self.clock() - start)
            wall_s.append(time.perf_counter() - start_wall)
            try:
                if op["kind"] == "verify":
                    observed = self.observe_verify(outcome, vertices_before)
                    observations[op["key"]] = observed
                    problems = [] if record else self.check_verify(op, observed)
                else:
                    problems = getattr(self, "check_" + op["kind"])(op, outcome)
            except Exception:
                problems = [f"{op['key']}: check raised\n{traceback.format_exc()}"]
            failures.extend(problems)
            failed += bool(problems)
        result = {
            "pass_s": sum(op_s),
            "pass_wall_s": sum(wall_s),
            "op_s": op_s,
            "op_keys": [op["key"] for op in ops],
            "attempted": len(ops),
            "failed": failed,
            "failures": failures,
        }
        if record:
            result["observed"] = observations
        return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    try:
        return run(args)
    finally:
        SPEED.stop()


def run(args) -> int:
    path = Path(args.reference)
    reference = json.loads(path.read_text()) if path.exists() else {}
    ops = build_ops(args.workload, args.seed, args.scale, reference)
    setup = {
        "setup_wall_s": time.monotonic() - args.spawned,
        # interpreter start, before the Speedometer ran, at its first rate
        "setup_s": (SPEED_STARTED - args.spawned) * SPEED.first_rate + SPEED.clock(),
    }
    if args.probe:
        print(json.dumps(setup))
        return 0

    tracer = Tracer(SPEED.clock) if args.trace else None
    bench = Pass(reference, tracer, SPEED.clock)
    if tracer is None:
        result = bench.run(ops, args.record)
    else:
        _instrument(tracer)
        with RayCounter(tracer).attached("sphcover.polytope"):
            result = bench.run(ops, args.record)
    SPEED.stop()
    if tracer is not None:
        result["layers"] = _layers(tracer)
        result["spans"] = tracer.spans
    result["speed_factor"] = result["pass_s"] / result["pass_wall_s"]
    result.update(setup)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
