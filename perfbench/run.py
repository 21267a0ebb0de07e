"""The sphcover benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--scale full|tiny] [--reference PATH]

Run from the root of a source checkout; the program is imported from
``src/`` and needs no build.  Every pass runs in a fresh interpreter
(worker.py), one at a time, with BLAS pinned to one thread, because a user
pays the import, the configuration expansion and every cache on each
``sphcover`` call.  Passes repeat until the next one would overrun
``--seconds``, with a minimum of MIN_PASSES.  Set-up time is also sampled by
SETUP_PROBES processes that stop once their inputs are ready.

Times are in quiet-host seconds: wall seconds of the program's own work,
scaled by how fast a fixed calibration kernel ran at the same time (see
hostspeed.py), so that the host's drifting speed cancels out.  The raw wall
times and the speed factor are printed in the table too.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics of the traced ones and the tracing overhead (traced minus untraced
median pass time), and writes the spans to .perfbench_out/.

Every operation's outputs are checked against perfbench/reference.json.
A table of every measured metric (unit, samples, median, quartiles) goes
to stdout, followed by one JSON line; the exit code is 1 when any
operation failed or mismatched and 2 when a pass could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run still busy at this wall time is aborted
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
HOST_UNITS = {"wall.pass_s": "s", "wall.setup_s": "s", "host.speed_factor": "1"}


class PassFailed(RuntimeError):
    """A worker process crashed or printed no result."""


def spawn(args, *flags: str, started: float) -> dict:
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    if timeout <= 0:
        raise PassFailed("run time limit reached")
    env = dict(os.environ, **SINGLE_THREAD)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale,
           "--reference", args.reference, *flags]
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values) -> tuple:
    """(samples, median, first quartile, third quartile)."""
    values = sorted(values)
    if len(values) == 1:
        return 1, values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return len(values), q2, q1, q3


def measure(args) -> tuple:
    """Run the probes and passes; returns (samples by metric, passes)."""
    started = time.monotonic()
    probes = [spawn(args, "--probe", started=started) for _ in range(SETUP_PROBES)]
    plain, traced, walls = [], [], []
    while True:
        elapsed = time.monotonic() - started
        done = len(plain) + len(traced)
        if done >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds:
            break
        use_trace = args.trace and done % 2 == 1
        begin = time.monotonic()
        result = spawn(args, *(["--trace"] if use_trace else []), started=started)
        walls.append(time.monotonic() - begin)
        (traced if use_trace else plain).append(result)

    samples = {
        "pass_s": [p["pass_s"] for p in plain],
        "slowest_op_s": [max(p["op_s"]) for p in plain],
        "setup_s": [p["setup_s"] for p in probes + plain + traced],
        "peak_rss_mib": [p["peak_rss_mib"] for p in plain],
        "wall.pass_s": [p["pass_wall_s"] for p in plain],
        "wall.setup_s": [p["setup_wall_s"] for p in probes + plain + traced],
        "host.speed_factor": [p["speed_factor"] for p in plain + traced],
    }
    if traced:
        for name in traced[0]["layers"]:
            samples[name] = [p["layers"][name] for p in traced]
        samples["trace.overhead_s"] = [
            statistics.median(p["pass_s"] for p in traced)
            - statistics.median(samples["pass_s"])
        ]
        write_spans(args, traced)
    return samples, plain + traced


def write_spans(args, traced) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    fields = ("name", "start", "end", "parent", "op")
    passes = [{"op_keys": p["op_keys"], "spans": [dict(zip(fields, s)) for s in p["spans"]]}
              for p in traced]
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "passes": passes}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so that subprocess.run
    # kills and reaps the running pass before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "sphcover" / "__init__.py").is_file():
        print(f"perfbench: no sphcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        samples, passes = measure(args)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for failure in (f for p in passes for f in p["failures"]):
        print(f"perfbench: MISMATCH {failure}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  ops {attempted}  failed {failed}  "
          f"fail_ratio {failed / attempted:.4f}")
    print(f"{'metric':<26} {'unit':>6} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14}")
    for name, values in samples.items():
        count, med, q1, q3 = summary(values)
        unit = UNITS.get(name) or HOST_UNITS[name]
        print(f"{name:<26} {unit:>6} {count:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}")

    reported = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": summary(samples[m["name"]])[1], "unit": m["unit"]}
               for m in reported}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
