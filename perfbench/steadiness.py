"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 1-10 [--workload NAME ...]
        [--out perfbench/results/steadiness.json]

Runs the BENCHMARK.json command once per seed and workload, untraced, for
run_seconds each, and reports per metric the median of the per-run values
and their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
spread is steady when it stays below a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    report, steady = {}, True
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(spec, workload, seed)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: outputs mismatched")
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, json.dumps(runs[-1]), flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [run[metric["name"]] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": metric["bound"]}
            steady &= metric["name"] == "setup_s" or spread < metric["bound"] / 3
            print(f"  {metric['name']:<14} median {med:10.4f}  spread {spread:.4f}  "
                  f"bound {metric['bound']}", flush=True)
        report[workload] = {"runs": runs, "metrics": rows}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady: a spread reaches a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
