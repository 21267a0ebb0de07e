"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every workload runs traced and untraced with a clean gate and
the metric names of BENCHMARK.json, that traced counts repeat exactly, that
a deliberately wrong reference entry makes the gate fail (exit 1, correct
false), and that a directory holding only the benchmark exits nonzero
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("configgen.points", "cli.stdout_bytes", "polytope.halfspaces_in",
          "polytope.vertices_out", "polytope.cut_insertions", "polytope.max_rays",
          "polytope.rays_sum", "oracle.subsets")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT, seed: int = 7):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke FAILED: {message}")
    print(f"ok  {message}")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, err = bench(workload, trace)
            expect(rc == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace {trace} runs clean{'' if rc == 0 else chr(10) + err}")
            expect(set(result["metrics"]) == {m["name"] for m in SPEC[group]},
                   f"{workload} trace {trace} reports exactly the {group} metrics")
        _, again, _ = bench(workload, 1)
        expect(all(again["metrics"][c]["value"] == result["metrics"][c]["value"]
                   for c in COUNTS), f"{workload} traced counts repeat exactly")

    with tempfile.TemporaryDirectory() as tmp:
        wrong = json.loads((HERE / "reference.json").read_text())
        wrong["verify --dim 5"]["radius"] = "0.88609"
        wrong["verify --dim 8"]["radius_float"] = 0.1  # the sampled built-in
        path = Path(tmp) / "wrong.json"
        path.write_text(json.dumps(wrong))
        for workload in ("exact-table1", "oracle"):
            rc, result, _ = bench(workload, 0, "--reference", str(path))
            expect(rc == 1 and result is not None and not result["correct"]
                   and result["failed"] > 0,
                   f"{workload} gate catches a wrong reference entry")

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, result, _ = bench("exact-table1", 0, cwd=bare)
        expect(rc != 0 and result is None,
               "without the program's sources it exits nonzero and prints no result")
    print("smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
