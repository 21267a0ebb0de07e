"""Record the reference table that the benchmark's output gate checks.

    python3 perfbench/record_reference.py

Runs one traced pass of every verify workload in record mode and writes
the observed outputs of each operation to perfbench/reference.json.  Run it
once on a commit whose outputs are trusted; later commits are checked
against that table and must reproduce it exactly.  The oracle workload
needs no entries of its own: it checks brute force against the engine and
its sampled bound against the certified radius recorded here.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import VERIFY_DIMS  # noqa: E402

REFERENCE = HERE / "reference.json"


def main() -> int:
    table = {}
    for workload in VERIFY_DIMS:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", "0", "--trace", "--record", "--reference", str(REFERENCE),
               "--spawned", repr(time.monotonic())]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             cwd=HERE.parent)
        result = json.loads(out.stdout.splitlines()[-1])
        if result["failed"]:
            print("\n".join(result["failures"]), file=sys.stderr)
            return 1
        table.update(result["observed"])
    REFERENCE.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    print(f"wrote {len(table)} entries to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
