"""Check that the traced counters repeat exactly.

    python3 bench/check_counters.py

Runs the traced benchmark twice per workload with the default seed and
compares every per-layer metric that is a count or a ratio of counts
(all of them except times).  Exits 1 if any differs.  Nothing here
looks at a wall time, so it can gate without flaking.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def traced_counters(workload) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit("traced %s run failed:\n%s" % (workload, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("traced %s run reported wrong outputs:\n%s" % (workload, proc.stdout))
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}


def main() -> int:
    status = 0
    for workload in WORKLOADS:
        first, second = traced_counters(workload), traced_counters(workload)
        differ = sorted(k for k in first if first[k] != second.get(k))
        if differ:
            status = 1
            for k in differ:
                print("%s %s: %r then %r" % (workload, k, first[k], second.get(k)))
        else:
            print("%s: %d counters repeat exactly" % (workload, len(first)))
    return status


if __name__ == "__main__":
    sys.exit(main())
