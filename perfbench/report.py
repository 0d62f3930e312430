"""Print every end-to-end metric, with its unit, for every workload.

Run from the repository root:

    python3 perfbench/report.py

Each workload runs in its own fresh process through run.py, one after the
other, at seed 7 for BENCHMARK.json's run_seconds.  Exits 1 if any check fails or any run does not complete.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    print(f"{'workload':<15} {'metric':<14} {'value':>14} unit")
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{workload:<15} run failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for m in spec["end_to_end"]:
            value = result["metrics"][m["name"]]["value"]
            print(f"{workload:<15} {m['name']:<14} {value:>14.6g} {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:<15} {'checks_failed':<14} {ratio:>14.6g} ratio ({result['failed']}/{result['attempted']})")
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
