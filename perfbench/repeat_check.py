"""Check that the seed alone fixes the inputs, the outputs and every count.

    python3 perfbench/repeat_check.py [--seed 3] [--seconds 1]

For each workload: two traced runs with the same seed must print the same
input digest and output digest, and the same value for every per-layer
metric whose unit is ``count``; a run with the next seed must finish with
correct outputs.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGEST_RE = re.compile(r"^digest inputs=(\w+) outputs=(\w+)$", re.M)


def run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return DIGEST_RE.search(done.stdout).groups(), result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        first_digests, first = run(w, args.seed, args.seconds, 1)
        second_digests, second = run(w, args.seed, args.seconds, 1)
        differing = [c for c in counts if first["metrics"][c]["value"] != second["metrics"][c]["value"]]
        _, other = run(w, args.seed + 1, args.seconds, 0)
        checks = {
            "same inputs": first_digests[0] == second_digests[0],
            "same outputs": first_digests[1] == second_digests[1],
            f"same {len(counts)} counts": not differing,
            "both correct": first["correct"] and second["correct"],
            f"seed {args.seed + 1} correct": other["correct"],
        }
        ok &= all(checks.values())
        print(f"{w}: " + ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in checks.items()))
        if differing:
            print(f"  counts that differ: {differing}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
