"""Run workloads over several seeds and report the spread of each metric.

    python3 perfbench/summarize.py --runs 10 [--workloads checklist,kripke]
        [--first-seed 0] [--traced] [--out perfbench/baseline.json]

Each run is a fresh ``run.py`` process, one after another.  For every
end-to-end metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json.  ``--traced`` adds one
traced run per workload (per-layer metrics and tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if not done.stdout.strip():
        raise SystemExit(f"{' '.join(cmd)} printed nothing (exit {done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["exit"] = done.returncode
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "seconds": args.seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in report["seeds"]]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {},
        }
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}")
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] <= bound / 3 else ("within bound" if s["spread"] <= bound else "OVER BOUND")
            print(f"  {name:<16} median {s['median']:12.6f} {s['unit']:<3} spread {s['spread']:.4f} "
                  f"(bound {bound}) {flag}  {[round(v, 4) for v in s['values']]}")
        if args.traced:
            traced = run_once(workload, report["seeds"][0], args.seconds, 1)
            entry["traced"] = {
                "seed": report["seeds"][0],
                "correct": traced["correct"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            }
            print(f"  traced: overhead {traced['metrics']['trace.overhead_s']['value']:.4f} s")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
