"""Benchmark for the manylogic package: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/manylogic``.  The
workload's inputs are made from the seed; the package is then imported
from ``src/`` and driven through its public functions by one client in a
closed loop.  A run is a fixed number of rounds of the workload's request
list, about ``--seconds`` of work at the seed commit; the round count
depends on ``--seconds`` only, so sample counts and percentile ranks stay
comparable between commits.  Every request is thus repeated once per
round, and its service time is the fastest of its repeats; the timed
metrics are built from these service times, divided by the host's
slowdown, which a fixed speed probe timed between requests measures.

``--trace 0`` prints every end-to-end metric of BENCHMARK.json.
``--trace 1`` alternates untraced and traced rounds and prints every
per-layer metric: span totals, counts taken from returned values, self
time per module, and the tracing overhead.  For `cli` it adds one pass of
the acceptance checklist.  The spans are written to
``.bench_work/spans-<workload>.json``.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9  # fresh processes whose set-up is timed for setup_s
# The host-speed probe runs once every PROBE_EVERY requests.  REFERENCE_PROBE_S
# is its median time on the machine the baseline was recorded on; timed
# metrics are scaled by REFERENCE_PROBE_S / (this run's median probe time).
PROBE_EVERY = 32
REFERENCE_PROBE_S = 60e-6
MODULES = ("values", "syntax", "lattices", "logics", "bivaluations", "models", "frames", "verify", "cli")

from workloads import WORKLOADS, Checklist  # noqa: E402

# Per-layer metrics that only the acceptance checklist exercises.  A pass
# of the checklist is too long (about 3.5 s) to be timed steadily within a
# run, so it is not a timed workload; the traced run of a workload with
# `traced_checklist` set adds one pass of it and reports these from that pass.
CHECKLIST_METRICS = ("lattices.laws_s", "frames.sweep_s", "frames.five_c_s", "frames.duality_s", "self.verify_s")


def import_package() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("manylogic")
    if Path(pkg.__file__).resolve().parent != (SRC / "manylogic").resolve():
        raise ImportError(f"manylogic was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"manylogic.{m}") for m in MODULES})


def set_up(args, workdir: Path):
    """Make the inputs (untimed), then import and warm up (timed)."""
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload](args.seed, ROOT, workdir, reference)
    # The inputs stay out of the collector's scans, so that their size does
    # not slow the import.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    ml = import_package()
    workload.bind(ml)
    workload.warm_up()
    return workload, ml, time.perf_counter() - start


def probe_setup(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def speed_probe() -> int:
    """A fixed piece of pure-Python work of the kind the package does
    (tuples, dict inserts and lookups), independent of the package.  Its
    keys are ints, whose hashes do not depend on the process's hash seed."""
    d = {}
    for i in range(150):
        t = (i, i & 7, 3)
        d[t] = [i, t]
    return sum(v[0] + len(k) for k, v in d.items())


def run_round(reqs, tracer=None, probes=None):
    """One pass over the request list; returns wall time, per-request
    latencies and (outputs, exceptions).  Every PROBE_EVERY requests the
    speed probe is timed, between requests, into `probes`."""
    n = len(reqs)
    latencies, outs, excs = [0.0] * n, [None] * n, [None] * n
    clock = time.perf_counter
    start = clock()
    for i, (kind, call) in enumerate(reqs):
        if tracer is not None:
            tracer.begin_request(i, kind)
        t = clock()
        try:
            outs[i] = call()
        except Exception as e:  # a failed request is an outcome, not an abort
            excs[i] = e
        latencies[i] = clock() - t
        if tracer is not None:
            tracer.end_request()
        if probes is not None and i % PROBE_EVERY == 0:
            # The probe's own allocations would set off the cycle collector,
            # whose cost depends on what the requests left behind.
            gc.disable()
            t = clock()
            speed_probe()
            probes.append(clock() - t)
            gc.enable()
    return clock() - start, latencies, (outs, excs)


def checklist_pass(args, ml, tracer_cls):
    """One untraced pass of verify.run_all, one request per criterion, for
    verify.ACn_s; then one traced pass for CHECKLIST_METRICS.  Both passes
    are checked.  Returns (metrics, attempted, failed, wrong, problems)."""
    checklist = Checklist(args.seed, ROOT, None, {})
    checklist.bind(ml)
    reqs = checklist.requests()
    gc.collect()
    _, lat, results = run_round(reqs)
    failed, wrong = checklist.check_round(reqs, results)
    tracer = tracer_cls()
    tracer.install(ml)
    try:
        _, _, results = run_round(reqs, tracer)
    finally:
        tracer.uninstall()
    f, w = checklist.check_round(reqs, results)
    tracer.dump(WORK / f"spans-{args.workload}-checklist.json", {"workload": "checklist", "seed": args.seed})
    values = {k: v for k, v in tracer.layer_metrics(ml, 1).items() if k in CHECKLIST_METRICS}
    values.update({f"verify.{kind}_s": t for (kind, _), t in zip(reqs, lat)})
    return values, 2 * len(reqs), failed + f, wrong + w, checklist.problems


def tail(samples):
    """The highest percentile with at least ten samples beyond it; the
    maximum when that percentile would not lie above the median."""
    ordered = sorted(samples)
    n = len(ordered)
    i = n - 11 if n - 11 > n // 2 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n


def best_of(rounds, keys):
    """Each request's service time: the fastest of its repeats, one per
    round and one per request with the same key.  On a shared host the
    slower repeats measure the neighbours."""
    fastest: dict = {}
    for latencies in rounds:
        for key, t in zip(keys, latencies):
            if t < fastest.get(key, float("inf")):
                fastest[key] = t
    return [fastest[key] for key in keys]


def round_count(workload, seconds: int) -> int:
    return max(1, round(seconds / workload.nominal_round_s))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "manylogic" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'manylogic'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, ml, setup = set_up(args, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        result = measure(args, spec, workload, ml)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(args, spec, workload, ml) -> dict:
    reqs = workload.requests()
    # The benchmark's own inputs and request list stay out of the garbage
    # collector's scans, so collector pauses come from the package's objects.
    gc.collect()
    gc.freeze()
    rounds = round_count(workload, args.seconds)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        rounds = max(rounds, 2)
    walls, traced_walls, rounds_lat, traced_lat, setups, probes = [], [], [], [], [], []
    attempted = failed = wrong = 0
    for r in range(rounds):
        # The set-up probes run between rounds, spread over the whole run,
        # so that their median does not hang on one moment of the host.
        # This process's own set-up is not a sample: in a fresh checkout it
        # also compiles the package's bytecode.
        while len(setups) < (r + 1) * SETUP_PROBES // rounds:
            setups.append(probe_setup(args))
        traced = tracer is not None and r % 2 == 1
        gc.collect()
        if traced:
            tracer.install(ml)
        try:
            wall, lat, results = run_round(reqs, tracer if traced else None, probes if workload.host_scaled else None)
        finally:
            if traced:
                tracer.uninstall()
        f, w = workload.check_round(reqs, results)
        attempted += len(reqs)
        failed += f
        wrong += w
        (traced_walls if traced else walls).append(wall)
        (traced_lat if traced else rounds_lat).append(lat)
    workload.cleanup()
    if tracer is not None and workload.traced_checklist:
        WORK.mkdir(exist_ok=True)
        checklist_values, n, f, w, problems = checklist_pass(args, ml, Tracer)
        attempted += n
        failed += f
        wrong += w
        workload.problems += problems

    keys = [workload.request_key(i) for i in range(len(reqs))]
    best = best_of(rounds_lat, keys)
    by_kind: dict[str, list] = {}
    for (kind, _), t in zip(reqs, best):
        by_kind.setdefault(kind, []).append(t)
    latencies = [t for (kind, _), t in zip(reqs, best) if workload.latency_kind in (None, kind)]
    # The upper median is one measured sample; the mean of the two middle
    # samples would fall in the gap between two request kinds of different cost.
    p50 = statistics.median_high(latencies)
    tail_value, tail_pct, n = tail(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # How much slower the host ran during this run than the reference host,
    # from the speed probes spread over the run.
    slowdown = statistics.median(probes) / REFERENCE_PROBE_S if workload.host_scaled else 1.0
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best) / slowdown,
        "latency_p50_ms": p50 * 1e3 / slowdown,
        "latency_tail_ms": tail_value * 1e3 / slowdown,
        "peak_rss_mb": rss_mb,
    }
    print(f"workload={args.workload} seed={args.seed} rounds={rounds} requests/round={len(reqs)} trace={args.trace}")
    print(f"digest inputs={workload.inputs_digest} outputs={workload.output_digest}")
    print(f"latency tail = p{tail_pct:.3f} of {n} samples; setup samples {[round(s, 4) for s in setups]}")
    print(f"round walls {[round(w, 4) for w in walls]}; traced {[round(w, 4) for w in traced_walls]}")
    print(f"best of {len(rounds_lat)} repeats per request; host slowdown {slowdown:.4f} "
          f"(median of {len(probes)} speed probes / {REFERENCE_PROBE_S * 1e6:.0f} us, 1 if none)")
    print(f"unscaled: wall_s {sum(best):.6f} s, latency_p50_ms {p50 * 1e3:.6f}, latency_tail_ms {tail_value * 1e3:.6f}")
    for name, value in e2e.items():
        unit = next((m["unit"] for m in spec["end_to_end"] if m["name"] == name), "")
        print(f"  {name:<16} {value:14.6f} {unit}")
    if "load" in by_kind:
        print(f"  {'load_s':<16} {sum(by_kind['load']):14.6f} s   (load_model + validate, best of each)")
    print(f"  {'fail_ratio':<16} {failed / attempted:14.6f} ratio  ({failed} failed of {attempted}, {wrong} wrong)")
    for problem in workload.problems:
        print(f"  ! {problem}")

    if tracer is None:
        wanted = spec["end_to_end"]
        values = e2e
    else:
        wanted = spec["per_layer"]
        values = tracer.layer_metrics(ml, len(traced_walls))
        untraced, traced = sum(best), sum(best_of(traced_lat, keys))
        values.update(
            {
                "trace.untraced_wall_s": untraced,
                "trace.traced_wall_s": traced,
                "trace.overhead_s": traced - untraced,
            }
        )
        for i in range(1, 13):
            values[f"verify.AC{i}_s"] = 0.0
        if workload.traced_checklist:
            values.update(checklist_values)
        # Request-level breakdowns come from the untraced rounds.
        for kind in ("eval", "check-frame", "consequence", "biv-consequence", "tables", "bad-input"):
            key = f"cli.{kind.replace('-', '_')}_p50_ms"
            samples = by_kind.get(kind)
            values[key] = statistics.median(samples) * 1e3 if samples else 0.0
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}.json", {"workload": args.workload, "seed": args.seed})
        for m in wanted:
            print(f"  {m['name']:<34} {values[m['name']]:>18.6f} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
