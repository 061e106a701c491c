"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py [--seeds N]

Writes perfbench/reference.json:
  cli          exit code and sha256 of stdout for every well-formed entry
               of the request catalogue (the same for every seed);
  kripke       the output digest of seeds 0..N-1, each cross-checked once
               against the compiled path: frames.compile_program over the
               same model, run on the frames value tables;
  consequence  the output digest of seeds 0..N-1.
A seed's digest is stored only when its round has no wrong output under
the benchmark's own checks.  Recording is meant for a commit whose
outputs are trusted; a run with a seed outside 0..N-1 still gets every
check except the digest comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import HERE, ROOT, WORK, import_package, run_round
from workloads import KRIPKE_FORMULAS, Cli, Consequence, Kripke, bad_inputs, cli_catalogue, render, sha


def compiled_values(ml, doc: dict, formulas) -> dict:
    """Every formula at every world through frames.compile_program."""
    frames, Value = ml.frames, ml.values.Value
    worlds = doc["worlds"]
    n = len(worlds)
    index = {w: i for i, w in enumerate(worlds)}
    lat = [ml.logics.LOGIC_IDS.index(doc["logics"][w]) for w in worlds]
    succs = [[] for _ in worlds]
    for u, v in doc["relation"]:
        succs[index[u]].append(index[v])
    atoms = ("p", "q")
    vals = [[int(Value[doc["valuation"][w][a]]) for w in worlds] for a in atoms]
    MEET, JOIN, IMP, CIRC, NEG, DOWN, UP, TOP, BOT = (
        t.tolist()
        for t in (frames.MEET_T, frames.JOIN_T, frames.IMP_T, frames.CIRC_T, frames.NEG_T,
                  frames.DOWN_T, frames.UP_T, frames.TOP_T, frames.BOT_T)
    )
    binary = {"and": MEET, "or": JOIN, "imp": IMP}
    out = {}
    for f in formulas:
        slots = []
        for node in frames.compile_program(ml.syntax.parse(render(f)), doc["diamond"], atoms):
            kind = node[0]
            if kind == "atom":
                row = vals[node[1]]
            elif kind == "bottom":
                row = [BOT[L] for L in lat]
            elif kind == "neg":
                row = [NEG[x] for x in slots[node[1]]]
            elif kind == "circ":
                c = slots[node[1]]
                row = [CIRC[lat[w]][c[w]] for w in range(n)]
            elif kind in binary:
                tbl, a, b = binary[kind], slots[node[1]], slots[node[2]]
                row = [tbl[lat[w]][a[w]][b[w]] for w in range(n)]
            else:  # box, dia_up, dia_down
                c = slots[node[1]]
                interp = UP if kind == "dia_up" else DOWN
                fold, start = (MEET, TOP) if kind == "box" else (JOIN, BOT)
                row = []
                for w in range(n):
                    L = lat[w]
                    acc = start[L]
                    for u in succs[w]:
                        acc = fold[L][acc][interp[L][c[u]]]
                    row.append(acc)
            slots.append(row)
        for w in range(n):
            out[(worlds[w], f)] = Value(slots[-1][w])
    return out


def record_seed(cls, ml, seed: int, workdir) -> str:
    workload = cls(seed, ROOT, workdir, {})
    workload.bind(ml)
    reqs = workload.requests()
    _, _, results = run_round(reqs)
    _, wrong = workload.check_round(reqs, results)
    if wrong:
        raise SystemExit(f"{cls.name} seed {seed}: {wrong} wrong outputs: {workload.problems}")
    if cls is Kripke:
        for variant, doc in workload.docs.items():
            if compiled_values(ml, doc, KRIPKE_FORMULAS) != workload.expected[variant]:
                raise SystemExit(f"kripke seed {seed} {variant}: compiled path disagrees")
    workload.cleanup()
    return workload.output_digest


def main() -> int:
    parser = argparse.ArgumentParser(description="record perfbench/reference.json")
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args()
    ml = import_package()
    workdir = WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference: dict = {"cli": {}}
    try:
        cli = Cli(0, ROOT, workdir, {})
        cli.bind(ml)
        fixtures = ROOT / "src" / "manylogic" / "fixtures"
        bad = {eid for eid, _ in bad_inputs(fixtures)}
        for entries in cli_catalogue(fixtures).values():
            for eid, argv in entries:
                assert eid not in bad
                code, stdout = cli._call(argv)
                if code not in (0, 1):
                    raise SystemExit(f"{eid}: exit code {code}")
                reference["cli"][eid] = [code, sha(stdout)]
        for cls in (Kripke, Consequence):
            reference[cls.name] = {}
            for seed in range(args.seeds):
                reference[cls.name][str(seed)] = record_seed(cls, ml, seed, workdir)
                print(f"{cls.name} seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
