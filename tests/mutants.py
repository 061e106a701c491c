"""A mutation catalogue: one-line faults that tier-1 must catch.

    python tests/mutants.py [ids ...]

Each named entry (every entry when none is named) is planted alone in a
copy of the repository in a temporary directory, never in the checkout,
and tier-1 runs there with -x, for at most TIMEOUT seconds.  The table
printed gives each mutant's outcome, the first failing test and the
seconds the run took.  A mutant is killed only when pytest exits 1
naming a failing test; any other exit (a usage error, no tests
collected, tests that cannot import) is an error, not a kill.  The exit
status is 1 if a named mutant is not killed, and 2 for an unknown id.

A tier-1 test checks only that each entry's old text occurs exactly
once in its file, so the catalogue fails loudly when the code moves
under it.  A survivor is closed by a test, or kept here with the reason
it is equivalent to the code.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0  # seconds per mutant


class Mutant(NamedTuple):
    id: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    breaks: str


MODELS, FRAMES = "src/manylogic/models.py", "src/manylogic/frames.py"

MUTANTS = (
    # the world axis a loaded document takes: laid out while it is checked
    Mutant("validate-tag", MODELS,
           "tags = bytes([16 * _LOGIC_INDEX[logics[w]] for w in worlds])",
           "tags = bytes([_LOGIC_INDEX[logics[w]] for w in worlds])",
           "every loaded world's tag reads LETK's table rows, and its values LETK's lattice"),
    Mutant("load-succs-reversed", MODELS,
           "succs[seen[p[0]]].append(seen[p[1]])", "succs[seen[p[1]]].append(seen[p[0]])",
           "a loaded document's successors are laid out along each edge reversed"),
    Mutant("load-unknown-world-clean", MODELS,
           "except KeyError:  # an unknown world\n            clean = False",
           "except KeyError:  # an unknown world\n            pass",
           "a document whose relation names an unknown world takes the clean path: no error reported"),
    Mutant("load-repeated-pair-twice", MODELS,
           "len(pairs) == len(relation) and", "len(pairs) <= len(relation) and",
           "a document that repeats a pair takes the clean path: the pair is laid out twice"),
    Mutant("load-empty-worlds-clean", MODELS,
           "len(seen) == n > 0", "len(seen) == n",
           "a document with no worlds takes the clean path: 'empty world set' is not reported"),
    Mutant("load-lattice-unchecked", MODELS,
           "if value in members:", "if members:",
           "a value outside its world's lattice takes the clean path: no error reported"),
    Mutant("columns-untagged", MODELS,
           "(_num(c) | tag_bits).to_bytes(n", "_num(c).to_bytes(n",
           "atom columns carry no tag, so every atom reads LETK's masks"),
    # the axis validation lays out: a model built in Python, or a document
    # with an anomaly (a missing atom)
    Mutant("missing-atom-bottom", MODELS,
           'codes[atom] = bytearray(b"\\x06") * len(model.worlds)',
           'codes[atom] = bytearray(b"\\x05") * len(model.worlds)',
           "an atom missing at a world reads F there, not the world's bottom"),
    Mutant("built-tag", MODELS,
           "tags[i] = 16 * _LOGIC_INDEX[lid]", "tags[i] = _LOGIC_INDEX[lid]",
           "every world of a model built in Python reads LETK's table rows and lattice"),
    Mutant("unhashable-logic", MODELS,
           "elif not isinstance(lid := model.logics[w], str) or lid not in _LOGIC_INDEX:",
           "elif (lid := model.logics[w]) not in _LOGIC_INDEX:",
           "validate raises TypeError for an unhashable logic id instead of reporting it"),
    # the tagged runner
    Mutant("run-dia-down", MODELS,
           "acc |= _DOWN[l | ch[u]]", "acc |= ch[u]",
           "eval_formula folds dia_down as dia_up: the successors' values are not interpreted"),
    Mutant("run-box-unit", MODELS,
           "acc = 15", "acc = 7",
           "a box at a dead end is down_w(T0), not the world's top"),
    Mutant("run-bottom-row", MODELS,
           "bot = _num(lat), len(lat), lat.translate(_UP_T)", "bot = _num(lat), len(lat), lat",
           "# and an atom missing everywhere read F, outside the weak logics' lattices"),
    Mutant("programs-key", MODELS,
           "key = (f, model.diamond)", "key = (f,)",
           "a formula's program compiled under one diamond variant is run under every other"),
    Mutant("answers-position", MODELS,
           "return model._answers[f][model._axis[0][world]]", "return model._answers[f][model._axis[0][world] - 1]",
           "a kept formula is read at the world before the one asked for"),
    # frame checks
    Mutant("frame-tag-bits", FRAMES,
           "lat = frame.worlds, [t >> 4 for t in tags]", "lat = frame.worlds, [t & 15 for t in tags]",
           "axiom_valid_on_frame runs every world under LETK"),
    Mutant("unhashable-logic-set", FRAMES,
           "if not isinstance(lid, str) or lid not in _LOGIC_INDEX:", "if lid not in _LOGIC_INDEX:",
           "a frame check raises TypeError for an unhashable logic id instead of BudgetError"),
    Mutant("lanes-dia-down", FRAMES,
           '_num(ch[0][u] if kind == "dia_up" else ch[0][u].translate(_B_DOWN[l]))', "_num(ch[0][u])",
           "the byte-lane runner folds dia_down as dia_up"),
    Mutant("sweep-dia-down", FRAMES,
           'x = ch[u] if kind == "dia_up" else DOWN_M.take(l | ch[u])', "x = ch[u]",
           "the batched sweep runner folds dia_down as dia_up"),
    # the checklist and the lattices
    Mutant("unhashable-criterion", "src/manylogic/verify.py",
           "if not isinstance(c, str) or c not in checks", "if c not in checks",
           "run_all raises TypeError for an unhashable criterion id instead of CriterionError"),
    Mutant("meet-set-unit", "src/manylogic/lattices.py",
           "reduce(self.meet, xs, self.top)", "reduce(self.meet, xs, self.bottom)",
           "the meet of no values is the bottom, not the top"),
    Mutant("join-set-unit", "src/manylogic/lattices.py",
           "reduce(self.join, xs, self.bottom)", "reduce(self.join, xs, self.top)",
           "the join of no values is the top, not the bottom"),
    Mutant("closure-one-pass", "src/manylogic/lattices.py",
           "                    changed = True", "                    pass",
           "transitive_closure composes the relation once: chains of three edges stay open"),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".bench_work")
_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run(mutant: Mutant) -> tuple[str, str, float]:
    """(killed, survived, error, timeout or unplanted; the first failing
    test, or what went wrong; seconds)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "unplanted", f"old text occurs {text.count(mutant.old)} times", 0.0
        target.write_text(text.replace(mutant.old, mutant.new))
        # less the catalogue's own check, which any planted entry fails
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "--ignore", "tests/test_mutants.py"]
        env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"} | {"PYTHONPATH": str(copy / "src")}
        start = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout", "", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "survived", "", seconds
    first = _FIRST_FAILURE.search(done.stdout)
    if done.returncode == 1 and first:
        return "killed", first.group(1), seconds
    return "error", f"pytest exit {done.returncode}", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="mutant ids (default: every entry)")
    args = parser.parse_args(argv)
    by_id = {m.id: m for m in MUTANTS}
    unknown = [i for i in args.ids if i not in by_id]
    if unknown:
        print(f"unknown mutant {unknown[0]!r}; expected one of {', '.join(by_id)}", file=sys.stderr)
        return 2
    width = max(len(i) for i in by_id)
    print(f"{'mutant':<{width}}  {'outcome':<9}  {'seconds':>7}  first failing test")
    missed = 0
    for mutant in [by_id[i] for i in args.ids] or MUTANTS:
        outcome, test, seconds = run(mutant)
        missed += outcome != "killed"
        print(f"{mutant.id:<{width}}  {outcome:<9}  {seconds:7.1f}  {test}", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
