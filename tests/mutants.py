"""A mutation catalogue: one-line faults that tier-1 must catch.

    python tests/mutants.py [ids ...]

Each named entry (every entry when none is named) is planted alone in a
copy of the repository in a temporary directory, never in the checkout,
and pytest runs there with -x, for at most TIMEOUT seconds in all: first
on the mutated module's own test file (tests/test_<module>.py), where
there is one, since its tests fail soonest, then, if that passes, on
the whole of tier-1.  The table
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


MODELS, FRAMES, SYNTAX = "src/manylogic/models.py", "src/manylogic/frames.py", "src/manylogic/syntax.py"
BIVALUATIONS = "src/manylogic/bivaluations.py"
# The clause search from a backtrack's value to a branch's: the mutant swaps the two.
_SEARCH_STEP = (
    "vals[lo] = 1\n            trail.append(lo)\n            ok = propagate(mark)\n"
    "        while lo < n and vals[lo] >= 0:\n            lo += 1\n        if lo == n:\n"
    "            yield dict(zip(order, vals))\n            work += leaf_work\n            ok = False\n"
    "        else:\n            work += 1\n            mark = len(trail)\n"
    "            branches.append((lo, mark))\n            vals[lo] = 0"
)

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
    Mutant("load-diamond-override", MODELS,
           "(diamond := own if diamond is None else diamond) not in DIAMOND_VARIANTS:",
           "not (diamond := own if diamond is None else diamond):",
           "an unknown override diamond loads as the document's variant, with a clean report"),
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
    Mutant("validate-pair-type", MODELS,
           "return type(entry) is tuple and len(entry) == 2", "return len(entry) == 2",
           "a string or a set of two names passes as a pair: validate unpacks it into an edge"),
    Mutant("successors-pair", MODELS,
           "if _is_pair(p) and p[0] == w]", "if p[0] == w]",
           "successors reads a string, a 3-tuple or None as an edge, or raises on it"),
    Mutant("validate-atom-rule", MODELS,
           "if isinstance(atom, str) and syntax.ATOM_RE.fullmatch(atom):", "if isinstance(atom, str):",
           "validate passes a valuation key that no formula can mention and no document may hold"),
    Mutant("unhashable-logic", MODELS,
           "elif not isinstance(lid := model.logics[w], str) or lid not in _LOGIC_INDEX:",
           "elif (lid := model.logics[w]) not in _LOGIC_INDEX:",
           "validate raises TypeError for an unhashable logic id instead of reporting it"),
    # the tagged runner: byte slots up to 255 worlds, a loop over each
    # world's successors above
    Mutant("fanout-box-pad", MODELS,
           'ch.ljust(256, b"\\x0f" if kind == "box"', 'ch.ljust(256, b"\\0" if kind == "box"',
           "a box's padding slots read F, so every world of out-degree under d reads its lattice's bottom"),
    Mutant("fanout-dia-down-receiver", MODELS,
           "at = _num((at | _num(lat * d)).to_bytes(", "at = _num(at.to_bytes(",
           "dia_down reads each successor through LETK's down, not the receiving world's"),
    Mutant("fanout-bound", MODELS,
           "if type(x) is Model and n <= 255:", "if type(x) is Model and n <= 256:",
           "a 256-world model takes the byte slots: position 255 reads as padding"),
    Mutant("fanout-halving-step", MODELS,
           "while half >= 8 * n:", "while half > 8 * n:",
           "the last halving step is dropped: a world's fold reads only every other slot"),
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
    Mutant("frame-properties-pair", FRAMES,
           "frame.relation if not _is_pair(e)", "frame.relation if not isinstance(e, tuple)",
           "frame_properties keeps a rule of its own: a 1- or 3-tuple reaches the relation walk"),
    Mutant("unhashable-logic-set", FRAMES,
           "if not isinstance(lid, str) or lid not in _LOGIC_INDEX:", "if lid not in _LOGIC_INDEX:",
           "a frame check raises TypeError for an unhashable logic id instead of BudgetError"),
    Mutant("lanes-dia-down", FRAMES,
           '_num(ch[0][u] if kind == "dia_up" else ch[0][u].translate(_B_DOWN[l]))', "_num(ch[0][u])",
           "the byte-lane runner folds dia_down as dia_up"),
    Mutant("sweep-dia-down", FRAMES,
           'x = ch[u] if kind == "dia_up" else DOWN_M.take(l | ch[u])', "x = ch[u]",
           "the batched sweep runner folds dia_down as dia_up"),
    # the formula language: the printer's and the logics' tables, read off syntax
    Mutant("printer-right-assoc", SYNTAX,
           "if least > strength}", "if least >= strength}",
           "the printer takes & and | to associate right: p & q & r prints as (p & q) & r"),
    Mutant("names-swapped", SYNTAX,
           'Neg: "neg", Circ: "circ"', 'Neg: "circ", Circ: "neg"',
           "! runs the circ table and @ the neg table, and `tables` prints them in each other's place"),
    # the two-valued semantics: the clauses and the search that yields their assignments
    Mutant("clause-12", BIVALUATIONS,
           "12: lambda a, na: na == 1 or a == 1,", "12: lambda a, na: na == 1 or a == 0,",
           "LP's and J3's clause 12 asks rho(A)=0, not 1, where rho(!A)=0"),
    Mutant("clause-16", BIVALUATIONS,
           "16: lambda a, na, t: t == 0 or a ^ na == 1,", "16: lambda a, na, t: t == 0 or a | na == 1,",
           "LETK's clause 16 lets @A hold where A and !A are both 1"),
    Mutant("clause-18", BIVALUATIONS,
           "18: lambda ca, t: t == ca,", "18: lambda ca, t: t == 1 - ca,",
           "LETK's clause 18 gives @!A the opposite of @A"),
    Mutant("clause-21", BIVALUATIONS,
           "t == (a & cb & nb) | (ca & na) | (cb & b),", "t == (a & cb & nb) | (ca & a) | (cb & b),",
           "LETK's clause 21 reads @(A -> B) off @A and A, not @A and !A"),
    Mutant("clause-22", BIVALUATIONS,
           "22: lambda a, cb, t: t == (1 - a) | cb,", "22: lambda a, cb, t: t == a | cb,",
           "LJ4's, J3's and L3's clause 22 reads @(A -> B) off A, not its negation"),
    Mutant("search-leaf-work", BIVALUATIONS,
           "            work += leaf_work\n", "",
           "an assignment yielded and passed costs the search no work: a wide domain lists past its limit"),
    Mutant("search-one-first", BIVALUATIONS,
           _SEARCH_STEP, "vals[lo] = 0" + _SEARCH_STEP[12:-12] + "vals[lo] = 1",
           "each branch tries 1 before 0: assignments and witnesses come out of lexicographic order"),
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
        tier1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "--ignore", "tests/test_mutants.py"]
        own = Path("tests", f"test_{Path(mutant.path).stem}.py")
        env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"} | {"PYTHONPATH": str(copy / "src")}
        start = time.perf_counter()
        for command in [tier1 + [str(own)], tier1] if (copy / own).is_file() else [tier1]:
            try:
                done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                                      timeout=TIMEOUT - (time.perf_counter() - start))
            except subprocess.TimeoutExpired:
                return "timeout", "", time.perf_counter() - start
            if done.returncode != 0:  # a kill or an error: tier-1 need not run
                break
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
