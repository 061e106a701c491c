"""The acceptance suite: twelve checks, each with a stable identifier,
run by the CLI `verify` subcommand and by the test suite.

Expected tables, spot values and AC11's 5c report are frozen here as data;
everything else is recomputed on every run.  All comparisons are exact.
"""

from __future__ import annotations

from pathlib import Path
from random import Random
from typing import NamedTuple

from . import bivaluations, frames, lattices, models, syntax
from .lattices import LATTICES, SUBLATTICE_IDS, verify_lattice_laws
from .logics import LOGIC_IDS, LOGICS, apply, matrix_consequence, truth_table
from .syntax import Atom, parse
from .values import ManylogicError, Value, parse_value, require_ids

FIXTURES = Path(__file__).parent / "fixtures"

AC12_SEQUENT_COUNT = 200
AC12_SEED = 0
AC7_SAMPLES = 10000
AC8_SAMPLES = 5000
AC11_REPORT = frames.FiveCReport(frames.FIVE_C_LOGIC_IDS, 64410, 2101280, (), (), 0)  # one 5c sweep reproduces it


class CheckOutcome(NamedTuple):
    cid: str
    title: str
    passed: bool
    details: tuple[str, ...] = ()
    findings: tuple[str, ...] = ()


def _rows(text: str) -> list[list[Value]]:
    return [[parse_value(tok) for tok in line.split()] for line in text.strip().splitlines()]


# Frozen connective tables, keyed (logic, connective); rows follow
# the canonical element order of each logic's lattice.
GOLDEN_BINARY = {
    ("FDE", "and"): "T0 b n F0\nb b F0 F0\nn F0 n F0\nF0 F0 F0 F0",
    ("FDE", "or"): "T0 T0 T0 T0\nT0 b T0 b\nT0 T0 n n\nT0 b n F0",
    ("FDE", "imp"): "T0 b n F0\nT0 b n F0\nT0 T0 T0 T0\nT0 T0 T0 T0",
    ("K3", "and"): "T0 n F0\nn n F0\nF0 F0 F0",
    ("K3", "or"): "T0 T0 T0\nT0 n n\nT0 n F0",
    ("K3", "imp"): "T0 n F0\nT0 T0 T0\nT0 T0 T0",
    ("LP", "and"): "T0 b F0\nb b F0\nF0 F0 F0",
    ("LP", "or"): "T0 T0 T0\nT0 b b\nT0 b F0",
    ("LP", "imp"): "T0 b F0\nT0 b F0\nT0 T0 T0",
    ("LJ4", "and"): "T b n F\nb b F F\nn F n F\nF F F F",
    ("LJ4", "or"): "T T T T\nT b T b\nT T n n\nT b n F",
    ("LJ4", "imp"): "T b n F\nT b n F\nT T T T\nT T T T",
    ("J3", "and"): "T b F\nb b F\nF F F",
    ("J3", "or"): "T T T\nT b b\nT b F",
    ("J3", "imp"): "T b F\nT b F\nT T T",
    ("L3", "and"): "T n F\nn n F\nF F F",
    ("L3", "or"): "T T T\nT n n\nT n F",
    ("L3", "imp"): "T n F\nT T T\nT T T",
    ("LETK", "and"): (
        "T T0 b n F0 F\nT0 T0 b n F0 F\nb b b F0 F0 F\n"
        "n n F0 n F0 F\nF0 F0 F0 F0 F0 F\nF F F F F F"
    ),
    ("LETK", "or"): (
        "T T T T T T\nT T0 T0 T0 T0 T0\nT T0 b T0 b b\n"
        "T T0 T0 n n n\nT T0 b n F0 F0\nT T0 b n F0 F"
    ),
    ("LETK", "imp"): (
        "T T0 b n F0 F\nT T0 b n F0 F\nT T0 b n F0 F\n"
        "T T0 T0 T0 T0 T0\nT T0 T0 T0 T0 T0\nT T T T T T"
    ),
    ("L3", "impL"): "T n F\nT T n\nT T T",
    ("CLW", "and"): "T0 F0\nF0 F0",
    ("CLW", "or"): "T0 T0\nT0 F0",
    ("CLW", "imp"): "T0 F0\nT0 T0",
    ("CLS", "and"): "T F\nF F",
    ("CLS", "or"): "T T\nT F",
    ("CLS", "imp"): "T F\nT T",
}

GOLDEN_UNARY = {
    ("FDE", "neg"): "F0 b n T0",
    ("FDE", "circ"): "F0 F0 F0 F0",
    ("K3", "neg"): "F0 n T0",
    ("K3", "circ"): "F0 F0 F0",
    ("LP", "neg"): "F0 b T0",
    ("LP", "circ"): "F0 F0 F0",
    ("LJ4", "neg"): "F b n T",
    ("LJ4", "circ"): "T F F T",
    ("J3", "neg"): "F b T",
    ("J3", "circ"): "T F T",
    ("L3", "neg"): "F n T",
    ("L3", "circ"): "T F T",
    ("LETK", "neg"): "F F0 b n T0 T",
    ("LETK", "circ"): "T F F F F T",
    ("J3", "nabla"): "T T F",
    ("CLW", "neg"): "F0 T0",
    ("CLW", "circ"): "F0 F0",
    ("CLS", "neg"): "F T",
    ("CLS", "circ"): "T T",
}


def ac1_truth_tables() -> CheckOutcome:
    mismatches = []
    checked = 0
    for (lid, conn), text in GOLDEN_BINARY.items():
        logic = LOGICS[lid]
        want = _rows(text)
        table = truth_table(logic, conn)
        for i, x in enumerate(logic.lattice.elements):
            for j, y in enumerate(logic.lattice.elements):
                checked += 1
                if table.cells[(x, y)] != want[i][j]:
                    mismatches.append(f"{lid} {conn} [{x},{y}]: {table.cells[(x, y)]} != {want[i][j]}")
    for (lid, conn), text in GOLDEN_UNARY.items():
        logic = LOGICS[lid]
        (want,) = _rows(text)
        table = truth_table(logic, conn)
        for i, x in enumerate(logic.lattice.elements):
            checked += 1
            if table.cells[x] != want[i]:
                mismatches.append(f"{lid} {conn} [{x}]: {table.cells[x]} != {want[i]}")
    return CheckOutcome(
        "AC1",
        "truth-table goldens",
        not mismatches,
        (f"{checked} cells compared against the frozen tables",),
        tuple(mismatches),
    )


AC2_EXPECTED = [
    ("sec2.json", "w1", "[]p", "b"),
    ("sec2.json", "w2", "[]p", "b"),
    ("sec2.json", "w3", "[]p", "F0"),
    ("ex1.json", "w1", "[]p", "b"),
    ("ex2.json", "w1", "[]p", "F0"),
    ("ex3.json", "w2", "[]p", "F0"),
    ("ex3.json", "w3", "[]p", "F"),
    ("ex3.json", "w2", "[]q", "F0"),
    ("ex3.json", "w3", "[]q", "n"),
    ("ex4.json", "w1", "[]p", "F0"),
    ("ex4.json", "w4", "[]p", "F0"),
    ("ex4.json", "w7", "[]p", "T0"),
]


def ac2_worked_examples() -> CheckOutcome:
    bad = []
    for name, world, text, want in AC2_EXPECTED:
        model = models.load_model(FIXTURES / name)
        got = models.eval_formula(model, world, parse(text))
        if got != parse_value(want):
            bad.append(f"{name} {world} {text}: {got} != {want}")
    return CheckOutcome(
        "AC2",
        "worked-example evaluations",
        not bad,
        (f"{len(AC2_EXPECTED)} box values reproduced",),
        tuple(bad),
    )


AC3_EXPECTED = [
    ("b", "N3w", "F0"),
    ("n", "B3w", "F0"),
    ("T", "C2w", "T0"),
    ("n", "C2w", "F0"),
]


def ac3_interpretation_spot_values() -> CheckOutcome:
    bad = []
    for x, lid, want in AC3_EXPECTED:
        got = LATTICES[lid].down(parse_value(x))
        if got != parse_value(want):
            bad.append(f"down({x},{lid}): {got} != {want}")
    return CheckOutcome(
        "AC3", "down-interpretation spot values", not bad,
        (f"{len(AC3_EXPECTED)} values checked",), tuple(bad),
    )


def ac4_lattice_laws() -> CheckOutcome:
    bad = []
    for lid in SUBLATTICE_IDS:
        report = verify_lattice_laws(LATTICES[lid])
        for r in report.results:
            if not r.holds:
                bad.append(f"{lid} {r.law}: {r.witness}")
    return CheckOutcome(
        "AC4", "lattice law suite", not bad,
        (f"{len(SUBLATTICE_IDS)} sublattices, all subsets of the base lattice",),
        tuple(bad),
    )


def ac5_logic_profiles() -> CheckOutcome:
    p, q = Atom("p"), Atom("q")
    notp = syntax.Neg(p)
    paraconsistent = {
        lid for lid in LOGIC_IDS if not matrix_consequence(LOGICS[lid], [p, notp], q).valid
    }
    paracomplete = {
        lid for lid in LOGIC_IDS if not matrix_consequence(LOGICS[lid], [], syntax.Or(p, notp)).valid
    }
    circ_explosion = {
        lid
        for lid in ("LETK", "LJ4", "J3", "L3")
        if matrix_consequence(LOGICS[lid], [syntax.Circ(p), p, notp], q).valid
    }
    bad = []
    if paraconsistent != {"FDE", "LP", "LJ4", "J3", "LETK"}:
        bad.append(f"paraconsistent set is {sorted(paraconsistent)}")
    if paracomplete != {"FDE", "K3", "LJ4", "L3", "LETK"}:
        bad.append(f"paracomplete set is {sorted(paracomplete)}")
    if circ_explosion != {"LETK", "LJ4", "J3", "L3"}:
        bad.append(f"@-explosion fails in {sorted({'LETK','LJ4','J3','L3'} - circ_explosion)}")
    return CheckOutcome(
        "AC5", "paraconsistency/paracompleteness profile", not bad,
        ("explosion, excluded middle and @-explosion by full enumeration",),
        tuple(bad),
    )


def ac6_lemma_suite() -> CheckOutcome:
    bad = []
    range_ok = {Value.T, Value.T0, Value.F0, Value.F}
    for lid in LOGIC_IDS:
        logic = LOGICS[lid]
        lat = logic.lattice
        for a in lat.elements:
            for b in lat.elements:
                imp_desig = logic.is_designated(apply(logic, "imp", [a, b]))
                if (not imp_desig) != (logic.is_designated(a) and not logic.is_designated(b)):
                    bad.append(f"{lid} implication property at ({a},{b})")
                if logic.is_designated(a) and lat.leq(a, b) and not logic.is_designated(b):
                    bad.append(f"{lid} upward closure at ({a},{b})")
                if lat.leq(a, apply(logic, "neg", [b])) != lat.leq(b, apply(logic, "neg", [a])):
                    bad.append(f"{lid} negation antitone pairing at ({a},{b})")
        subsets = lattices._subsets(lat.elements)
        for xs in subsets:
            neg_meet = apply(logic, "neg", [lat.meet_set(xs)])
            join_negs = lat.join_set(apply(logic, "neg", [x]) for x in xs)
            if neg_meet != join_negs:
                bad.append(f"{lid} de morgan (meet) at {xs}")
            neg_join = apply(logic, "neg", [lat.join_set(xs)])
            meet_negs = lat.meet_set(apply(logic, "neg", [x]) for x in xs)
            if neg_join != meet_negs:
                bad.append(f"{lid} de morgan (join) at {xs}")
        if {apply(logic, "neg", [x]) for x in lat.elements} != set(lat.elements):
            bad.append(f"{lid} negation is not a bijection")
        for x in lat.elements:
            if apply(logic, "neg", [x]) != apply(LOGICS["LETK"], "neg", [x]):
                bad.append(f"{lid} negation disagrees with the base lattice at {x}")
            tilde = apply(logic, "imp", [x, lat.bottom])
            if tilde not in range_ok:
                bad.append(f"{lid} ~{x} = {tilde} outside the classical range")
    return CheckOutcome(
        "AC6", "implication/upward/negation/~-range lemmas", not bad,
        ("exhaustive over all nine logics",), tuple(bad),
    )


def ac7_axiom_k() -> CheckOutcome:
    theorem = frames.THEOREMS["K"]
    exhaustive, sampled = frames.run_theorem(theorem, LOGIC_IDS, AC7_SAMPLES)
    ces = exhaustive.counterexamples + sampled.counterexamples
    details = (
        f"exhaustive: {exhaustive.frames_checked} frames, "
        f"{exhaustive.models_checked} models; "
        f"sampled {theorem.sampled_worlds}-world: {sampled.models_checked}",
    )
    return CheckOutcome(
        "AC7", "axiom K valid everywhere", not ces, details,
        tuple(frames.describe_counterexample(c) for c in ces),
    )


def ac8_t_and_four() -> CheckOutcome:
    findings = []
    details = []
    for sid in ("T", "4"):
        exhaustive, sampled = frames.run_theorem(frames.THEOREMS[sid], LOGIC_IDS, AC8_SAMPLES)
        ces = exhaustive.counterexamples + sampled.counterexamples
        details.append(
            f"axiom {sid}: {exhaustive.frames_checked} exhaustive frames, "
            f"{sampled.models_checked} sampled; {len(ces)} counterexample(s)"
        )
        if ces:
            findings.append(f"axiom {sid}: " + frames.describe_counterexample(ces[0]))
    return CheckOutcome(
        "AC8", "axioms T and 4 on matching frames", not findings, tuple(details), tuple(findings)
    )


def ac9_necessitation_failure() -> CheckOutcome:
    model = models.load_model(FIXTURES / "nec-fail.json")
    f = parse("[](p -> (p | q))")
    value = models.eval_formula(model, "w1", f)
    held = models.holds(model, "w1", f)
    ok = value == Value.F0 and not held
    return CheckOutcome(
        "AC9", "necessitation failure fixture", ok,
        (f"value at w1 is {value}, holds={held}",),
        () if ok else (f"expected F0 and not designated, got {value}",),
    )


def ac10_duality() -> CheckOutcome:
    report = frames.duality_check(LOGIC_IDS)
    return CheckOutcome(
        "AC10", "diamond/box duality under the up variant", report.holds,
        (f"{report.models_checked} model/formula combinations",),
        report.mismatches,
    )


def ac11_euclidean_suite() -> CheckOutcome:
    model = models.load_model(FIXTURES / "axiom5-countermodel.json")
    inst = parse("<>p -> []<>p")
    value = models.eval_formula(model, "w1", inst)
    fixture_ok = value == Value.F0

    report = frames.five_c_characterization(frames.FIVE_C_LOGIC_IDS)
    deterministic = report == AC11_REPORT
    findings = []
    if not fixture_ok:
        findings.append(f"axiom-5 fixture value at w1 is {value}, expected F0")
    for ce in report.euclidean_failures:
        findings.append("euclidean frame fails 5c: " + frames.describe_counterexample(ce))
    for desc in report.non_euclidean_valid:
        findings.append("non-euclidean frame satisfies 5c: " + desc)
    passed = fixture_ok and deterministic
    return CheckOutcome(
        "AC11", "euclidean suite (axiom 5 fixture + 5c characterization)", passed,
        (
            f"fixture instance value at w1: {value} (down variant)",
            f"5c characterization over {','.join(report.logic_ids)}: {report.frames_checked} frames, "
            f"{report.models_checked} models, "
            f"{len(report.euclidean_failures) + len(report.non_euclidean_valid)} counterexample(s), "
            f"deterministic={deterministic}",
        ),
        tuple(findings),
    )


def _random_formula(rng: Random, depth: int, binaries: tuple[type, ...]) -> syntax.Formula:
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice("pq"))
    if rng.random() < 0.45:  # the class is drawn before the operands
        return rng.choice((syntax.Neg, syntax.Circ))(_random_formula(rng, depth - 1, binaries))
    cls = rng.choice(binaries)
    left = _random_formula(rng, depth - 1, binaries)
    return cls(left, _random_formula(rng, depth - 1, binaries))


def make_sequents(count: int, seed: int, allow_or: bool = True):
    rng = Random(seed)
    binaries = (syntax.And, syntax.Or, syntax.Imp) if allow_or else (syntax.And, syntax.Imp)
    out = []
    for _ in range(count):
        premises = [_random_formula(rng, 2, binaries) for _ in range(rng.randint(0, 2))]
        conclusion = _random_formula(rng, 2, binaries)
        out.append((premises, conclusion))
    return out


def ac12_cross_oracle() -> CheckOutcome:
    full = make_sequents(AC12_SEQUENT_COUNT, AC12_SEED, allow_or=True)
    no_or = make_sequents(AC12_SEQUENT_COUNT, AC12_SEED, allow_or=False)
    bad = []
    details = []
    for lid in LOGIC_IDS:
        logic = LOGICS[lid]
        classical = lid in ("CLW", "CLS")
        corpus = no_or if classical else full
        reading = "corrected" if classical else "printed"
        agree = 0
        for premises, conclusion in corpus:
            m = matrix_consequence(logic, premises, conclusion).valid
            b = bivaluations.biv_consequence(logic, premises, conclusion, v14_reading=reading).valid
            if m == b:
                agree += 1
            else:
                bad.append(
                    f"{lid} [{reading}]: {[syntax.to_text(p) for p in premises]} => "
                    f"{syntax.to_text(conclusion)}: matrix={m} biv={b}"
                )
        details.append(f"{lid}: {agree}/{len(corpus)} agree ({reading} reading"
                       + (", or-free corpus" if classical else "") + ")")
    findings = list(bad)
    printed_disagreements = 0
    for premises, conclusion in no_or[:50]:
        for lid in ("CLW", "CLS"):
            m = matrix_consequence(LOGICS[lid], premises, conclusion).valid
            b = bivaluations.biv_consequence(
                LOGICS[lid], premises, conclusion, v14_reading="printed"
            ).valid
            if m != b:
                printed_disagreements += 1
    findings.append(
        f"printed v14 reading: {printed_disagreements} disagreements on 50 or-free "
        "CLW/CLS sequents (collapse documented; matrices are authoritative)"
    )
    findings.append(
        "CLW/CLS clause sets have no disjunction clause, so their corpus excludes |"
    )
    return CheckOutcome(
        "AC12", "matrix vs bivaluation cross-oracle", not bad, tuple(details), tuple(findings)
    )


ALL_CHECKS = (
    ac1_truth_tables,
    ac2_worked_examples,
    ac3_interpretation_spot_values,
    ac4_lattice_laws,
    ac5_logic_profiles,
    ac6_lemma_suite,
    ac7_axiom_k,
    ac8_t_and_four,
    ac9_necessitation_failure,
    ac10_duality,
    ac11_euclidean_suite,
    ac12_cross_oracle,
)


class CriterionError(ManylogicError):
    """A criterion id that names no check of the checklist."""


def run_all(only: set[str] | None = None) -> list[CheckOutcome]:
    """The outcomes of the checks whose ids `only` holds (of every check
    when it is None), in checklist order; CriterionError, before any
    check runs, for an id that names no check."""
    if only is not None:
        require_ids(only, "an iterable of criterion ids")
    checks = {check.__name__.split("_")[0].upper(): check for check in ALL_CHECKS}
    unknown = sorted(map(repr, set(only) - checks.keys())) if only is not None else []
    if unknown:
        raise CriterionError(f"unknown criterion {unknown[0]}; expected one of {', '.join(checks)}")
    return [check() for cid, check in checks.items() if only is None or cid in only]


def render(outcomes) -> str:
    lines = []
    width = max((len(o.title) for o in outcomes), default=0) + 2
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        lines.append(f"{o.cid:<5} {o.title:<{width}} {status}")
        for d in o.details:
            lines.append(f"      - {d}")
        for f in o.findings:
            lines.append(f"      ! {f}")
    total = sum(1 for o in outcomes if o.passed)
    lines.append(f"{total}/{len(outcomes)} criteria pass")
    return "\n".join(lines)
