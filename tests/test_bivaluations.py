from bisect import bisect_left
from dataclasses import dataclass
from hashlib import sha256
from itertools import product
from random import Random

import pytest

from manylogic.bivaluations import (
    _BRIDGE_BASE,
    CLAUSE_SETS,
    MAX_CLOSURE,
    V14_READINGS,
    ClosureTooLargeError,
    DomainError,
    NodeLimitError,
    ReadingError,
    _ordered,
    biv_consequence,
    check_clauses,
    correspondence_check,
    satisfying_assignments,
    snapshot_of,
)
from manylogic.logics import LOGIC_IDS, LOGICS, MatrixLogic, matrix_consequence
from manylogic.syntax import (
    And,
    Atom,
    Bottom,
    Circ,
    Formula,
    Imp,
    Neg,
    Or,
    desugar,
    parse,
    size,
    subformula_closure,
    subformulas,
    to_text,
)
from manylogic.values import SNAPSHOTS, SnapshotError, Value as V
from manylogic.verify import AC12_SEED, AC12_SEQUENT_COUNT, make_sequents

p = Atom("p")


def test_clause_sets_match_the_frozen_mapping():
    as_sets = {lid: set(cs) for lid, cs in CLAUSE_SETS.items()}
    assert as_sets == {
        "LETK": set(range(1, 8)) | set(range(16, 22)),
        "FDE": set(range(1, 10)),
        "LJ4": set(range(1, 8)) | {10, 11, 22},
        "LP": set(range(1, 10)) | {12},
        "J3": set(range(1, 8)) | {10, 11, 12, 22},
        "K3": set(range(1, 10)) | {13},
        "L3": set(range(1, 8)) | {10, 11, 13, 22},
        "CLW": {1, 3, 4, 8, 14},
        "CLS": {1, 3, 4, 14, 15},
    }


def test_reliability_mark_cannot_hold_in_weak_classical_logic():
    clo = subformula_closure([p])
    assignment = {f: 0 for f in clo}
    assignment[Circ(p)] = 1
    report = check_clauses(LOGICS["CLW"], assignment)
    assert any(v.startswith("v8[") for v in report.violations)


def test_double_mark_is_forced_in_the_six_valued_logic():
    clo = subformula_closure([Circ(p)])
    assignment = {f: 0 for f in clo}
    report = check_clauses(LOGICS["LETK"], assignment)
    assert "v17[@@p]" in report.violations


def test_all_zero_assignment_violates_the_negated_mark_clause():
    # every formula 0 breaks v9 (rho(!@A)=1); flipping the !@-formulas to 1
    # yields a satisfying assignment
    clo = subformula_closure([p])
    zero = {f: 0 for f in clo}
    report = check_clauses(LOGICS["FDE"], zero)
    assert report.violations == ("v9[!@p]",)
    fixed = dict(zero)
    for f in clo:
        if isinstance(f, Neg) and isinstance(f.child, Circ):
            fixed[f] = 1
    assert check_clauses(LOGICS["FDE"], fixed).ok


def test_check_clauses_requires_closed_domain():
    with pytest.raises(DomainError):
        check_clauses(LOGICS["FDE"], {parse("p & q"): 1})


def test_consequence_examples():
    assert biv_consequence(LOGICS["K3"], [p, Neg(p)], Atom("q")).valid
    verdict = biv_consequence(LOGICS["LP"], [p, Neg(p)], Atom("q"))
    assert not verdict.valid
    assert verdict.witness[p] == 1 and verdict.witness[Neg(p)] == 1
    assert verdict.witness[Atom("q")] == 0
    # the witness lists the whole closure in (size, text) order
    closure = subformula_closure([p, Neg(p), Atom("q")])
    assert list(verdict.witness) == sorted(closure, key=lambda f: (size(f), to_text(f)))
    for lid in LOGIC_IDS:
        assert biv_consequence(LOGICS[lid], [p], p).valid


def test_closure_cap():
    wide = parse(" & ".join(f"a{i} -> b{i}" for i in range(8)))
    with pytest.raises(ClosureTooLargeError):
        biv_consequence(LOGICS["FDE"], [], wide)
    # the cap written out: a 64-formula closure is decided, a 65-formula one refused
    at_cap, past_cap = parse("!" * 18 + "p -> p"), parse("!" * 20 + "p")
    assert [len(subformula_closure([desugar(f)])) for f in (at_cap, past_cap)] == [64, 65]
    for lid in LOGIC_IDS:
        assert biv_consequence(LOGICS[lid], [], at_cap).valid
        with pytest.raises(ClosureTooLargeError, match=r"^closure has 65 formulas \(cap 64\)$"):
            biv_consequence(LOGICS[lid], [], past_cap)


def test_snapshot_of():
    clo = subformula_closure([p])
    rho = {f: 0 for f in clo}
    rho[p], rho[Neg(p)], rho[Circ(p)] = 1, 0, 1
    assert snapshot_of(rho, p) == V.T
    rho[p], rho[Neg(p)], rho[Circ(p)] = 0, 0, 0
    assert snapshot_of(rho, p) == V.n
    rho[p], rho[Neg(p)], rho[Circ(p)] = 1, 1, 1
    with pytest.raises(SnapshotError):
        snapshot_of(rho, p)
    with pytest.raises(DomainError):
        snapshot_of({p: 1}, p)


def test_satisfying_assignments_yield_legal_snapshots():
    clo = subformula_closure([p])
    for lid in LOGIC_IDS:
        reading = "corrected" if lid in ("CLW", "CLS") else "printed"
        for rho in satisfying_assignments(LOGICS[lid], clo, reading):
            val = snapshot_of(rho, p)
            assert val in LOGICS[lid].lattice.members


def test_printed_reading_makes_strong_classical_snapshots_illegal():
    clo = subformula_closure([p])
    rhos = satisfying_assignments(LOGICS["CLS"], clo, "printed")
    assert rhos, "the degenerate assignments still exist"
    with pytest.raises(SnapshotError):
        for rho in rhos:
            snapshot_of(rho, p)


def test_bottom_constant_has_a_consistent_snapshot_everywhere():
    from manylogic.syntax import Bottom

    bot = Bottom()
    clo = subformula_closure([bot])
    for lid in LOGIC_IDS:
        reading = "corrected" if lid in ("CLW", "CLS") else "printed"
        rhos = satisfying_assignments(LOGICS[lid], clo, reading)
        assert rhos
        for rho in rhos:
            assert snapshot_of(rho, bot) == LOGICS[lid].lattice.bottom


def test_correspondence_clean_for_the_seven_nonclassical_logics():
    for lid in ("LETK", "FDE", "LJ4", "K3", "L3", "LP", "J3"):
        report = correspondence_check(LOGICS[lid])
        assert report.clean, (lid, report)


def test_correspondence_documents_the_classical_readings():
    for lid in ("CLW", "CLS"):
        printed = correspondence_check(LOGICS[lid], "printed")
        assert printed.induced_violations, "matrices do not satisfy the printed v14"
        corrected = correspondence_check(LOGICS[lid], "corrected")
        assert not corrected.induced_violations
        assert not corrected.snapshot_failures
        # the only residue is the unconstrained disjunction
        assert corrected.commutation_failures
        assert all(x.startswith("p | q") for x in corrected.commutation_failures)


def test_cross_oracle_on_a_fixed_corpus():
    sequents = [
        ([], "p | !p"),
        (["p"], "p | q"),
        (["p", "p -> q"], "q"),
        (["@p", "p", "!p"], "q"),
        (["!(p | q)"], "!p"),
        (["p & q"], "q & p"),
        ([], "@p -> (p | !p)"),
        (["~p"], "p -> q"),
    ]
    for lid in ("LETK", "FDE", "LJ4", "K3", "L3", "LP", "J3"):
        lg = LOGICS[lid]
        for prem, conc in sequents:
            premises = [parse(s) for s in prem]
            conclusion = parse(conc)
            assert (
                matrix_consequence(lg, premises, conclusion).valid
                == biv_consequence(lg, premises, conclusion).valid
            ), (lid, prem, conc)


def test_cross_oracle_classical_corrected_reading():
    sequents = [
        ([], "p -> p"),
        (["p", "p -> q"], "q"),
        (["p", "!p"], "q"),
        ([], "p -> !!p"),
        (["!(p & q)", "p"], "!q"),
        (["~p"], "!p"),
    ]
    for lid in ("CLW", "CLS"):
        lg = LOGICS[lid]
        for prem, conc in sequents:
            premises = [parse(s) for s in prem]
            conclusion = parse(conc)
            assert (
                matrix_consequence(lg, premises, conclusion).valid
                == biv_consequence(lg, premises, conclusion, v14_reading="corrected").valid
            ), (lid, prem, conc)


def test_disjunction_gap_in_classical_clause_sets():
    # no clause constrains | in CLW/CLS, so the two oracles part ways there
    lg = LOGICS["CLW"]
    premises, conclusion = [p], parse("p | q")
    assert matrix_consequence(lg, premises, conclusion).valid
    assert not biv_consequence(lg, premises, conclusion, v14_reading="corrected").valid


def test_modal_input_is_named_as_given():
    from manylogic.syntax import ModalFormulaError

    text = " => ".join(["[]p"] * 40)
    with pytest.raises(ModalFormulaError) as err:
        biv_consequence(LOGICS["K3"], [parse("p")], parse(text))
    assert str(err.value) == f"modal operator in {text}"
    with pytest.raises(ModalFormulaError, match=r"modal operator in ~\[\]p$"):
        biv_consequence(LOGICS["K3"], [parse("~[]p")], p)


# ---------------------------------------------------------------- reference
# The clause search as it was before the clause tables: one predicate per
# instance, a definer table for values forced by earlier formulas, and a
# size-ordered depth-first search that checks each instance at its last
# formula.  The compiled search must find the same assignments in the
# same order.

@dataclass(frozen=True)
class _RefInstance:
    name: str
    indices: tuple[int, ...]
    # predicate over the full value list; True = satisfied
    check: object

    def holds(self, vals) -> bool:
        return self.check(vals)


def _ref_instances(
    logic: MatrixLogic, order: list[Formula], v14_reading: str
) -> list[_RefInstance]:
    clauses = CLAUSE_SETS[logic.id]
    idx = {f: i for i, f in enumerate(order)}
    out: list[_RefInstance] = []

    def has(*fs) -> bool:
        return all(f in idx for f in fs)

    def add(num, main, indices, check):
        out.append(_RefInstance(f"v{num}[{to_text(main)}]", tuple(indices), check))

    def equiv(num, main, target, fn, *mention):
        ids = [idx[m] for m in mention]
        t = idx[target]
        add(num, main, ids + [t], lambda vals, t=t, ids=ids, fn=fn: vals[t] == fn(*[vals[i] for i in ids]))

    for f in order:
        if isinstance(f, Bottom):
            snap = SNAPSHOTS[logic.lattice.bottom]
            add("bot", f, [idx[f]], lambda vals, i=idx[f], v=snap[0]: vals[i] == v)
        if isinstance(f, And) and 1 in clauses:
            equiv(1, f, f, lambda a, c: a & c, f.left, f.right)
        if isinstance(f, Or) and 2 in clauses:
            equiv(2, f, f, lambda a, c: a | c, f.left, f.right)
        if isinstance(f, Imp) and 3 in clauses:
            equiv(3, f, f, lambda a, c: (1 - a) | c, f.left, f.right)
        if isinstance(f, Neg):
            g = f.child
            if isinstance(g, Bottom):
                add("bot", f, [idx[f]], lambda vals, i=idx[f], v=SNAPSHOTS[logic.lattice.bottom][1]: vals[i] == v)
            if isinstance(g, And) and 4 in clauses and has(Neg(g.left), Neg(g.right)):
                equiv(4, f, f, lambda a, c: a | c, Neg(g.left), Neg(g.right))
            if isinstance(g, Or) and 5 in clauses and has(Neg(g.left), Neg(g.right)):
                equiv(5, f, f, lambda a, c: a & c, Neg(g.left), Neg(g.right))
            if isinstance(g, Imp) and 6 in clauses and has(g.left, Neg(g.right)):
                equiv(6, f, f, lambda a, c: a & c, g.left, Neg(g.right))
            if isinstance(g, Neg) and 7 in clauses:
                equiv(7, g.child, f, lambda a: a, g.child)
            if isinstance(g, Circ) and 9 in clauses:
                add(9, f, [idx[f]], lambda vals, i=idx[f]: vals[i] == 1)
            if isinstance(g, Circ) and 11 in clauses:
                equiv(11, g, f, lambda a: 1 - a, g)
            if 14 in clauses:
                if v14_reading == "printed":
                    equiv(14, f, f, lambda a: a, g)
                else:
                    equiv(14, f, f, lambda a: 1 - a, g)
        if isinstance(f, Circ):
            g = f.child
            if isinstance(g, Bottom):
                add("bot", f, [idx[f]], lambda vals, i=idx[f], v=SNAPSHOTS[logic.lattice.bottom][2]: vals[i] == v)
            if 8 in clauses:
                add(8, f, [idx[f]], lambda vals, i=idx[f]: vals[i] == 0)
            if 15 in clauses:
                add(15, f, [idx[f]], lambda vals, i=idx[f]: vals[i] == 1)
            if 10 in clauses and has(Neg(g)):
                equiv(10, f, f, lambda a, c: a ^ c, g, Neg(g))
            if 16 in clauses and has(Neg(g)):
                gi, ni, ci = idx[g], idx[Neg(g)], idx[f]
                add(16, f, [gi, ni, ci],
                    lambda vals, gi=gi, ni=ni, ci=ci: vals[ci] == 0 or (vals[gi] ^ vals[ni]))
            if isinstance(g, Circ) and 17 in clauses:
                add(17, f, [idx[f]], lambda vals, i=idx[f]: vals[i] == 1)
            if isinstance(g, Neg) and 18 in clauses and has(Circ(g.child)):
                equiv(18, g.child, f, lambda a: a, Circ(g.child))
            if isinstance(g, And) and 19 in clauses and has(
                Circ(g.left), Circ(g.right), Neg(g.left), Neg(g.right)
            ):
                equiv(
                    19, f, f,
                    lambda ca, cb, a, c, na, nb: (ca & cb & a & c) | (ca & na) | (cb & nb),
                    Circ(g.left), Circ(g.right), g.left, g.right, Neg(g.left), Neg(g.right),
                )
            if isinstance(g, Or) and 20 in clauses and has(
                Circ(g.left), Circ(g.right), Neg(g.left), Neg(g.right)
            ):
                equiv(
                    20, f, f,
                    lambda ca, cb, na, nb, a, c: (ca & cb & na & nb) | (ca & a) | (cb & c),
                    Circ(g.left), Circ(g.right), Neg(g.left), Neg(g.right), g.left, g.right,
                )
            if isinstance(g, Imp) and 21 in clauses and has(
                Circ(g.left), Circ(g.right), Neg(g.left), Neg(g.right)
            ):
                equiv(
                    21, f, f,
                    lambda a, cb, nb, ca, na, c: (a & cb & nb) | (ca & na) | (cb & c),
                    g.left, Circ(g.right), Neg(g.right), Circ(g.left), Neg(g.left), g.right,
                )
            if isinstance(g, Imp) and 22 in clauses and has(Circ(g.right)):
                equiv(22, f, f, lambda a, cb: (1 - a) | cb, g.left, Circ(g.right))
        if isinstance(f, Neg) and 12 in clauses:
            # If rho(!A)=0 then rho(A)=1, stated for the A with !A present
            gi, ni = idx[f.child], idx[f]
            add(12, f.child, [gi, ni], lambda vals, gi=gi, ni=ni: vals[ni] == 1 or vals[gi] == 1)
        if isinstance(f, Neg) and 13 in clauses:
            gi, ni = idx[f.child], idx[f]
            add(13, f.child, [gi, ni], lambda vals, gi=gi, ni=ni: vals[ni] == 0 or vals[gi] == 0)
    return out


def _ref_definers(logic: MatrixLogic, order: list[Formula], v14_reading: str):
    """idx -> function(vals) computing the forced value, where one exists.

    Only clauses that define a formula outright from strictly earlier
    formulas are used; everything else stays a search constraint.
    """
    clauses = CLAUSE_SETS[logic.id]
    idx = {f: i for i, f in enumerate(order)}
    defs: dict[int, object] = {}

    def define(f, fn, *mention):
        i = idx[f]
        ids = [idx[m] for m in mention]
        if any(j >= i for j in ids) or i in defs:
            return
        defs[i] = lambda vals, ids=ids, fn=fn: fn(*[vals[j] for j in ids])

    bottom_snap = SNAPSHOTS[logic.lattice.bottom]
    for f in order:
        if isinstance(f, Bottom):
            define(f, lambda: bottom_snap[0])
        if isinstance(f, And) and 1 in clauses:
            define(f, lambda a, c: a & c, f.left, f.right)
        if isinstance(f, Or) and 2 in clauses:
            define(f, lambda a, c: a | c, f.left, f.right)
        if isinstance(f, Imp) and 3 in clauses:
            define(f, lambda a, c: (1 - a) | c, f.left, f.right)
        if isinstance(f, Neg):
            g = f.child
            if isinstance(g, Bottom):
                define(f, lambda: bottom_snap[1])
            elif isinstance(g, Circ) and 9 in clauses:
                define(f, lambda: 1)
            elif isinstance(g, Circ) and 11 in clauses and g in idx:
                define(f, lambda a: 1 - a, g)
            elif isinstance(g, And) and 4 in clauses and Neg(g.left) in idx and Neg(g.right) in idx:
                define(f, lambda a, c: a | c, Neg(g.left), Neg(g.right))
            elif isinstance(g, Or) and 5 in clauses and Neg(g.left) in idx and Neg(g.right) in idx:
                define(f, lambda a, c: a & c, Neg(g.left), Neg(g.right))
            elif isinstance(g, Imp) and 6 in clauses and Neg(g.right) in idx:
                define(f, lambda a, c: a & c, g.left, Neg(g.right))
            elif isinstance(g, Neg) and 7 in clauses:
                define(f, lambda a: a, g.child)
            elif 14 in clauses:
                if v14_reading == "printed":
                    define(f, lambda a: a, g)
                else:
                    define(f, lambda a: 1 - a, g)
        if isinstance(f, Circ):
            g = f.child
            if isinstance(g, Bottom):
                define(f, lambda: bottom_snap[2])
            elif 8 in clauses:
                define(f, lambda: 0)
            elif 15 in clauses:
                define(f, lambda: 1)
            elif isinstance(g, Circ) and 17 in clauses:
                define(f, lambda: 1)
            elif 10 in clauses and Neg(g) in idx:
                define(f, lambda a, c: a ^ c, g, Neg(g))
            elif isinstance(g, Imp) and 22 in clauses and Circ(g.right) in idx:
                define(f, lambda a, cb: (1 - a) | cb, g.left, Circ(g.right))
            elif isinstance(g, Neg) and 18 in clauses and Circ(g.child) in idx:
                define(f, lambda a: a, Circ(g.child))
    return defs


def _ref_search(
    logic: MatrixLogic,
    order: list[Formula],
    pins: dict[Formula, int],
    v14_reading: str,
    collect_all: bool = False,
    limit: int = 500000,
):
    """Depth-first enumeration of clause-satisfying assignments.

    Formulas are visited smallest-first so clause-determined values are
    computed, not branched on; each instance is checked as soon as its
    last mentioned formula gets a value.
    """
    idx = {f: i for i, f in enumerate(order)}
    for f in pins:
        if f not in idx:
            raise DomainError(f"pinned formula {to_text(f)} outside domain")
    instances = _ref_instances(logic, order, v14_reading)
    by_last: list[list[_RefInstance]] = [[] for _ in order]
    for inst in instances:
        by_last[max(inst.indices)].append(inst)
    defs = _ref_definers(logic, order, v14_reading)
    pin_by_index = {idx[f]: v for f, v in pins.items()}

    vals: list[int] = [0] * len(order)
    found: list[dict[Formula, int]] = []
    seen = 0

    def rec(i: int):
        nonlocal seen
        if found and not collect_all:
            return
        if i == len(order):
            found.append(dict(zip(order, vals)))
            return
        seen += 1
        if seen > limit:
            raise ClosureTooLargeError("assignment search exceeded its node limit")
        if i in pin_by_index:
            candidates = (pin_by_index[i],)
        elif i in defs:
            candidates = (defs[i](vals),)
        else:
            candidates = (0, 1)
        for v in candidates:
            vals[i] = v
            if all(inst.holds(vals) for inst in by_last[i]):
                rec(i + 1)

    rec(0)
    return found


def _ref_consequence(logic, premises, conclusion, reading):
    premises = [desugar(f) for f in premises]
    conclusion = desugar(conclusion)
    pins = dict.fromkeys(premises, 1)
    if pins.get(conclusion) == 1:
        return True, None
    pins[conclusion] = 0
    order = _ordered(subformula_closure(premises + [conclusion]))
    found = _ref_search(logic, order, pins, reading)
    return (False, found[0]) if found else (True, None)


def _ref_check(logic, assignment, reading):
    order = _ordered(assignment)
    vals = [assignment[f] for f in order]
    return tuple(inst.name for inst in _ref_instances(logic, order, reading) if not inst.holds(vals))


def _assert_same_verdicts(sequents):
    for lid in LOGIC_IDS:
        for reading in V14_READINGS:
            for premises, conclusion in sequents:
                try:
                    want = _ref_consequence(LOGICS[lid], premises, conclusion, reading)
                except ClosureTooLargeError:
                    continue  # past the reference's node limit: nothing to compare
                got = biv_consequence(LOGICS[lid], premises, conclusion, v14_reading=reading)
                assert (got.valid, got.witness) == want, (lid, reading, premises, conclusion)
                if not got.valid:  # a dict compares without its order
                    assert list(got.witness) == _ordered(got.witness)


def test_ordered_sorts_by_size_then_text_on_every_ac12_closure():
    # two stable sorts, by text and then by size, give the (size, text) key's order
    for allow_or in (True, False):
        for premises, conclusion in make_sequents(AC12_SEQUENT_COUNT, AC12_SEED, allow_or):
            closure = subformula_closure([desugar(f) for f in premises + [conclusion]])
            assert _ordered(closure) == sorted(closure, key=lambda f: (size(f), to_text(f)))


# Formulas whose clause instances mention one formula twice.
DUPLICATED = ("@(p & p)", "!(q | q)", "@(p -> p)", "@(!q | !q)", "!(p & p) -> p", "@(q & q) & !(p -> p)")


def test_search_matches_the_reference_on_the_ac12_corpus():
    corpus = make_sequents(AC12_SEQUENT_COUNT, AC12_SEED, allow_or=True)
    corpus += make_sequents(AC12_SEQUENT_COUNT, AC12_SEED, allow_or=False)
    _assert_same_verdicts(corpus)


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return parse(rng.choice(("p", "q", "r", "#")))
    kind = rng.choice(("!", "@", "~", "N", "&", "|", "->", "dup"))
    if kind == "dup":
        return parse(rng.choice(DUPLICATED))
    child = _random_formula(rng, depth - 1)
    if kind in ("&", "|", "->"):
        return parse(f"({to_text(child)}) {kind} ({to_text(_random_formula(rng, depth - 1))})")
    return parse(f"{kind}({to_text(child)})")


def test_search_matches_the_reference_on_seeded_sequents():
    rng = Random(8)
    corpus = [([], parse(text)) for text in DUPLICATED]
    corpus += [([parse(text)], parse("p")) for text in DUPLICATED]
    while len(corpus) < 60:
        premises = [_random_formula(rng, 2) for _ in range(rng.randint(0, 2))]
        conclusion = _random_formula(rng, 2)
        if len(subformula_closure([desugar(f) for f in premises + [conclusion]])) <= MAX_CLOSURE:
            corpus.append((premises, conclusion))
    _assert_same_verdicts(corpus)


def test_satisfying_assignments_match_the_reference():
    closures = [
        subformula_closure([parse(s) for s in _BRIDGE_BASE]),
        subformula_closure([parse("@(p & p)"), parse("!(q | q)")]),
        subformula_closure([parse("~p"), parse("@#")]),
        subformula_closure([parse("@(p -> p)")]),
        subformula_closure([parse("@(!p & !p)")]),
        subformula_closure([parse("@(@p | @p)")]),
    ]
    for lid in LOGIC_IDS:
        for reading in V14_READINGS:
            for closure in closures:
                want = _ref_search(LOGICS[lid], _ordered(closure), {}, reading, collect_all=True)
                assert satisfying_assignments(LOGICS[lid], closure, reading) == want, (lid, reading)


# Shapes u2(u1 a op u1 a): under u2 in ! and @ the clause instances of
# the inner formula mention the layers of u1 a twice.
REPEATS = [
    f"{u2}({u1}{a} {op} {u1}{a})" for a in ("p", "q", "#") for u1 in ("", "!", "@", "!!", "!@", "@!", "@@")
    for op in ("&", "|", "->") for u2 in ("!", "@", "!@", "@@", "@!")
]


def _smallest_limit(logic, closure, reading) -> int:
    """The least node limit at which `satisfying_assignments` returns."""
    def returns(limit):
        try:
            satisfying_assignments(logic, closure, reading, limit=limit)
        except ClosureTooLargeError:
            return False
        return True

    hi = 1
    while not returns(hi):
        hi *= 2
    lo = hi // 2 + 1  # the search did not return at hi // 2, or hi is 1
    return lo + bisect_left(range(lo, hi), True, key=returns)


def test_the_search_does_the_recorded_work_where_an_instance_names_a_formula_twice():
    # an instance whose unset positions hold one formula twice waits until
    # it is set; a search that forced less would find the same assignments
    # on more branching nodes, so its work is pinned as it was recorded
    # when the search still projected such instances onto distinct formulas
    limits = []
    for text in Random(0).sample(REPEATS, 40):
        closure = subformula_closure([parse(text)])
        for lid in LOGIC_IDS:
            for reading in V14_READINGS:
                limits.append(_smallest_limit(LOGICS[lid], closure, reading))
    digest = sha256(" ".join(map(str, limits)).encode()).hexdigest()
    assert (len(limits), sum(limits), digest[:16]) == (720, 10608, "a34a8d7b98d19ff5")


def test_check_clauses_matches_the_reference_on_every_assignment():
    for roots in (["p & p"], ["#"]):
        closure = _ordered(subformula_closure([parse(s) for s in roots]))
        for bits in product((0, 1), repeat=len(closure)):
            assignment = dict(zip(closure, bits))
            for lid in LOGIC_IDS:
                for reading in V14_READINGS:
                    want = _ref_check(LOGICS[lid], assignment, reading)
                    report = check_clauses(LOGICS[lid], assignment, reading)
                    assert report.violations == want and report.ok == (not want)


def test_check_clauses_matches_the_reference_on_sampled_assignments():
    rng = Random(3)
    closure = _ordered(subformula_closure([parse("@(p -> q) | !(q & q)"), parse("!!@p")]))
    for _ in range(40):
        assignment = {f: rng.randint(0, 1) for f in closure}
        for lid in LOGIC_IDS:
            for reading in V14_READINGS:
                want = _ref_check(LOGICS[lid], assignment, reading)
                assert check_clauses(LOGICS[lid], assignment, reading).violations == want


def test_sequents_past_the_old_node_limit_are_decided():
    letk = LOGICS["LETK"]
    for premises, conclusion in (
        (["!(p | q | r | s)"], "!p"),
        (["p & q & r & s & t"], "t | p"),
        (["p & q", "r & s"], "(s & p) | r"),
    ):
        premises = [parse(f) for f in premises]
        conclusion = parse(conclusion)
        assert biv_consequence(letk, premises, conclusion).valid
        assert matrix_consequence(letk, premises, conclusion).valid


def test_a_tiny_node_limit_still_raises():
    closure = subformula_closure([parse(s) for s in _BRIDGE_BASE])
    assert satisfying_assignments(LOGICS["LETK"], closure)
    with pytest.raises(ClosureTooLargeError):
        satisfying_assignments(LOGICS["LETK"], closure, limit=1)


def test_a_node_limit_below_one_is_refused_before_the_search():
    # refused up front: the search would blame the closure for it
    closure = subformula_closure([p])
    for limit in (0, -5):
        with pytest.raises(NodeLimitError, match=f"the node limit must be at least 1, got {limit}$"):
            satisfying_assignments(LOGICS["K3"], closure, limit=limit)
    with pytest.raises(ClosureTooLargeError):  # a limit of one is searched, and too small here
        satisfying_assignments(LOGICS["K3"], closure, limit=1)
    assert len(satisfying_assignments(LOGICS["K3"], closure, limit=5)) == 3


def test_large_domains_search_without_recursion():
    # 1,500 formulas, 600 of them branched on before the first assignment
    closure = subformula_closure([Atom(f"a{i}") for i in range(300)])
    with pytest.raises(ClosureTooLargeError):
        satisfying_assignments(LOGICS["K3"], closure, limit=2000)


def test_unknown_v14_reading_is_refused():
    fde = LOGICS["FDE"]
    closure = subformula_closure([p])
    assert issubclass(ReadingError, ValueError)
    for call in (
        lambda: biv_consequence(fde, [], p, v14_reading="bogus"),
        lambda: biv_consequence(fde, [p], p, v14_reading="Printed"),
        lambda: check_clauses(fde, dict.fromkeys(closure, 0), "bogus"),
        lambda: satisfying_assignments(fde, closure, "bogus"),
        lambda: correspondence_check(fde, "bogus"),
    ):
        with pytest.raises(ReadingError, match="unknown v14 reading"):
            call()


def test_check_clauses_refuses_values_other_than_0_and_1():
    fde = LOGICS["FDE"]
    closure = subformula_closure([p])
    for bad in (2, -1, None, "1", 0.5):
        assignment = dict.fromkeys(closure, 0)
        assignment[Circ(p)] = bad
        with pytest.raises(DomainError, match=r"rho\(@p\)"):
            check_clauses(fde, assignment)
    as_ints = dict.fromkeys(closure, 0)
    as_ints[Neg(Circ(p))] = 1
    as_bools = {f: bool(v) for f, v in as_ints.items()}
    assert check_clauses(fde, as_bools) == check_clauses(fde, as_ints)
    assert check_clauses(fde, as_bools).ok


def test_biv_consequence_refuses_text_for_a_formula():
    k3 = LOGICS["K3"]
    for premises, conclusion in (([], "p"), (["p"], p), ([p, "q"], p)):
        with pytest.raises(TypeError, match="^expected a Formula, got str$"):
            biv_consequence(k3, premises, conclusion)


def test_modal_input_is_refused_before_the_atom_cap_as_in_matrix_consequence():
    from manylogic.syntax import ModalFormulaError

    wide = parse("[]a & b & c & d & e & f & g & h & i")
    for decide in (biv_consequence, matrix_consequence):
        with pytest.raises(ModalFormulaError):
            decide(LOGICS["K3"], [], wide)


# Subformula-closed domains that are not closures: each leaves out some of
# the !A and @A that a clause's instance needs (4, 5, 6, 10, 16, 18, 19, 20,
# 21, 22), or holds only part of them, so the builder's "missing" branches
# are compared too.
def _partial_domains():
    def sub(*texts):
        return frozenset().union(*[subformulas(parse(t)) for t in texts])

    return [
        sub("!(p & q)"),
        sub("!(p & q)", "!p"),
        sub("!(p | q)", "!q"),
        sub("!(p -> q)"),
        sub("!(p -> q)", "!q"),
        sub("@p"),
        sub("@p", "!p"),
        sub("@!p"),
        sub("@!p", "@p"),
        sub("@(p -> q)", "!q"),
        sub("@(p -> q)", "@q"),
        sub("@(p & q)", "@p", "@q", "!p"),
        sub("@(p | q)", "@p", "@q", "!p", "!q"),
        sub("@(p & p)", "@p", "!p"),
        sub("!(!q -> q)", "!!q"),
        sub("@(@q -> q)", "@@q"),
        sub("!(p & #)", "!#", "@#"),
    ]


def test_check_clauses_matches_the_reference_on_partial_domains():
    rng = Random(11)
    for domain in _partial_domains():
        order = _ordered(domain)
        rows = list(product((0, 1), repeat=len(order)))
        if len(rows) > 48:
            rows = rng.sample(rows, 48)
        for bits in rows:
            assignment = dict(zip(order, bits))
            for lid in LOGIC_IDS:
                for reading in V14_READINGS:
                    want = _ref_check(LOGICS[lid], assignment, reading)
                    got = check_clauses(LOGICS[lid], assignment, reading).violations
                    assert got == want, (lid, reading, [to_text(f) for f in order], bits)


def test_satisfying_assignments_match_the_reference_on_partial_domains():
    for domain in _partial_domains():
        for lid in LOGIC_IDS:
            for reading in V14_READINGS:
                want = _ref_search(LOGICS[lid], _ordered(domain), {}, reading, collect_all=True)
                got = satisfying_assignments(LOGICS[lid], domain, reading)
                assert got == want, (lid, reading, sorted(map(to_text, domain)))


def test_a_domain_that_is_not_closed_is_refused_the_same_way_in_every_run():
    # the members' set order follows memory addresses; the error must not
    k3 = LOGICS["K3"]
    for trial in range(12):
        junk = [Neg(Atom(f"junk{trial}_{i}")) for i in range(trial * 7)]
        x, y = Atom(f"x{trial}"), Atom(f"y{trial}")
        members = [Neg(y), Neg(x), Circ(Neg(y))] if trial % 2 else [Circ(Neg(y)), Neg(x), Neg(y)]
        domain = set()
        for f in members:
            domain.add(f)
        for refuse in (lambda: satisfying_assignments(k3, domain),
                       lambda: check_clauses(k3, dict.fromkeys(members, 0))):
            with pytest.raises(DomainError, match=f"^domain not subformula-closed: missing x{trial}$"):
                refuse()
        # a member that is not a formula is a TypeError, before any missing child
        for extra in ([5, "q"], ["q", 5], ["q"], [None, "q"]):
            want = min(type(e).__name__ for e in extra)
            with pytest.raises(TypeError, match=f"^expected a Formula, got {want}$"):
                satisfying_assignments(k3, set(members + extra + junk))
