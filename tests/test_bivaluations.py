import pytest

from manylogic.bivaluations import (
    CLAUSE_SETS,
    ClosureTooLargeError,
    DomainError,
    biv_consequence,
    check_clauses,
    correspondence_check,
    satisfying_assignments,
    snapshot_of,
)
from manylogic.logics import LOGIC_IDS, LOGICS, matrix_consequence
from manylogic.syntax import Atom, Circ, Neg, parse, subformula_closure
from manylogic.values import SnapshotError, Value as V

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
    for lid in LOGIC_IDS:
        assert biv_consequence(LOGICS[lid], [p], p).valid


def test_closure_cap():
    wide = parse(" & ".join(f"a{i} -> b{i}" for i in range(8)))
    with pytest.raises(ClosureTooLargeError):
        biv_consequence(LOGICS["FDE"], [], wide)


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
