"""The acceptance checklist, one test per criterion.

Each test prints its criterion line (visible with -s or on failure); the
same checks back the CLI `verify` subcommand.  AC8 is refuted by design:
box iteration over transitive frames fails once worlds mix logics whose
interpretation maps forget designated values, and the criterion is kept
as stated rather than weakened.  Its test asserts that refutation and its
exact two-world witness (a `LETK` world and a `K3` world that see each
other, `p = b / T0`), and that axiom 4 still holds on every single-logic
transitive frame of at most three worlds.  `manylogic verify` still
prints AC8 FAIL and "11/12 criteria pass", and exits 1.
"""

import json
import re

import pytest

from manylogic import frames, verify
from manylogic.logics import LOGIC_IDS
from manylogic.models import eval_formula, model_from_dict
from manylogic.syntax import parse
from manylogic.values import Value as V

IDS = [fn.__name__.split("_")[0].upper() for fn in verify.ALL_CHECKS]

# The minimal refutation of axiom 4 found by AC8's exhaustive 2-world sweep.
AC8_WITNESS = {
    "worlds": ["w1", "w2"],
    "logics": {"w1": "LETK", "w2": "K3"},
    "relation": [["w1", "w1"], ["w1", "w2"], ["w2", "w1"], ["w2", "w2"]],
    "valuation": {"w1": {"p": "b"}, "w2": {"p": "T0"}},
    "diamond": "up",
}
FINDING = re.compile(r"axiom 4: world=(\S+) value=(\S+) model=(\{.*\})")


def assert_ac8_refuted(outcome):
    assert not outcome.passed, "AC8 must refute axiom 4 on mixed-logic frames"
    assert outcome.details[0].startswith("axiom T: ")
    assert outcome.details[0].endswith("; 0 counterexample(s)")
    assert len(outcome.findings) == 1
    finding = outcome.findings[0]
    assert finding.startswith("axiom 4: ")
    world, value, model_json = FINDING.fullmatch(finding).groups()
    assert (world, value) == ("w1", "F0")
    data = json.loads(model_json)
    assert data == AC8_WITNESS

    # replay: b <= T0 gives []p = b at w1; K3 forgets b, so []p = F0 at w2
    model = model_from_dict(data)
    assert frames.frame_properties(model.frame).transitive
    w1 = model.logic("w1")
    assert eval_formula(model, "w1", parse("[]p")) == V.b
    assert w1.is_designated(V.b)
    assert eval_formula(model, "w2", parse("[]p")) == V.F0
    assert eval_formula(model, "w1", parse("[][]p")) == V.F0
    assert eval_formula(model, "w1", frames.SCHEMAS["4"].template) == V.F0
    assert not w1.is_designated(V.F0)

    # the single-logic half of the claim holds: 4 on every transitive frame
    for lid in LOGIC_IDS:
        for n in (1, 2, 3):
            out = frames.sweep_schema(
                frames.SCHEMAS["4"], n, (lid,), relation_pred=lambda p: p.transitive
            )
            assert out.frames_checked
            assert not out.counterexamples, (
                f"axiom 4 fails in {lid} alone on {n} worlds: "
                + frames.describe_counterexample(out.counterexamples[0])
            )


@pytest.mark.parametrize("check", verify.ALL_CHECKS, ids=IDS)
def test_criterion(check):
    outcome = check()
    status = "PASS" if outcome.passed else "FAIL"
    print(f"{outcome.cid} {outcome.title}: {status}")
    for line in outcome.details:
        print(f"  - {line}")
    for line in outcome.findings:
        print(f"  ! {line}")
    if check is verify.ac8_t_and_four:
        assert_ac8_refuted(outcome)
        return
    assert outcome.passed, f"{outcome.cid} {outcome.title}: " + "; ".join(
        outcome.findings or outcome.details
    )


def test_ac11_sweeps_five_c_once(monkeypatch):
    calls = []
    sweep = frames.five_c_characterization

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(frames, "five_c_characterization", counted)
    assert verify.ac11_euclidean_suite().passed
    assert calls == [(frames.FIVE_C_LOGIC_IDS,)]


@pytest.mark.parametrize(
    "report",
    (
        verify.AC11_REPORT._replace(models_checked=verify.AC11_REPORT.models_checked + 1),
        verify.AC11_REPORT._replace(non_euclidean_valid=("[w1->w2] logics K3,K3",)),
    ),
    ids=("models_checked", "non_euclidean_valid"),
)
def test_ac11_fails_a_report_that_differs_from_the_recorded_one(monkeypatch, report):
    # a report changed the same way on every call used to pass, as
    # deterministic: AC11 compared two runs in one process with each other
    monkeypatch.setattr(frames, "five_c_characterization", lambda ids: report)
    outcome = verify.ac11_euclidean_suite()
    assert not outcome.passed
    assert outcome.details[1].endswith(f"{report.models_checked} models, "
                                       f"{len(report.non_euclidean_valid)} counterexample(s), deterministic=False")


def test_ac1_to_ac3_fail_with_a_finding_for_each_planted_wrong_expectation(capsys, monkeypatch):
    from manylogic.cli import main

    monkeypatch.setitem(verify.GOLDEN_BINARY, ("K3", "and"), "T0 n F0\nn n F0\nF0 F0 n")  # F0 & F0 is F0
    monkeypatch.setitem(verify.GOLDEN_UNARY, ("K3", "neg"), "F0 n n")  # ~F0 is T0
    expected = verify.AC2_EXPECTED
    assert expected[2] == ("sec2.json", "w3", "[]p", "F0")
    monkeypatch.setattr(verify, "AC2_EXPECTED", [*expected[:2], ("sec2.json", "w3", "[]p", "b"), *expected[3:]])
    assert verify.AC3_EXPECTED[0] == ("b", "N3w", "F0")
    monkeypatch.setattr(verify, "AC3_EXPECTED", [("b", "N3w", "T0"), *verify.AC3_EXPECTED[1:]])
    assert main(["verify", "--only", "AC1,AC2,AC3"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "AC1   truth-table goldens               FAIL",
        "      - 408 cells compared against the frozen tables",
        "      ! K3 and [F0,F0]: F0 != n",
        "      ! K3 neg [F0]: T0 != n",
        "AC2   worked-example evaluations        FAIL",
        "      - 12 box values reproduced",
        "      ! sec2.json w3 []p: F0 != b",
        "AC3   down-interpretation spot values   FAIL",
        "      - 4 values checked",
        "      ! down(b,N3w): F0 != T0",
        "0/3 criteria pass",
    ]


def test_ac4_reports_each_law_a_corrupted_meet_table_breaks_with_its_witness(capsys, monkeypatch):
    from manylogic.cli import main
    from manylogic.lattices import LATTICES, verify_lattice_laws

    l4s = LATTICES["L4s"]
    assert l4s.meet(V.b, V.n) == V.F
    bad = l4s._replace(_meet={**l4s._meet, (V.b, V.n): V.b})
    report = verify_lattice_laws(bad)
    assert not report.all_pass
    assert [r for r in report.results if not r.holds] == [
        ("complete", False, "X=(<Value.b: 2>, <Value.n: 3>)"),
        ("subset_bounds_match_down", False, "X=(<Value.b: 2>, <Value.n: 3>)"),
        ("pair_meet_shrinks_join_grows", False, "x=b y=n"),
        ("meet_commutes_with_down", False, "x=b y=n"),
    ]
    monkeypatch.setitem(verify.LATTICES, "L4s", bad)
    assert main(["verify", "--only", "AC4"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "AC4   lattice law suite   FAIL",
        "      - 8 sublattices, all subsets of the base lattice",
        "      ! L4s complete: X=(<Value.b: 2>, <Value.n: 3>)",
        "      ! L4s subset_bounds_match_down: X=(<Value.b: 2>, <Value.n: 3>)",
        "      ! L4s pair_meet_shrinks_join_grows: x=b y=n",
        "      ! L4s meet_commutes_with_down: x=b y=n",
        "0/1 criteria pass",
    ]
