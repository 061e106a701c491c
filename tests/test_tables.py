"""The three process-wide tables against runs that start from empty ones.

`syntax._PARSED` (text -> formula), `logics._WALKS` (formulas -> walk)
and `bivaluations._DOMAINS` (sequent -> roots and ordered closure) only
remember analyses that do not depend on the logic or the reading.  Every
verdict, witness, value and error must be what a call with all three
tables emptied first gives.
"""

import sys
import threading
from itertools import islice
from pathlib import Path
from random import Random

import pytest

from manylogic import bivaluations, logics, syntax
from manylogic.bivaluations import ClosureTooLargeError, biv_consequence
from manylogic.logics import LOGIC_IDS, LOGICS, TooManyAtomsError, evaluate, matrix_consequence
from manylogic.syntax import ModalFormulaError, parse, to_text
from manylogic.verify import AC12_SEED, AC12_SEQUENT_COUNT, make_sequents


def _clear():
    syntax._PARSED.clear()
    logics._WALKS.clear()
    bivaluations._DOMAINS.clear()


def _outcome(call):
    """What a call returns or raises, in a form that compares: a verdict
    with its witness in order, or the error's type, message and position."""
    try:
        out = call()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    if isinstance(out, logics.Verdict):
        return out.valid, None if out.witness is None else list(out.witness.items())
    return out


def _assert_tables_change_nothing(calls):
    first = [_outcome(call) for call in calls]  # fills the tables as it goes
    again = [_outcome(call) for call in calls]  # finds every analysis kept
    cold = []
    for call in calls:
        _clear()
        cold.append(_outcome(call))
    assert first == cold
    assert again == cold


def _ac12_texts():
    out = []
    for allow_or in (True, False):
        for premises, conclusion in make_sequents(AC12_SEQUENT_COUNT, AC12_SEED, allow_or):
            out.append(([to_text(p) for p in premises], to_text(conclusion)))
    return out


def _bench_texts(seed, most_atoms=3):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import consequence_corpus
    finally:
        sys.path.pop(0)
    return [
        (item["premise_texts"], item["conclusion_text"])
        for item in consequence_corpus(seed)
        if item["atoms"] <= most_atoms
    ]


def _sequent_calls(texts):
    """Each sequent, parsed from its texts on every call, decided in all
    nine logics by the matrices and by the clauses in both readings."""
    calls = []
    for premise_texts, conclusion_text in texts:
        def sequent(ps=premise_texts, c=conclusion_text):
            return [parse(t) for t in ps], parse(c)

        for lid in LOGIC_IDS:
            logic = LOGICS[lid]
            calls.append(lambda s=sequent, logic=logic: matrix_consequence(logic, *s()))
            for reading in bivaluations.V14_READINGS:
                calls.append(lambda s=sequent, logic=logic, r=reading: biv_consequence(logic, *s(), v14_reading=r))
    return calls


def test_verdicts_match_empty_tables_on_the_ac12_corpus():
    _assert_tables_change_nothing(_sequent_calls(_ac12_texts()))


def test_verdicts_match_empty_tables_on_a_seeded_benchmark_corpus():
    _assert_tables_change_nothing(_sequent_calls(islice(_bench_texts(15), 0, None, 2)))


def test_values_match_empty_tables():
    rng = Random(15)
    calls = []
    texts = [t for ps, c in _ac12_texts()[:120] for t in ps + [c]]
    for text in texts:
        for lid in LOGIC_IDS:
            elements = LOGICS[lid].lattice.elements
            assignment = {name: rng.choice(elements) for name in ("p", "q")}
            calls.append(lambda t=text, l=LOGICS[lid], a=assignment: evaluate(l, parse(t), a))
    _assert_tables_change_nothing(calls)


def _bad_texts():
    rng = Random(15)
    texts = ["", "(", ")", "p q", "  ->p", "p &", "[]", "p $ q", "(p | q"]
    texts += ["!" * 1000 + "p", "(" * 101 + "p" + ")" * 101]
    for premise_texts, conclusion_text in _ac12_texts()[:150]:
        text = conclusion_text
        at = rng.randint(0, len(text))
        texts.append(text[:at] + rng.choice("()&|!$ ") + text[at + rng.choice((0, 1)):])
    return texts


def test_parse_errors_and_results_match_empty_tables():
    texts = _bad_texts() + [t for ps, c in _ac12_texts() for t in ps + [c]]
    calls = [lambda t=t: parse(t) for t in texts]
    calls += [lambda x=x: parse(x) for x in (5, b"p", None, ["p"], ("p",))]
    _assert_tables_change_nothing(calls)
    assert any(isinstance(out, tuple) and out[0] is syntax.ParseError for out in map(_outcome, calls))


NINE = " & ".join("abcdefghi")
WIDE = "(p & q) | (q -> r) | (r & !s) | (s -> @t)"  # 5 atoms, 66 formulas in its closure


def _refusals():
    """Calls that raise: a modal formula named as given, a non-Formula,
    the atom caps, the closure cap, an unknown reading, a missing atom and
    a value outside the logic."""
    k3, letk = LOGICS["K3"], LOGICS["LETK"]
    return [
        lambda: matrix_consequence(k3, [parse("p"), parse("[]p")], parse("q")),
        lambda: matrix_consequence(k3, [parse("p")], parse("<>(p & q)")),
        lambda: biv_consequence(k3, [parse("[]!p")], parse("q")),
        lambda: evaluate(k3, parse("p -> []q"), {"p": k3.lattice.top, "q": k3.lattice.top}),
        lambda: matrix_consequence(k3, ["p"], parse("q")),
        lambda: matrix_consequence(k3, [parse("p")], ["q"]),
        lambda: matrix_consequence(k3, [parse("p")], None),
        lambda: biv_consequence(k3, [parse("p"), "q"], parse("q")),
        lambda: biv_consequence(k3, [], ["q"]),
        lambda: evaluate(k3, "p", {}),
        lambda: matrix_consequence(k3, [], parse(NINE)),
        lambda: biv_consequence(k3, [], parse(NINE)),
        lambda: biv_consequence(letk, [parse(WIDE)], parse("q")),
        lambda: biv_consequence(k3, [], parse("p"), v14_reading="weird"),
        lambda: evaluate(k3, parse("p & q"), {"p": k3.lattice.top}),
        lambda: evaluate(k3, parse("p & q"), {"p": LOGICS["LETK"].lattice.top, "q": k3.lattice.top}),
    ]


def test_every_refusal_matches_empty_tables():
    calls = _refusals()
    outcomes = [_outcome(call) for call in calls]
    assert all(isinstance(out, tuple) and isinstance(out[0], type) for out in outcomes), outcomes
    kinds = {out[0] for out in outcomes}
    assert {ModalFormulaError, TypeError, TooManyAtomsError, ClosureTooLargeError, logics.LogicError} <= kinds
    _assert_tables_change_nothing(calls)


def test_a_refused_sequent_is_refused_again_and_not_kept():
    k3, letk = LOGICS["K3"], LOGICS["LETK"]
    for logic, premises, conclusion, message in (
        (k3, [], parse(NINE), "^9 atoms exceed the cap of 8$"),
        (letk, [parse(WIDE)], parse("q"), r"^closure has \d+ formulas \(cap 64\)$"),
    ):
        _clear()
        for _ in range(2):
            with pytest.raises(ClosureTooLargeError, match=message):
                biv_consequence(logic, premises, conclusion)
            assert not bivaluations._DOMAINS
    for premises, conclusion in (([parse("[]p")], parse("q")), (["p"], parse("q"))):
        _clear()
        for call in (matrix_consequence, biv_consequence):
            for _ in range(2):
                with pytest.raises((ModalFormulaError, TypeError)):
                    call(k3, premises, conclusion)
        assert not logics._WALKS and not bivaluations._DOMAINS
    # a walk keeps no cap: evaluate takes any number of atoms, so the walk
    # of a sequent that matrix_consequence refuses is kept and refused again
    _clear()
    for _ in range(2):
        with pytest.raises(TooManyAtomsError, match="^9 atoms exceed the cap of 8$"):
            matrix_consequence(k3, [], parse(NINE))
    assert list(logics._WALKS) == [(parse(NINE),)]


def test_deciding_in_one_logic_then_another_is_deciding_in_the_other_alone():
    # the kept use counts are counted down on a copy, so an entry serves
    # every logic in turn
    texts = _ac12_texts()[:40] + _bench_texts(16)[:40]
    pairs = [("LETK", "K3"), ("K3", "LETK"), ("LP", "FDE"), ("CLS", "LJ4"), ("J3", "CLW")]
    for premise_texts, conclusion_text in texts:
        premises, conclusion = [parse(t) for t in premise_texts], parse(conclusion_text)
        for a, b in pairs:
            _clear()
            alone = _outcome(lambda: matrix_consequence(LOGICS[b], premises, conclusion))
            alone_biv = _outcome(lambda: biv_consequence(LOGICS[b], premises, conclusion))
            _clear()
            matrix_consequence(LOGICS[a], premises, conclusion)
            biv_consequence(LOGICS[a], premises, conclusion)
            entry = logics._walk(premises + [conclusion])
            uses = dict(entry[3])
            assert _outcome(lambda: matrix_consequence(LOGICS[b], premises, conclusion)) == alone
            assert _outcome(lambda: biv_consequence(LOGICS[b], premises, conclusion)) == alone_biv
            assert entry[3] == uses
            for f in premises + [conclusion]:  # evaluate reads the same table
                value = {name: LOGICS[b].lattice.bottom for name in syntax.atoms(f)}
                got = evaluate(LOGICS[b], f, value)
                _clear()
                assert evaluate(LOGICS[b], f, value) == got


def test_premise_order_and_roles_are_distinct_entries():
    p, q, r = parse("p"), parse("q"), parse("p | q")
    letk = LOGICS["LETK"]
    _clear()
    assert matrix_consequence(letk, [p, q], r).valid
    assert matrix_consequence(letk, [q, p], r).valid
    assert matrix_consequence(letk, [p], r).valid
    assert not matrix_consequence(letk, [r], p).valid
    assert set(logics._WALKS) == {(p, q, r), (q, p, r), (p, r), (r, p)}
    assert logics._walk([p, q, r])[0] == (p, q, r)
    assert logics._walk([q, p, r])[0] == (q, p, r)
    assert biv_consequence(letk, [p, q], r).valid
    assert biv_consequence(letk, [q, p], r).valid
    assert biv_consequence(letk, [p], r).valid
    assert not biv_consequence(letk, [r], p).valid
    assert set(bivaluations._DOMAINS) == {(p, q, r), (q, p, r), (p, r), (r, p)}
    for key, entry in bivaluations._DOMAINS.items():
        assert entry == bivaluations._domain(key)


def test_eight_threads_filling_one_table_agree():
    texts = _ac12_texts()[:60]
    logic = LOGICS["LETK"]
    _clear()
    want = []
    for premise_texts, conclusion_text in texts:
        premises, conclusion = [parse(t) for t in premise_texts], parse(conclusion_text)
        want.append((
            _outcome(lambda: matrix_consequence(logic, premises, conclusion)),
            _outcome(lambda: biv_consequence(logic, premises, conclusion)),
        ))
    _clear()
    barrier = threading.Barrier(8)
    results = [None] * 8

    def work(t):
        barrier.wait()
        out = []
        for premise_texts, conclusion_text in texts:
            premises, conclusion = [parse(s) for s in premise_texts], parse(conclusion_text)
            out.append((
                _outcome(lambda: matrix_consequence(logic, premises, conclusion)),
                _outcome(lambda: biv_consequence(logic, premises, conclusion)),
                logics._walk(premises + [conclusion]),
            ))
        results[t] = out

    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter will
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out in results:
        assert [(m, b) for m, b, _ in out] == want
        # setdefault hands every thread the entry stored first
        assert all(walk is first for (_, _, walk), (_, _, first) in zip(out, results[0]))
    assert len(syntax._PARSED) == len({t for ps, c in texts for t in ps + [c]})
    for key, entry in logics._WALKS.items():
        assert entry == logics._analyse(key)
    for key, entry in bivaluations._DOMAINS.items():
        assert entry == bivaluations._domain(key)
