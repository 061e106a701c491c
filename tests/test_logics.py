from collections import Counter
from itertools import cycle, product
from random import Random

import pytest

from manylogic.lattices import L6
from manylogic.logics import (
    CONNECTIVES,
    LOGICS,
    LogicError,
    TooManyAtomsError,
    apply,
    evaluate,
    matrix_consequence,
    truth_table,
    twist_and,
    twist_neg,
    twist_or,
)
from manylogic import syntax
from manylogic.syntax import Atom, atoms, parse
from manylogic.values import SNAPSHOTS, Value as V, from_snapshot


def test_logic_catalog():
    triples = {lid: (lg.lattice.id, set(map(str, lg.designated))) for lid, lg in LOGICS.items()}
    assert triples == {
        "LETK": ("L6", {"T", "T0", "b"}),
        "FDE": ("L4w", {"T0", "b"}),
        "LJ4": ("L4s", {"T", "b"}),
        "LP": ("B3w", {"T0", "b"}),
        "J3": ("B3s", {"T", "b"}),
        "K3": ("N3w", {"T0"}),
        "L3": ("N3s", {"T"}),
        "CLW": ("C2w", {"T0"}),
        "CLS": ("C2s", {"T"}),
    }
    for lg in LOGICS.values():
        assert lg.designated == {x for x in lg.lattice.elements if SNAPSHOTS[x][0] == 1}


def test_families():
    material = {lid for lid, lg in LOGICS.items() if lg.implication_family == "material"}
    assert material == {"LETK", "FDE", "LP", "K3", "CLW", "CLS"}
    strong_circ = {lid for lid, lg in LOGICS.items() if lg.circ_third_coordinate == 1}
    assert strong_circ == {"LETK", "LJ4", "J3", "L3", "CLS"}


def test_apply_spot_values():
    assert apply(LOGICS["FDE"], "and", [V.b, V.n]) == V.F0
    assert apply(LOGICS["LETK"], "imp", [V.F, V.b]) == V.T
    assert apply(LOGICS["LJ4"], "circ", [V.b]) == V.F
    assert apply(LOGICS["LJ4"], "circ", [V.T]) == V.T


def test_neg_is_an_involution_everywhere():
    for lg in LOGICS.values():
        for x in lg.lattice.elements:
            assert apply(lg, "neg", [apply(lg, "neg", [x])]) == x


def test_closure_exhaustive():
    for lg in LOGICS.values():
        for conn, arity in CONNECTIVES.items():
            for args in product(lg.lattice.elements, repeat=arity):
                assert apply(lg, conn, list(args)) in lg.lattice.members


def test_value_membership_errors():
    with pytest.raises(LogicError):
        apply(LOGICS["CLS"], "and", [V.T, V.b])


def test_twist_formulas_match_base_lattice_bounds():
    for x in V:
        for y in V:
            assert from_snapshot(twist_and(SNAPSHOTS[x], SNAPSHOTS[y])) == L6.meet(x, y)
            assert from_snapshot(twist_or(SNAPSHOTS[x], SNAPSHOTS[y])) == L6.join(x, y)
    for x in V:
        assert from_snapshot(twist_neg(SNAPSHOTS[x])) == apply(LOGICS["LETK"], "neg", [x])


def test_coordinatewise_and_escapes_only_the_strong_four_lattice():
    # raw snapshot results, down-interpreted, always equal the table op;
    # the raw result itself leaves the lattice exactly for {b,n} in L4s
    escapes = []
    for lid, lg in LOGICS.items():
        lat = lg.lattice
        for x in lat.elements:
            for y in lat.elements:
                for fn, conn in ((twist_and, "and"), (twist_or, "or")):
                    raw = from_snapshot(fn(SNAPSHOTS[x], SNAPSHOTS[y]))
                    assert lat.down(raw) == apply(lg, conn, [x, y])
                    if raw not in lat.members:
                        escapes.append((lid, conn, x, y))
    assert {e[0] for e in escapes} == {"LJ4"}
    assert {(e[2], e[3]) for e in escapes} == {(V.b, V.n), (V.n, V.b)}


def test_truth_table_render_golden():
    assert truth_table(LOGICS["LJ4"], "circ").render() == (
        "LJ4  @\n T   T\n b   F\n n   F\n F   T"
    )
    assert truth_table(LOGICS["K3"], "imp").render() == (
        "K3  ->\n     T0  n   F0\n T0  T0  n   F0\n n   T0  T0  T0\n F0  T0  T0  T0"
    )


def test_nabla_and_chain_imp_tables():
    nabla_j3 = truth_table(LOGICS["J3"], "nabla").cells
    assert {str(k): str(v) for k, v in nabla_j3.items()} == {"T": "T", "b": "T", "F": "F"}
    impl_l3 = truth_table(LOGICS["L3"], "impL").cells
    assert impl_l3[(V.n, V.n)] == V.T
    assert impl_l3[(V.n, V.F)] == V.n
    assert impl_l3[(V.T, V.n)] == V.n


def test_circ_definable_from_nabla_in_j3():
    j3 = LOGICS["J3"]
    for x in j3.lattice.elements:
        nab = apply(j3, "nabla", [x])
        nab_neg = apply(j3, "nabla", [apply(j3, "neg", [x])])
        derived = apply(j3, "neg", [apply(j3, "and", [nab, nab_neg])])
        assert derived == apply(j3, "circ", [x])


def test_l3_implication_definability():
    # the workable definition is Nabla(!A) | B; the naive variant
    # !Nabla(A) | B differs exactly at A=n
    l3 = LOGICS["L3"]
    for a in l3.lattice.elements:
        for b in l3.lattice.elements:
            good = apply(l3, "or", [apply(l3, "nabla", [apply(l3, "neg", [a])]), b])
            assert good == apply(l3, "imp", [a, b])
    printed = apply(
        l3, "or", [apply(l3, "neg", [apply(l3, "nabla", [V.n])]), V.n]
    )
    assert printed == V.n != apply(l3, "imp", [V.n, V.n])


def test_l3_chain_implication_definability():
    l3 = LOGICS["L3"]
    for a in l3.lattice.elements:
        for b in l3.lattice.elements:
            na = apply(l3, "neg", [a])
            left = apply(l3, "or", [apply(l3, "nabla", [na]), b])
            right = apply(l3, "or", [apply(l3, "nabla", [b]), na])
            assert apply(l3, "and", [left, right]) == apply(l3, "impL", [a, b])


def test_bottom_sugar_oracles():
    # A & !A & @A pins bottom in the logics with a strong mark; @A does in
    # the weak ones; A & !A works for the strong classical pair
    for lid in ("LETK", "LJ4", "J3"):
        lg = LOGICS[lid]
        for x in lg.lattice.elements:
            nx = apply(lg, "neg", [x])
            val = apply(lg, "and", [apply(lg, "and", [x, nx]), apply(lg, "circ", [x])])
            assert val == lg.lattice.bottom
    for lid in ("FDE", "LP", "CLW"):
        lg = LOGICS[lid]
        for x in lg.lattice.elements:
            assert apply(lg, "circ", [x]) == lg.lattice.bottom
    cls = LOGICS["CLS"]
    for x in cls.lattice.elements:
        assert apply(cls, "and", [x, apply(cls, "neg", [x])]) == cls.lattice.bottom
    # A & !A is non-designated but not constant in the strong/weak Kleene pair
    for lid in ("K3", "L3"):
        lg = LOGICS[lid]
        for x in lg.lattice.elements:
            val = apply(lg, "and", [x, apply(lg, "neg", [x])])
            assert not lg.is_designated(val)
        mid = V.n
        assert apply(lg, "and", [mid, apply(lg, "neg", [mid])]) == V.n != lg.lattice.bottom


def test_bottom_constant_is_the_least_element():
    for lg in LOGICS.values():
        assert evaluate(lg, parse("#"), {}) == lg.lattice.bottom
        for x in lg.lattice.elements:
            assert lg.lattice.leq(lg.lattice.bottom, x)


def test_classical_range_of_tilde():
    window = {V.T, V.T0, V.F0, V.F}
    for lg in LOGICS.values():
        for x in lg.lattice.elements:
            assert apply(lg, "imp", [x, lg.lattice.bottom]) in window


def test_implication_property_and_upward_closure():
    for lg in LOGICS.values():
        for a in lg.lattice.elements:
            for b in lg.lattice.elements:
                not_desig = not lg.is_designated(apply(lg, "imp", [a, b]))
                assert not_desig == (lg.is_designated(a) and not lg.is_designated(b))
                if lg.is_designated(a) and lg.lattice.leq(a, b):
                    assert lg.is_designated(b)


def test_consequence_examples():
    lp = LOGICS["LP"]
    verdict = matrix_consequence(lp, [parse("p"), parse("!p")], parse("q"))
    assert not verdict.valid
    assert verdict.witness == {"p": V.b, "q": V.F0}
    assert matrix_consequence(LOGICS["LETK"], [parse("@p"), parse("p"), parse("!p")], parse("q")).valid
    for lg in LOGICS.values():
        assert matrix_consequence(lg, [parse("p")], parse("p")).valid


def test_consequence_rejects_modal_formulas_and_too_many_atoms():
    from manylogic.syntax import ModalFormulaError

    with pytest.raises(ModalFormulaError):
        matrix_consequence(LOGICS["FDE"], [parse("[]p")], parse("p"))
    wide = parse(" & ".join(f"a{i}" for i in range(9)))
    with pytest.raises(TooManyAtomsError):
        matrix_consequence(LOGICS["FDE"], [], wide)


def test_evaluate_requires_atom_values():
    with pytest.raises(LogicError):
        evaluate(LOGICS["FDE"], Atom("p"), {})


def test_evaluate_reproduces_every_truth_table():
    p, q = Atom("p"), Atom("q")
    nodes = {
        "and": syntax.And(p, q), "or": syntax.Or(p, q), "imp": syntax.Imp(p, q),
        "impL": syntax.ImpL(p, q), "neg": syntax.Neg(p), "circ": syntax.Circ(p),
        "nabla": syntax.Nabla(p),
    }
    for lg in LOGICS.values():
        for conn, f in nodes.items():
            for args in product(lg.lattice.elements, repeat=CONNECTIVES[conn]):
                assert evaluate(lg, f, dict(zip("pq", args))) == apply(lg, conn, list(args))


def test_evaluate_rejects_values_outside_the_logic():
    with pytest.raises(LogicError, match="not in logic K3"):
        evaluate(LOGICS["K3"], parse("p"), {"p": V.T})
    with pytest.raises(LogicError, match="not in logic CLS"):
        evaluate(LOGICS["CLS"], parse("q | !p"), {"p": V.b, "q": V.T})


@pytest.mark.parametrize("val", (1, True, 1.0), ids=repr)
def test_apply_and_evaluate_refuse_what_only_equals_a_value(val):
    # each equals T0's code and hashes like it, so the lattice's member
    # set alone would take it for T0
    with pytest.raises(LogicError, match=f"^{val!r} is not a Value$"):
        apply(LOGICS["K3"], "neg", [val])
    with pytest.raises(LogicError, match=f"^{val!r} is not a Value$"):
        apply(LOGICS["LETK"], "and", [V.T, val])
    with pytest.raises(LogicError, match=f"^{val!r} is not a Value$"):
        evaluate(LOGICS["K3"], parse("p"), {"p": val})


def test_consequence_without_atoms():
    for lg in LOGICS.values():
        verdict = matrix_consequence(lg, [], parse("#"))
        assert not verdict.valid and verdict.witness == {}
        assert matrix_consequence(lg, [], parse("# -> #")).valid
        assert matrix_consequence(lg, [parse("#")], parse("#")).valid


def test_eight_atom_witness_deep_in_the_enumeration():
    letk = LOGICS["LETK"]
    names = "pqrstuvw"
    verdict = matrix_consequence(letk, [], parse(" | ".join(names)))
    # n is LETK's fourth element, so this is valuation 3 * (6^8 - 1) / 5
    # of 6^8, the first at which no disjunct is designated
    assert not verdict.valid
    assert verdict.witness == dict.fromkeys(names, V.n)
    assert matrix_consequence(letk, [], parse("(p & q & r & s & t & u & v & w) -> (w | p)")).valid


# The per-valuation decision procedure that matrix_consequence replaced:
# evaluate each formula under each valuation, one connective at a time
# through apply, and stop at the first valuation that designates every
# premise but not the conclusion.

def _reference_value(logic, f, assignment):
    if isinstance(f, syntax.Atom):
        return assignment[f.name]
    if isinstance(f, syntax.Bottom):
        return logic.lattice.bottom
    if isinstance(f, syntax.Neg):
        return apply(logic, "neg", [_reference_value(logic, f.child, assignment)])
    if isinstance(f, syntax.Circ):
        return apply(logic, "circ", [_reference_value(logic, f.child, assignment)])
    if isinstance(f, syntax.CNeg):
        return apply(logic, "imp", [_reference_value(logic, f.child, assignment), logic.lattice.bottom])
    if isinstance(f, syntax.Nabla):
        return apply(logic, "nabla", [_reference_value(logic, f.child, assignment)])
    conn = {syntax.And: "and", syntax.Or: "or", syntax.Imp: "imp", syntax.ImpL: "impL"}[type(f)]
    return apply(logic, conn, [_reference_value(logic, f.left, assignment),
                               _reference_value(logic, f.right, assignment)])


def _reference_consequence(logic, premises, conclusion):
    names = sorted(set().union(*[atoms(f) for f in premises + [conclusion]]))
    for combo in product(logic.lattice.elements, repeat=len(names)):
        assignment = dict(zip(names, combo))
        if all(logic.is_designated(_reference_value(logic, p, assignment)) for p in premises):
            if not logic.is_designated(_reference_value(logic, conclusion, assignment)):
                return False, assignment
    return True, None


_UNARIES = (syntax.Neg, syntax.Circ, syntax.CNeg, syntax.Nabla)
_BINARIES = (syntax.And, syntax.Or, syntax.Imp, syntax.ImpL)


def _random_formula(rng, names, depth):
    """`names` cycles through the atom names (None: no atoms), so a
    formula with enough leaves uses every atom."""
    if depth == 0 or rng.random() < 0.2:
        if names is None or rng.random() < 0.1:
            return syntax.Bottom()
        return Atom(next(names))
    if rng.random() < 0.4:
        return rng.choice(_UNARIES)(_random_formula(rng, names, depth - 1))
    return rng.choice(_BINARIES)(_random_formula(rng, names, depth - 1),
                                 _random_formula(rng, names, depth - 1))


def test_consequence_matches_the_per_valuation_reference():
    # evaluate is checked on every formula too, at one valuation each,
    # drawn from its own generator so the corpus stays as it was
    rng, pick = Random(5), Random(6)
    seen = Counter()
    derived = Counter()
    for lid, logic in LOGICS.items():
        for k in range(5):
            for _ in range(10):
                names = cycle(rng.sample("pqrs", k)) if k else None
                premises = [_random_formula(rng, names, 3) for _ in range(rng.randrange(3))]
                shape = rng.choice((0, 0, 1, 2))
                if shape == 1 and premises:
                    # a join with a premise: VALID, and shares the premise's nodes
                    conclusion = syntax.Or(_random_formula(rng, names, 2), rng.choice(premises))
                elif shape == 2:
                    # A -> B | A holds in every logic
                    a = _random_formula(rng, names, 2)
                    conclusion = syntax.Imp(a, syntax.Or(_random_formula(rng, names, 2), a))
                else:
                    conclusion = _random_formula(rng, names, 4)
                got = matrix_consequence(logic, premises, conclusion)
                want = _reference_consequence(logic, premises, conclusion)
                assert (got.valid, got.witness) == want, (lid, premises, conclusion)
                used = len(set().union(*[atoms(f) for f in premises + [conclusion]]))
                seen[used, got.valid, bool(premises)] += 1
                for f in premises + [conclusion]:
                    assignment = {name: pick.choice(logic.lattice.elements) for name in atoms(f)}
                    value = evaluate(logic, f, assignment)
                    assert value == _reference_value(logic, f, assignment), (lid, f, assignment)
                    derived.update(type(g) for g in syntax.postorder(f))
    # every atom count, each verdict, with and without premises
    assert set(seen) == set(product(range(5), (False, True), (False, True))), seen
    # evaluate met every derived connective
    assert derived[syntax.CNeg] and derived[syntax.Nabla] and derived[syntax.ImpL]


def test_modal_input_is_refused_before_it_is_walked():
    # named as given: the desugared text of the 40-deep => chain would be
    # exponentially long
    from manylogic.syntax import ModalFormulaError

    chain = " => ".join(["[]p"] * 40)
    k3 = LOGICS["K3"]
    for text in ("~[]p", chain):
        f = parse(text)
        calls = (
            lambda: matrix_consequence(k3, [parse("p")], f),
            lambda: matrix_consequence(k3, [f, parse("q")], parse("p")),
            lambda: evaluate(k3, f, {"p": k3.lattice.bottom}),
        )
        for call in calls:
            with pytest.raises(ModalFormulaError) as err:
                call()
            assert str(err.value) == f"modal operator in {text}"


def test_truth_table_refuses_an_unknown_connective_by_name():
    for conn in ("xx", "AND", ""):
        with pytest.raises(LogicError) as err:
            truth_table(LOGICS["K3"], conn)
        assert str(err.value) == f"unknown connective {conn!r}; expected one of {', '.join(CONNECTIVES)}"


def test_matrix_side_refuses_text_for_a_formula():
    k3, p = LOGICS["K3"], parse("p")
    for call in (
        lambda: matrix_consequence(k3, [], "p"),
        lambda: matrix_consequence(k3, ["p"], p),
        lambda: evaluate(k3, "p", {"p": V.T}),
    ):
        with pytest.raises(TypeError, match="^expected a Formula, got str$"):
            call()
