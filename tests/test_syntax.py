from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from manylogic import frames, models
from manylogic.logics import LOGICS, evaluate, matrix_consequence
from manylogic.syntax import (
    And,
    Atom,
    Bottom,
    Box,
    Circ,
    CNeg,
    Diamond,
    Imp,
    ImpL,
    MAX_DEPTH,
    ModalFormulaError,
    Nabla,
    Neg,
    Or,
    ParseError,
    atoms,
    desugar,
    is_modal_free,
    modal_depth,
    parse,
    size,
    subformula_closure,
    subformulas,
    substitute,
    to_text,
)
from manylogic.values import Value as V

p, q = Atom("p"), Atom("q")


def test_parse_examples():
    assert parse("[](p -> q)") == Box(Imp(p, q))
    assert parse("!p & q") == And(Neg(p), q)
    assert parse("@p & p & !p") == And(And(Circ(p), p), Neg(p))


def test_precedence_and_associativity():
    assert parse("p | q & r") == Or(p, And(q, Atom("r")))
    assert parse("p -> q -> r") == Imp(p, Imp(q, Atom("r")))
    assert parse("p -> q => r") == Imp(p, ImpL(q, Atom("r")))
    assert parse("<>~p") == Diamond(CNeg(p))
    assert parse("Np") == Nabla(p)
    assert parse("#") == Bottom()


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("p &")
    with pytest.raises(ParseError):
        parse("(p | q")
    with pytest.raises(ParseError) as err:
        parse("p $ q")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("p q")


leaves = st.sampled_from([p, q, Atom("r"), Bottom()])
formulas = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Circ, sub),
        st.builds(CNeg, sub),
        st.builds(Nabla, sub),
        st.builds(Box, sub),
        st.builds(Diamond, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
        st.builds(ImpL, sub, sub),
    ),
    max_leaves=16,
)


@given(formulas)
def test_print_parse_roundtrip(f):
    assert parse(to_text(f)) == f


@given(formulas)
def test_desugar_removes_derived_connectives_and_is_idempotent(f):
    core = desugar(f)
    assert not any(isinstance(g, (CNeg, Nabla, ImpL)) for g in subformulas(core))
    assert desugar(core) == core


SUGARED = [
    "~p", "Np", "N!p", "p => q", "~(p & q)", "N(p | q)", "(p => q) => p",
    "~~p", "Np & ~q", "#", "~#",
]


@pytest.mark.parametrize("text", SUGARED)
def test_desugar_preserves_matrix_value(text):
    f = parse(text)
    core = desugar(f)
    for lg in LOGICS.values():
        for pv, qv in product(lg.lattice.elements, repeat=2):
            env = {"p": pv, "q": qv}
            assert evaluate(lg, f, env) == evaluate(lg, core, env)


def test_desugar_shapes():
    assert desugar(parse("~p")) == Imp(p, Bottom())
    assert desugar(parse("Np")) == Or(p, Neg(Circ(p)))
    assert desugar(parse("p & q")) == parse("p & q")


def test_modal_depth_and_atoms():
    f = parse("[](p -> <>q) & !r")
    assert modal_depth(f) == 2
    assert atoms(f) == {"p", "q", "r"}
    assert not is_modal_free(f)
    assert is_modal_free(parse("p -> q"))


def test_substitute():
    f = parse("[]p -> p")
    g = substitute(f, {"p": parse("q & !q")})
    assert g == parse("[](q & !q) -> q & !q")


def test_closure_contains_the_clause_shapes():
    clo = subformula_closure([p])
    for text in ("p", "!p", "@p", "!@p", "!!p"):
        assert parse(text) in clo
    clo2 = subformula_closure([parse("p -> q")])
    assert parse("!(p -> q)") in clo2
    assert parse("@(p -> q)") in clo2


def test_closure_is_subformula_closed_and_bounded():
    from manylogic.syntax import children

    for text in ("p", "p -> q", "@p & !(q | p)", "!!p -> @q"):
        f = parse(text)
        clo = subformula_closure([f])
        for g in clo:
            for c in children(g):
                assert c in clo
        assert len(clo) <= 5 * len(subformulas(f))


def test_closure_rejects_modal_formulas():
    with pytest.raises(ModalFormulaError):
        subformula_closure([parse("[]p")])


def test_printer_spot_forms():
    assert to_text(parse("[](p->q)")) == "[](p -> q)"
    assert to_text(And(Or(p, q), q)) == "(p | q) & q"
    assert to_text(Imp(Imp(p, q), p)) == "(p -> q) -> p"
    assert to_text(Neg(Circ(p))) == "!@p"


def test_size():
    assert size(parse("p & !p")) == 4


# Formulas with `d` levels of nesting, one per worst shape of a recursive
# walker: parse recurses five frames deep per parenthesis, once per prefix
# operator and right-hand implication; & and | chains are built by a loop
# but leave a tree as deep as they are long.
SHAPES = {
    "parentheses": lambda d: "(" * d + "p" + ")" * d,
    "negations": lambda d: "!" * (d - 1) + "p",
    "boxes": lambda d: "[]" * (d - 1) + "p",
    "implications": lambda d: " -> ".join(["p"] * d),
    "chain implications": lambda d: " => ".join(["p"] * d),
    "conjunctions": lambda d: " & ".join(["p"] * d),
    "disjunctions": lambda d: " | ".join(["q"] * d),
    "mixed": lambda d: "!(" * (d // 2) + "!" * (d % 2) + "p" + ")" * (d // 2),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_parse_refuses_formulas_deeper_than_the_cap(shape):
    parse(SHAPES[shape](MAX_DEPTH))
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH}"):
        parse(SHAPES[shape](MAX_DEPTH + 1))
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH}"):
        parse(SHAPES[shape](1000))


@pytest.mark.parametrize("shape", SHAPES)
def test_formulas_at_the_cap_run_through_every_walker(shape):
    f = parse(SHAPES[shape](MAX_DEPTH))
    assert parse(to_text(f)) == f
    core = desugar(f)
    letk = LOGICS["LETK"]
    if is_modal_free(f):
        names = sorted(atoms(f))
        assert evaluate(letk, f, dict.fromkeys(names, V.b)) == evaluate(letk, core, dict.fromkeys(names, V.b))
        assert matrix_consequence(letk, [f], f).valid
    else:
        with pytest.raises(ModalFormulaError):
            matrix_consequence(letk, [], f)
    # Desugaring => repeats each argument three times, and the model and
    # frame evaluators hash that tree without its sharing, in time
    # exponential in the depth; they run on the other shapes.
    if "=>" not in SHAPES[shape](2):
        model = models.model_from_dict({
            "worlds": ["w", "u"], "logics": {"w": "LETK", "u": "K3"},
            "relation": [["w", "u"], ["u", "u"]],
            "valuation": {"w": {"p": "b", "q": "T"}, "u": {"p": "T0", "q": "n"}},
        })
        assert models.eval_formula(model, "w", f) in set(V)
        names = tuple(sorted(atoms(f)))
        assert frames.compile_program(f, "up", names)
