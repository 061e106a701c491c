import random
import re
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
    Formula,
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
    layer,
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


def _closure_as_defined(fs):
    """The closure by its definition, with no cached layer."""
    base = set().union(*[subformulas(f) for f in fs])
    return frozenset(base | {h for g in base for h in (Neg(g), Circ(g), Neg(Circ(g)), Neg(Neg(g)))})


propositional = st.recursive(
    leaves,
    lambda sub: st.one_of(
        *[st.builds(cls, sub) for cls in (Neg, Circ, CNeg, Nabla)],
        *[st.builds(cls, sub, sub) for cls in (And, Or, Imp, ImpL)],
    ),
    max_leaves=12,
)


@given(st.lists(propositional, max_size=3))
def test_closure_and_layer_match_their_definitions(fs):
    for g in set().union(*[subformulas(f) for f in fs]):
        assert layer(g) == (Neg(g), Circ(g), Neg(Circ(g)), Neg(Neg(g)))
        assert layer(g) is layer(g)  # cached on the node
    assert subformula_closure(fs) == _closure_as_defined(fs)
    assert subformula_closure(iter(fs)) == _closure_as_defined(fs)


def test_closure_rejects_modal_formulas():
    with pytest.raises(ModalFormulaError):
        subformula_closure([parse("[]p")])


def test_printer_spot_forms():
    assert to_text(parse("[](p->q)")) == "[](p -> q)"
    assert to_text(And(Or(p, q), q)) == "(p | q) & q"
    assert to_text(Imp(Imp(p, q), p)) == "(p -> q) -> p"
    assert to_text(Neg(Circ(p))) == "!@p"
    # & and | associate left, -> and => right, as the parser reduces them
    for text in ("p & q & r", "p & (q & r)", "p | q | r", "p -> q -> r", "(p => q) -> r"):
        assert to_text(parse(text)) == text


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
    # the cap written out, so that a changed MAX_DEPTH fails here
    parse(SHAPES[shape](100))
    with pytest.raises(ParseError, match="^formula nested deeper than 100 levels"):
        parse(SHAPES[shape](101))
    with pytest.raises(ParseError, match="^formula nested deeper than 100 levels"):
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
    model = models.model_from_dict({
        "worlds": ["w", "u"], "logics": {"w": "LETK", "u": "K3"},
        "relation": [["w", "u"], ["u", "u"]],
        "valuation": {"w": {"p": "b", "q": "T"}, "u": {"p": "T0", "q": "n"}},
    })
    assert models.eval_formula(model, "w", f) in set(V)
    names = tuple(sorted(atoms(f)))
    assert frames.compile_program(f, "up", names)


def test_structurally_equal_formulas_are_one_object():
    assert parse("p -> q") is parse("p -> q")
    assert Neg(Atom("p")) is Neg(Atom("p"))
    assert parse("[](p & !q)") is Box(And(p, Neg(q)))
    assert Bottom() is Bottom()


def test_different_classes_with_equal_fields_stay_distinct():
    assert Box(p) is not Diamond(p) and Box(p) != Diamond(p)
    assert Imp(p, q) is not ImpL(p, q) and Imp(p, q) != ImpL(p, q)
    assert Neg(p) != Circ(p)
    assert len({Box(p), Diamond(p), Imp(p, q), ImpL(p, q), Neg(p), Circ(p)}) == 6


def test_formulas_are_immutable():
    f = parse("p -> q")
    with pytest.raises(AttributeError):
        f.left = q
    with pytest.raises(AttributeError):
        p.name = "r"
    with pytest.raises(AttributeError):
        del f.right
    assert f is Imp(p, q) and p.name == "p"


def test_constructors_check_their_fields():
    with pytest.raises(TypeError):
        Neg()
    with pytest.raises(TypeError):
        Imp(p)
    with pytest.raises(TypeError):
        Imp(p, q, p)
    with pytest.raises(TypeError):
        Atom(name="p")


def test_repr_is_the_dataclass_text():
    assert repr(parse("p -> q")) == "Imp(left=Atom(name='p'), right=Atom(name='q'))"
    assert repr(parse("!#")) == "Neg(child=Bottom())"
    assert repr(parse("[]<>p")) == "Box(child=Diamond(child=Atom(name='p')))"


def test_pickling_and_copying_return_the_interned_node():
    import copy
    import pickle

    f = parse("N(p => q) & ~<>p")
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f and copy.deepcopy(f) is f


@given(formulas)
def test_desugar_of_desugar_is_the_same_object(f):
    core = desugar(f)
    assert desugar(core) is core
    assert desugar(f) is core


# The recursive printer and size that formulas had before they cached both
# on the node, kept as the reference the cached versions are checked against.
def _reference_prec(f):
    if isinstance(f, (Imp, ImpL)):
        return 1
    if isinstance(f, Or):
        return 2
    if isinstance(f, And):
        return 3
    return 4


_REFERENCE_UNARY = {Neg: "!", Circ: "@", CNeg: "~", Nabla: "N", Box: "[]", Diamond: "<>"}
_REFERENCE_BINARY = {And: "&", Or: "|", Imp: "->", ImpL: "=>"}


def _reference_text(f):
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bottom):
        return "#"
    if isinstance(f, (Neg, Circ, CNeg, Nabla, Box, Diamond)):
        inner = _reference_text(f.child)
        if _reference_prec(f.child) < 4:
            inner = f"({inner})"
        return _REFERENCE_UNARY[type(f)] + inner
    sym = _REFERENCE_BINARY[type(f)]
    lprec, rprec = _reference_prec(f.left), _reference_prec(f.right)
    here = _reference_prec(f)
    left = _reference_text(f.left)
    right = _reference_text(f.right)
    if lprec < here or (lprec == here and here == 1):
        left = f"({left})"
    if rprec < here or (rprec == here and here > 1):
        right = f"({right})"
    return f"{left} {sym} {right}"


def _reference_size(f):
    if isinstance(f, (Atom, Bottom)):
        return 1
    if isinstance(f, (Neg, Circ, CNeg, Nabla, Box, Diamond)):
        return 1 + _reference_size(f.child)
    return 1 + _reference_size(f.left) + _reference_size(f.right)


@given(formulas)
def test_cached_text_and_size_match_the_recursive_definitions(f):
    assert to_text(f) == _reference_text(f)
    assert size(f) == _reference_size(f)
    core = desugar(f)
    assert to_text(core) == _reference_text(core)
    assert size(core) == _reference_size(core)


def test_clause_order_matches_the_recursive_sort_key_on_the_ac12_corpus():
    from manylogic.bivaluations import _ordered
    from manylogic.verify import AC12_SEED, AC12_SEQUENT_COUNT, make_sequents

    corpus = (make_sequents(AC12_SEQUENT_COUNT, AC12_SEED, allow_or=True)
              + make_sequents(AC12_SEQUENT_COUNT, AC12_SEED, allow_or=False))
    for premises, conclusion in corpus:
        closure = subformula_closure([desugar(f) for f in premises + [conclusion]])
        want = sorted(closure, key=lambda f: (_reference_size(f), _reference_text(f)))
        assert _ordered(closure) == want


def test_nested_chain_implications_share_their_desugared_arguments():
    f = parse(" => ".join(["p"] * 12))
    core = desugar(f)
    assert size(core) > 3**11  # the tree repeats each argument three times
    assert len(subformulas(core)) < 12 * 12  # the nodes do not
    model = models.model_from_dict({
        "worlds": ["w"], "logics": {"w": "LETK"}, "relation": [], "valuation": {"w": {"p": "b"}},
    })
    assert models.eval_formula(model, "w", f) in set(V)
    assert len(frames.compile_program(f, "up", ("p",))) == len(subformulas(core))


def test_threads_building_the_same_formulas_get_one_node_each():
    import sys
    import threading

    texts = [f"(t{i} -> !u{i}) & @t{i} | [](u{i} => t{i})" for i in range(300)]
    results: list[list] = [[] for _ in range(8)]

    def build(out):
        out.extend(parse(t) for t in texts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in results:
        assert len(out) == len(texts)
        assert all(a is b for a, b in zip(out, results[0]))


# The recursive-descent parser `parse` had before its single scan and
# operator-precedence loop, kept as the reference the loop is checked
# against.  It reports an error at the offending token's own start, not
# at the whitespace before it.
_REFERENCE_TOKEN = re.compile(r"\s*(?:(?P<op>\[\]|<>|->|=>|[!@~N#&|()])|(?P<ident>[a-z][a-zA-Z0-9_]*))")
_REFERENCE_PREFIX = {"!": Neg, "@": Circ, "~": CNeg, "N": Nabla, "[]": Box, "<>": Diamond}


def _reference_tokens(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unknown token {stripped[0]!r}", len(text) - len(stripped))
        tok = m.group("op") or m.group("ident")
        tokens.append((tok, m.end() - len(tok)))
        pos = m.end()
    return tokens


class _ReferenceParser:
    def __init__(self, text):
        self.tokens = _reference_tokens(text) + [(None, len(text))]
        self.i = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        self.i += 1
        return tok

    def too_deep(self):
        return ParseError(f"formula nested deeper than {MAX_DEPTH} levels", self.pos())

    def enter(self):
        self.level += 1
        if self.level > MAX_DEPTH:
            raise self.too_deep()

    def build(self, cls, kids, height):
        if height >= MAX_DEPTH:
            raise self.too_deep()
        return cls(*kids), height + 1

    def formula(self):
        left, lh = self.disj()
        if self.peek() in ("->", "=>"):
            op = self.take()
            self.enter()
            right, rh = self.formula()
            self.level -= 1
            return self.build(Imp if op == "->" else ImpL, (left, right), max(lh, rh))
        return left, lh

    def disj(self):
        node, h = self.conj()
        while self.peek() == "|":
            self.take()
            right, rh = self.conj()
            node, h = self.build(Or, (node, right), max(h, rh))
        return node, h

    def conj(self):
        node, h = self.unary()
        while self.peek() == "&":
            self.take()
            right, rh = self.unary()
            node, h = self.build(And, (node, right), max(h, rh))
        return node, h

    def unary(self):
        tok = self.peek()
        if tok in _REFERENCE_PREFIX:
            self.take()
            self.enter()
            child, h = self.unary()
            self.level -= 1
            return self.build(_REFERENCE_PREFIX[tok], (child,), h)
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        if tok == "#":
            self.take()
            return Bottom(), 1
        if tok == "(":
            self.take()
            self.enter()
            inner = self.formula()
            self.level -= 1
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos())
            self.take()
            return inner
        if re.fullmatch(r"[a-z][a-zA-Z0-9_]*", tok):
            self.take()
            return Atom(tok), 1
        raise ParseError(f"unexpected token {tok!r}", self.pos())


def reference_parse(text):
    p = _ReferenceParser(text)
    node, _ = p.formula()
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r}", p.pos())
    return node


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return str(exc), exc.pos


def _assert_parsers_agree(texts):
    for text in texts:
        want, got = _outcome(reference_parse, text), _outcome(parse, text)
        assert got is want if isinstance(want, Formula) else got == want, text


@pytest.mark.parametrize("text, message, pos", [
    ("p q", "trailing input 'q'", 2),
    ("  ->p", "unexpected token '->'", 2),
    ("p &", "unexpected end of input", 3),
    ("p &   ", "unexpected end of input", 6),
    ("(p  q)", "expected ')'", 4),
    ("(p", "expected ')'", 2),
    ("p\t)", "trailing input ')'", 2),
    ("p $ q", "unknown token '$'", 2),
    ("p q $", "unknown token '$'", 4),
    ("!  Q", "unknown token 'Q'", 3),
])
def test_parse_errors_point_at_the_offending_token(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos)
    assert _outcome(reference_parse, text) == (str(err.value), pos)


def test_parse_reports_the_depth_error_where_nesting_fails():
    with pytest.raises(ParseError) as err:
        parse("!" * 1000 + "p")
    assert err.value.pos == MAX_DEPTH + 1  # at the token after the 101st '!'
    with pytest.raises(ParseError) as err:
        parse(" & ".join(["p"] * 1000))
    assert err.value.pos == 4 * MAX_DEPTH + 2  # the '&' after the 101st p


# Tokens of the concrete syntax, near misses of its operators, characters
# it has no token for, and whitespace, a no-break space among it.
_ALPHABET = (
    ["!", "@", "~", "N", "#", "&", "|", "->", "=>", "[]", "<>", "(", ")"] * 3
    + ["p", "q", "r", "p1", "pN", "x_Y"] * 3
    + ["-", "=", ">", "<", "[", "]", "$", "A", "0", "_", "é"]
    + [" ", "  ", "\t", "\n", " ", ""]
)


def _random_text(rng, depth):
    """A formula's text with random spacing and parentheses."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["p", "q", "r", "#", "p1"])
    sp = rng.choice(["", " ", "  ", "\t"])
    if rng.random() < 0.4:
        text = rng.choice(["!", "@", "~", "N", "[]", "<>"]) + sp + _random_text(rng, depth - 1)
    else:
        op = rng.choice(["&", "|", "->", "=>"])
        text = _random_text(rng, depth - 1) + sp + op + sp + _random_text(rng, depth - 1)
    return f"({sp}{text}{sp})" if rng.random() < 0.3 else text


def test_parse_matches_the_reference_on_seeded_strings():
    rng = random.Random(14)
    texts = []
    for k in range(200_000):
        if k % 2:
            texts.append("".join(rng.choices(_ALPHABET, k=rng.randint(0, 12))))
            continue
        text = _random_text(rng, rng.randint(0, 4))
        if rng.random() < 0.5:  # one token inserted, deleted or replaced
            at = rng.randint(0, len(text))
            cut = rng.choice([0, 0, 1, 2])
            text = text[:at] + rng.choice(_ALPHABET) + text[at + cut:]
        texts.append(text)
    _assert_parsers_agree(texts)


def test_parse_matches_the_reference_on_the_benchmark_and_ac12_corpora():
    import sys
    from pathlib import Path

    from manylogic.verify import AC12_SEED, AC12_SEQUENT_COUNT, make_sequents

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import consequence_corpus
    finally:
        sys.path.pop(0)
    texts = []
    for seed in range(4):
        for item in consequence_corpus(seed):
            texts += item["premise_texts"] + [item["conclusion_text"]]
    for allow_or in (True, False):
        for premises, conclusion in make_sequents(AC12_SEQUENT_COUNT, AC12_SEED, allow_or):
            texts += [to_text(f) for f in premises + [conclusion]]
    _assert_parsers_agree(texts)


@pytest.mark.parametrize("shape", SHAPES)
def test_parse_matches_the_reference_at_the_depth_cap(shape):
    _assert_parsers_agree([SHAPES[shape](d) for d in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 1000)])
