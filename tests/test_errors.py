"""The typed-error contract: every refusal of bad content is a
`ManylogicError` (a `ValueError`), a wrong argument type is a `TypeError`,
and nothing else comes out of a public entry point, checked by seeded
fuzzing of directly built objects and junk arguments."""

from collections import Counter
from pathlib import Path
from random import Random

import pytest

import manylogic
from manylogic import bivaluations, cli, frames, lattices, logics, models, syntax, values
from manylogic.frames import SCHEMAS
from manylogic.logics import LOGICS
from manylogic.models import Frame, Model
from manylogic.syntax import parse
from manylogic.values import ManylogicError, Value as V

TYPED_ERRORS = (
    syntax.ParseError,
    syntax.ModalFormulaError,
    lattices.LatticeError,
    logics.LogicError,
    logics.TooManyAtomsError,
    bivaluations.DomainError,
    bivaluations.ClosureTooLargeError,
    bivaluations.ReadingError,
    models.ModelFormatError,
    frames.BudgetError,
    values.SnapshotError,
    cli.InputError,
)


@pytest.mark.parametrize("cls", TYPED_ERRORS, ids=lambda c: c.__name__)
def test_every_typed_error_is_a_manylogic_error(cls):
    assert issubclass(cls, ManylogicError)
    assert issubclass(cls, ValueError)


def test_the_base_class_is_exported():
    assert manylogic.ManylogicError is ManylogicError
    assert "ManylogicError" in manylogic.__all__


K3 = LOGICS["K3"]
P = parse("p")


@pytest.mark.parametrize("call, message", [
    (lambda: Model(("w1",), frozenset(), {"w1": "K3"}, None), "expected a mapping as the valuation, got NoneType"),
    (lambda: Model(("w1",), None, {"w1": "K3"}, {}), "expected a collection of pairs as the relation, got NoneType"),
    (lambda: Model(("w1",), frozenset(), None, {}), "expected a mapping as the logics, got NoneType"),
    (lambda: Model(("w1",), frozenset(), {"w1": "K3"}, {"w1": "p"}),
     "expected a mapping as a world's valuation, got str"),
    (lambda: Frame(None, frozenset(), {}), "expected a collection of worlds, got NoneType"),
    # a str or bytes is a collection too, of one-character worlds or pairs
    (lambda: Model("w1", frozenset(), {"w1": "K3"}, {}), "expected a collection of worlds, got str"),
    (lambda: Model(("w1",), "w1", {"w1": "K3"}, {}), "expected a collection of pairs as the relation, got str"),
    (lambda: Frame(("a", "b"), "ab", {"a": "K3", "b": "K3"}), "expected a collection of pairs as the relation, got str"),
    (lambda: Frame(b"ab", frozenset(), {}), "expected a collection of worlds, got bytes"),
    (lambda: logics.evaluate("K3", P, {"p": V.n}), "expected a MatrixLogic, got str"),
    (lambda: logics.matrix_consequence("K3", [], P), "expected a MatrixLogic, got str"),
    (lambda: logics.apply("K3", "neg", [V.n]), "expected a MatrixLogic, got str"),
    (lambda: logics.truth_table("K3", "neg"), "expected a MatrixLogic, got str"),
    (lambda: bivaluations.biv_consequence("K3", [], P), "expected a MatrixLogic, got str"),
    (lambda: bivaluations.check_clauses("K3", {P: 1}), "expected a MatrixLogic, got str"),
    (lambda: bivaluations.correspondence_check("K3"), "expected a MatrixLogic, got str"),
    (lambda: bivaluations.snapshot_of({P: 1}, "p"), "expected a Formula, got str"),
    (lambda: bivaluations.check_clauses(K3, {"p": 1}), "expected a Formula, got str"),
    (lambda: frames.sweep_schema(None, 1, ("K3",)), "expected an AxiomSchema, got NoneType"),
    (lambda: frames.sample_schema(None, 1, ("K3",)), "expected an AxiomSchema, got NoneType"),
    (lambda: frames.sweep_schema(frames.AxiomSchema("X", "p", ("p",)), 1, ("K3",)), "expected a Formula, got str"),
    # an unhashable atom failed in the set comparison, and (1,) or ("p", None) were refused as the wrong atoms
    (lambda: frames.sweep_schema(frames.AxiomSchema("X", P, (["p"],)), 1, ("K3",)),
     "expected a str as a schema atom, got list"),
    (lambda: frames.sample_schema(frames.AxiomSchema("X", P, ({"p"},)), 1, ("K3",)),
     "expected a str as a schema atom, got set"),
    (lambda: frames.axiom_valid_on_frame(Frame(("w1",), frozenset(), {"w1": "K3"}),
                                         frames.AxiomSchema("X", P, (["p"],))),
     "expected a str as a schema atom, got list"),
    (lambda: frames.sweep_schema(frames.AxiomSchema("X", P, (1,)), 1, ("K3",)),
     "expected a str as a schema atom, got int"),
    (lambda: frames.sweep_schema(frames.AxiomSchema("X", P, ("p", None)), 1, ("K3",)),
     "expected a str as a schema atom, got NoneType"),
    # atoms that are not a collection failed on iterating them, and a str was read one atom per character
    (lambda: frames.sweep_schema(frames.AxiomSchema("X", P, None), 1, ("K3",)),
     "expected a collection of atom names as the schema atoms, got NoneType"),
    (lambda: frames.sample_schema(frames.AxiomSchema("X", P, 5), 1, ("K3",)),
     "expected a collection of atom names as the schema atoms, got int"),
    (lambda: frames.sweep_schema(frames.AxiomSchema("X", parse("p & q"), "pq"), 1, ("K3",)),
     "expected a collection of atom names as the schema atoms, got str"),
    (lambda: frames.axiom_valid_on_frame(None, SCHEMAS["T"]), "expected a Frame, got NoneType"),
    (lambda: frames.axiom_valid_on_frame(Frame(("w1",), frozenset(), {"w1": "K3"}), None),
     "expected an AxiomSchema, got NoneType"),
    # the variant and budget of an older signature, in the places of the sample count and seed
    (lambda: frames.axiom_valid_on_frame(Frame(("w1",), frozenset(), {"w1": "K3"}), SCHEMAS["T"], "up", "sampled"),
     "expected an int as a sample count, got str"),
    (lambda: frames.frame_properties(None), "expected a Frame, got NoneType"),
    (lambda: bivaluations.satisfying_assignments(K3, [P], limit="x"), "expected an int as a node limit, got str"),
    (lambda: bivaluations.satisfying_assignments(K3, [P], limit=True), "expected an int as a node limit, got bool"),
    (lambda: syntax.parse(b"p"), "expected a str, got bytes"),
    (lambda: syntax.parse(None), "expected a str, got NoneType"),
    (lambda: models.validate(None), "expected a Model, got NoneType"),
    (lambda: syntax.Neg(5), "expected a Formula, got int"),
], ids=lambda x: x if isinstance(x, str) else "")
def test_a_wrong_argument_type_is_a_type_error_naming_what_was_expected(call, message):
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == message


def _public_calls() -> dict:
    """Arguments each public function accepts, each cheap to run."""
    n3w = lattices.LATTICES["N3w"]
    frame = Frame(("w1",), frozenset({("w1", "w1")}), {"w1": "K3"})
    model = Model(("w1",), frozenset({("w1", "w1")}), {"w1": "K3"}, {"w1": {"p": V.n}})
    fixtures = Path(__file__).resolve().parent.parent / "src" / "manylogic" / "fixtures"
    return {
        "apply": (K3, "neg", [V.n]),
        "axiom_valid_on_frame": (frame, SCHEMAS["T"], 5, 0),
        "biv_consequence": (K3, [P], P, "printed"),
        "check_clauses": (K3, {P: 1}, "printed"),
        "correspondence_check": (LOGICS["CLW"], "printed"),
        "desugar": (P,),
        "down_interpret": (V.n, n3w),
        "eval_formula": (model, "w1", P),
        "frame_properties": (frame,),
        "holds": (model, "w1", P),
        "load_frame": (str(fixtures / "euclid3.json"),),
        "load_model": (str(fixtures / "ex1.json"),),
        "matrix_consequence": (K3, [P], P),
        "parse": ("p",),
        "snapshot_of": ({P: 1, syntax.Neg(P): 0, syntax.Circ(P): 1}, P),
        "subformula_closure": ([P],),
        "theorem_suite": (("K3",), ("K3",), 20, 0),
        "to_text": (P,),
        "truth_table": (K3, "neg"),
        "up_interpret": (V.n, n3w),
        "validate": (model,),
        "verify_lattice_laws": (n3w,),
    }


def test_every_public_function_refuses_a_wrong_argument_type_with_a_typed_error():
    # one argument at a time, then all, is junk; a str where a str belongs
    # is refused as bad content or accepted, and a path names no file
    calls = _public_calls()
    assert set(calls) == {name for name in manylogic.__all__ if type(getattr(manylogic, name)).__name__ == "function"}
    for name, args in calls.items():
        fn = getattr(manylogic, name)
        fn(*args)
        for junk in ("p", None, 7, b"p", object(), ["p"], {"p": 1}):
            for i in range(len(args) + 1):
                wrong = [junk] * len(args) if i == len(args) else [*args[:i], junk, *args[i + 1:]]
                try:
                    fn(*wrong)
                except (TypeError, ManylogicError):
                    pass
                except OSError:
                    assert name in ("load_frame", "load_model"), (name, wrong)


def test_relation_ends_of_mixed_types_are_validation_errors():
    # pairs whose ends mix str and int are sorted for the report, not compared
    model = Model(("w1",), frozenset({("w1", 5), ("w1", "w9")}), {"w1": "K3"}, {})
    assert models.validate(model).errors == ("relation names unknown world 'w9'", "relation names unknown world 5")
    with pytest.raises(models.ModelFormatError, match="^invalid model: relation names unknown world 'w9'; "):
        models.eval_formula(model, "w1", parse("p"))


def test_an_atom_key_that_is_not_a_string_is_a_validation_error():
    # only str atoms reach the missing-atoms warning, whose text joins them
    model = Model(("w1", "w2"), frozenset(), {"w1": "K3", "w2": "K3"}, {"w1": {1: V.T0}})
    report = models.validate(model)
    assert report.errors == ("valuation('w1',1): 1 is not an atom name",)
    assert report.warnings == ()
    with pytest.raises(models.ModelFormatError, match=r"^invalid model: valuation\('w1',1\): 1 is not an atom name$"):
        models.eval_formula(model, "w2", parse("p"))


@pytest.mark.parametrize("val", (1.0, True, 1), ids=repr)
def test_a_valuation_value_that_is_not_a_value_is_a_validation_error(val):
    # 1 and True equal the code of T0, and 1.0 hashes like it: each would
    # pass a membership test in the lattice, so the type is checked first
    model = Model(("w1",), frozenset(), {"w1": "K3"}, {"w1": {"p": val}})
    report = models.validate(model)
    assert report.errors == (f"valuation('w1','p') = {val!r} is not a Value",)
    with pytest.raises(models.ModelFormatError, match=r"^invalid model: valuation\('w1','p'\) = .* is not a Value$"):
        models.eval_formula(model, "w1", parse("p"))
    with pytest.raises(models.ModelFormatError):
        models.holds(model, "w1", parse("[]p"))


def test_models_and_frames_built_from_lists_hash_and_compare_like_tuple_built_ones():
    row = {"w1": {"p": V.T0}}
    for build, extra in ((Model, (row,)), (Frame, ())):
        listed = build(["w1"], [("w1", "w1")], {"w1": "K3"}, *extra)
        tupled = build(("w1",), frozenset({("w1", "w1")}), {"w1": "K3"}, *extra)
        assert (listed.worlds, listed.relation) == (("w1",), frozenset({("w1", "w1")}))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert {listed, tupled} == {tupled} and listed in {tupled}
    assert models.eval_formula(Model(["w1"], [], {"w1": "K3"}, row), "w1", parse("[]!p")) == V.T0  # K3's top


@pytest.mark.parametrize("worlds, relation", [((["a"],), ()), (("a",), [("a", ["a"])])], ids=("world", "pair"))
def test_an_unhashable_world_name_or_relation_entry_is_a_type_error(worlds, relation):
    with pytest.raises(TypeError, match=r"^world names and relation entries must be hashable: unhashable type: 'list'$"):
        Model(worlds, relation, {}, {})


def test_a_value_is_checked_at_a_world_with_an_unknown_logic_too():
    model = Model(("w1",), frozenset(), {"w1": "K4"}, {"w1": {"p": 1}})
    assert models.validate(model).errors == (
        "world 'w1' has unknown logic 'K4'", "valuation('w1','p') = 1 is not a Value",
    )


# ------------------------------------------------------------------ fuzz

_JUNK = (None, 5, -1, 2.5, True, "", "w1", "K3", "p", "[]p", (), [], {}, ("w1",), ["w1", "w2"],
         {"w1": None}, frozenset({("w1", "w1")}), V.b, object())


def _junk(rng: Random):
    return rng.choice(_JUNK)


def _name(rng: Random):
    """A world name: mostly one of the two a model declares."""
    return rng.choice(("w1", "w2")) if rng.random() < 0.85 else rng.choice(("w9", 1, None, "", ("w1",)))


def _junk_model(rng: Random) -> dict:
    """Constructor arguments for a two-world Model, each part well-formed
    or not, and each part's junk either a defect validation reports or a
    wrong type the constructor refuses."""
    worlds = ("w1", "w2") if rng.random() < 0.7 else tuple(_name(rng) for _ in range(rng.randint(0, 3)))
    relation = frozenset(
        (_name(rng), _name(rng)) if rng.random() < 0.9 else rng.choice(((_name(rng),), ("w1",) * 3, 5, "ab"))
        for _ in range(rng.randint(0, 4))
    )
    logics = {w: rng.choice(("K3", "LETK", "LP")) if rng.random() < 0.9 else rng.choice(("K4", None, 3))
              for w in worlds}
    valuation = {
        w: {rng.choice(("p", "q")) if rng.random() < 0.9 else rng.choice((1, None)):
            rng.choice(LOGICS[lid].lattice.elements) if lid in LOGICS and rng.random() < 0.9
            else rng.choice((*V, "T", 7, None, 1.0, True, 1))}
        for w, lid in logics.items()
    }
    diamond = rng.choice(("up", "down", "negbox", "cnegbox")) if rng.random() < 0.9 else rng.choice(("x", None))
    kw = dict(worlds=worlds, relation=relation, logics=logics, valuation=valuation, diamond=diamond)
    if rng.random() < 0.1:  # one part of the wrong type
        part = rng.choice(("worlds", "relation", "logics", "valuation"))
        kw[part] = rng.choice({
            "valuation": (None, 5, {"w1": None}, {"w1": "pq"}, {"w1": [("p", V.n)]}),
            "relation": (None, 5, [("w1", "w1")], [["w1", []]], "w1"),
        }.get(part, _JUNK))
    return kw


_FORMULAS = ("p", "[]p", "<>q & p", "[](p -> q) -> ([]p -> []q)", "!@p", "#")


def _outcome(call) -> str:
    """What a call came to: a value, a typed refusal or a TypeError; any
    other exception propagates and fails the test."""
    try:
        call()
    except ManylogicError:
        return "refused"
    except TypeError:
        return "wrong type"
    return "answered"


def test_fuzzed_models_and_frames_raise_only_typed_errors():
    rng = Random(16)
    seen = Counter()
    valid = 0
    for _ in range(1500):
        kw = _junk_model(rng)
        frame_kw = {k: kw[k] for k in ("worlds", "relation", "logics", "diamond")}
        try:
            model, frame = Model(**kw), Frame(**frame_kw)
        except TypeError:
            seen["not built"] += 1
            continue
        # once the constructor accepts its arguments, validation reports
        # every defect and raises nothing
        ok = models.validate(model).ok
        valid += ok
        models.validate_frame(frame)
        f = parse(rng.choice(_FORMULAS)) if rng.random() < 0.9 else _junk(rng)
        world = _name(rng)
        schema = SCHEMAS[rng.choice(tuple(SCHEMAS))]
        samples = rng.choice((None, 50, None))  # exhaustive, sampled, exhaustive
        diamond = rng.choice(("up", "down", "x"))
        for call in (lambda: models.eval_formula(model, world, f), lambda: models.holds(model, world, f)):
            outcome = _outcome(call)
            seen[outcome] += 1
            # a model that validates answers a formula or refuses the world
            assert not (ok and isinstance(f, syntax.Formula) and outcome == "wrong type"), kw
        for call in (
            lambda: frames.frame_properties(frame),
            lambda: frames.axiom_valid_on_frame(frame._replace(diamond=diamond), schema, samples, 1),
        ):
            seen[_outcome(call)] += 1
    assert valid and len(seen) == 4, (valid, seen)  # every outcome was reached


def _pick(rng: Random, good):
    """A well-formed value most of the time, junk otherwise."""
    return rng.choice(good) if rng.random() < 0.7 else _junk(rng)


def _entry_calls(rng: Random):
    """Calls of the logics, bivaluations and frames entry points on
    arguments that are well-formed or junk; sweeps stay at one or two
    worlds, and the suite runs only on a junk logic set, so each call is
    cheap."""
    logic = _pick(rng, tuple(LOGICS.values()))
    f, g = (_pick(rng, tuple(map(parse, ("p", "q & !p", "@p -> q", "[]p")))) for _ in range(2))
    premises = _pick(rng, ([], [f], (f, g), [f, "p"]))
    assignment = _pick(rng, ({"p": V.n}, {"p": V.T, "q": V.F0}, {"p": "T"}, {}))
    yield lambda: logics.apply(logic, _pick(rng, ("and", "neg", "imp", "nope")), _pick(rng, ([V.n], [V.T, V.F], [7])))
    yield lambda: logics.truth_table(logic, _pick(rng, ("and", "circ", "nope")))
    yield lambda: logics.evaluate(logic, f, assignment)
    yield lambda: logics.matrix_consequence(logic, premises, g)
    reading = _pick(rng, ("printed", "corrected", "other"))
    yield lambda: bivaluations.biv_consequence(logic, premises, g, reading)
    rho = _pick(rng, ({P: 1}, {P: 1, syntax.Neg(P): 0, syntax.Circ(P): 1}, {P: 2}, {syntax.Neg(P): 1}))
    yield lambda: bivaluations.check_clauses(logic, rho, reading)
    yield lambda: bivaluations.satisfying_assignments(logic, _pick(rng, ([P], [syntax.Neg(P)], [5])), reading)
    yield lambda: bivaluations.snapshot_of(rho, f)
    if not isinstance(logic, logics.MatrixLogic) or reading not in bivaluations.V14_READINGS:
        yield lambda: bivaluations.correspondence_check(logic, reading)
    schema = _pick(rng, tuple(SCHEMAS.values()))
    ids = rng.choice((("K3", "LP"), (), ("K4",), None, [[]], "K3", (None,), [5]))
    n = _pick(rng, (1, 2))
    variant = _pick(rng, ("up", "down", "negbox"))
    yield lambda: frames.sweep_schema(schema, n, ids, variant)
    yield lambda: frames.sample_schema(schema, n, ids, variant, samples=_pick(rng, (20, 0, 10**9)),
                                       seed=_pick(rng, (0, 3)))
    yield lambda: frames.five_c_characterization(ids, max_worlds=_pick(rng, (1, 4)))
    yield lambda: frames.duality_check(ids)
    if ids != ("K3", "LP"):
        yield lambda: frames.theorem_suite(ids, ids, samples=_pick(rng, (20, -3)), seed=_pick(rng, (0, None)))


def test_fuzzed_entry_points_raise_only_typed_errors():
    rng = Random(16)
    seen = Counter()
    for _ in range(600):
        for call in _entry_calls(rng):
            seen[_outcome(call)] += 1
    assert len(seen) == 3, seen  # every outcome was reached


# ------------------------------------------------------------ deep formulas
# Built directly, past parse's MAX_DEPTH and five times Python's default
# recursion limit: each chain gets a value or a typed error, never a
# RecursionError.

DEEP = 5000
_STEPS = {
    "!": syntax.Neg,
    "@": syntax.Circ,
    "~": syntax.CNeg,
    "N": syntax.Nabla,
    "p => (p => ...)": lambda f: syntax.ImpL(P, f),
    "((...) => p) => p": lambda f: syntax.ImpL(f, P),
    "[]!<>": None,  # box, negation and diamond in turn
}


def _deep_chain(step):
    f = P
    for i in range(DEEP):
        f = step(f) if step else (syntax.Box, syntax.Neg, syntax.Diamond)[i % 3](f)
    return f


@pytest.mark.parametrize("name", _STEPS)
def test_deep_chains_get_a_value_or_a_typed_error(name):
    import copy

    f = _deep_chain(_STEPS[name])
    assert syntax.desugar(f) is syntax.desugar(syntax.desugar(f))
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    calls = [
        lambda: logics.evaluate(K3, f, {"p": V.T0}),
        lambda: logics.matrix_consequence(K3, [], f),
    ]
    if name in ("!", "~", "[]!<>"):  # each closure is built before it is refused
        calls.append(lambda: bivaluations.biv_consequence(K3, [], f))
    for variant in models.DIAMOND_VARIANTS:
        model = Model(("u", "v"), {("u", "v"), ("v", "v")}, {"u": "LETK", "v": "K3"},
                      {"u": {"p": V.b}, "v": {"p": V.T0}}, variant)
        calls.append(lambda model=model: models.eval_formula(model, "u", f))
    outcomes = [_outcome(call) for call in calls]
    assert "wrong type" not in outcomes, outcomes


def test_a_modal_formula_is_named_by_its_text_up_to_the_bound_and_by_its_size_past_it():
    # the refusal rendered the whole formula: a 5,000-deep ! chain over []p
    # raised RecursionError from all three calls
    bound = syntax.MAX_NAMED_SIZE
    for size in (bound, bound + 1, bound + DEEP):
        f = syntax.Box(P)
        while f._size < size:
            f = syntax.Neg(f)
        named = "!" * (bound - 2) + "[]p" if size == bound else f"a formula of {size} nodes"
        for call in (
            lambda: logics.evaluate(K3, f, {"p": V.T0}),
            lambda: logics.matrix_consequence(K3, [], f),
            lambda: bivaluations.biv_consequence(K3, [P], f),
        ):
            with pytest.raises(syntax.ModalFormulaError) as err:
                call()
            assert str(err.value) == f"modal operator in {named}", size
