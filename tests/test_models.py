import collections
import copy
import json
import pickle
import re
from itertools import product
from random import Random

import pytest

from manylogic import syntax
from manylogic.lattices import L6, MASK
from manylogic.logics import LOGIC_IDS, LOGICS, apply
from manylogic.models import (
    DIAMOND_VARIANTS,
    Frame,
    Model,
    ModelFormatError,
    ValidationReport,
    eval_formula,
    holds,
    load_model,
    model_from_dict,
    model_to_dict,
    validate,
)
from manylogic.syntax import (
    And, Atom, Bottom, Box, Circ, CNeg, Diamond, Imp, ImpL, Nabla, Neg, Or, modal_depth, parse,
)
from manylogic.values import Value as V


def mk(worlds, logics, relation, valuation, diamond="up"):
    return Model(
        tuple(worlds),
        frozenset(tuple(p) for p in relation),
        dict(logics),
        {w: {a: v for a, v in row.items()} for w, row in valuation.items()},
        diamond,
    )


def test_fixture_values(fixtures):
    expected = {
        ("ex1.json", "w1", "[]p"): V.b,
        ("ex2.json", "w1", "[]p"): V.F0,
        ("ex3.json", "w2", "[]p"): V.F0,
        ("ex3.json", "w3", "[]p"): V.F,
        ("ex3.json", "w2", "[]q"): V.F0,
        ("ex3.json", "w3", "[]q"): V.n,
        ("ex4.json", "w1", "[]p"): V.F0,
        ("ex4.json", "w4", "[]p"): V.F0,
        ("ex4.json", "w7", "[]p"): V.T0,
        ("sec2.json", "w1", "[]p"): V.b,
        ("sec2.json", "w2", "[]p"): V.b,
        ("sec2.json", "w3", "[]p"): V.F0,
    }
    for (name, world, text), want in expected.items():
        model = load_model(fixtures / name)
        assert validate(model).ok
        assert eval_formula(model, world, parse(text)) == want, (name, world, text)


def test_fixture_designation(fixtures):
    m1 = load_model(fixtures / "ex1.json")
    assert holds(m1, "w1", parse("[]p"))
    nec = load_model(fixtures / "nec-fail.json")
    f = parse("[](p -> (p | q))")
    assert not holds(nec, "w1", f)
    assert eval_formula(nec, "w1", f) == V.F0
    # the unmodalised formula holds at every world of the fixture
    for w in nec.worlds:
        assert holds(nec, w, parse("p -> (p | q)"))


def test_every_world_designates_identity_implication(fixtures):
    for name in ("ex1.json", "ex2.json", "ex3.json", "ex4.json", "sec2.json"):
        model = load_model(fixtures / name)
        for w in model.worlds:
            assert holds(model, w, parse("p -> p"))


def test_reflexive_singleton_box_is_identity():
    for lid in LOGIC_IDS:
        for x in LOGICS[lid].lattice.elements:
            model = mk(["w"], {"w": lid}, [("w", "w")], {"w": {"p": x}})
            assert eval_formula(model, "w", parse("[]p")) == x


def test_dead_end_conventions():
    model = mk(["w"], {"w": "LJ4"}, [], {"w": {"p": V.b}})
    assert eval_formula(model, "w", parse("[]p")) == LOGICS["LJ4"].lattice.top
    assert eval_formula(model, "w", parse("<>p")) == LOGICS["LJ4"].lattice.bottom
    down = mk(["w"], {"w": "LJ4"}, [], {"w": {"p": V.b}}, diamond="down")
    assert eval_formula(down, "w", parse("<>p")) == LOGICS["LJ4"].lattice.bottom


def test_missing_atom_defaults_to_bottom_with_warning():
    model = mk(["w1", "w2"], {"w1": "LETK", "w2": "FDE"}, [("w1", "w2")], {"w1": {"p": V.T}})
    report = validate(model)
    assert report.ok
    assert any("w2" in w and "p" in w for w in report.warnings)
    assert eval_formula(model, "w2", parse("p")) == V.F0
    assert eval_formula(model, "w1", parse("[]p")) == V.F0


def test_validation_errors():
    bad_value = mk(["w"], {"w": "J3"}, [], {"w": {"p": V.n}})
    report = validate(bad_value)
    assert not report.ok and any("n" in e and "B3s" in e for e in report.errors)
    bad_rel = mk(["w"], {"w": "J3"}, [("w", "v")], {})
    assert any("unknown world" in e for e in validate(bad_rel).errors)
    bad_logic = mk(["w"], {"w": "XXX"}, [], {})
    assert not validate(bad_logic).ok


def test_json_strictness(fixtures):
    data = json.loads((fixtures / "ex1.json").read_text())
    data["note"] = "boom"
    with pytest.raises(ModelFormatError):
        model_from_dict(data)
    del data["note"]
    data["valuation"]["w1"]["p"] = "X"
    with pytest.raises(ModelFormatError):
        model_from_dict(data)
    del data["valuation"]
    with pytest.raises(ModelFormatError):
        model_from_dict(data)


def test_json_roundtrip(fixtures):
    model = load_model(fixtures / "ex4.json")
    again = model_from_dict(model_to_dict(model))
    assert again.worlds == model.worlds
    assert again.relation == model.relation
    assert again.valuation == model.valuation
    assert again.diamond == model.diamond


def test_strong_negation_rewrites():
    # all worlds in the strong four-valued logic, p contradictory everywhere
    worlds = ["w1", "w2"]
    rel = [(a, b) for a in worlds for b in worlds]
    model = mk(worlds, {w: "LJ4" for w in worlds}, rel, {w: {"p": V.b} for w in worlds})
    for w in worlds:
        assert eval_formula(model, w, parse("~p")) == V.F
        assert eval_formula(model, w, parse("~[]~p")) == V.T


def test_diamond_variant_comparison(fixtures):
    model = load_model(fixtures / "diamond-compare.json")
    assert model.diamond == "down"
    assert eval_formula(model, "w1", parse("<>p")) == V.F0
    assert eval_formula(model, "w1", parse("![]!p")) == V.T0
    # the mirrored setup (weak four-valued world watching a Kleene world
    # with an undetermined atom) gives the same value on both sides
    mirror = mk(["w1", "w2"], {"w1": "FDE", "w2": "K3"}, [("w1", "w2")],
                {"w1": {"p": V.F0}, "w2": {"p": V.n}}, diamond="down")
    assert eval_formula(mirror, "w1", parse("<>p")) == V.n
    assert eval_formula(mirror, "w1", parse("![]!p")) == V.n


def test_negbox_variant_matches_rewrite(fixtures):
    base = load_model(fixtures / "ex1.json")
    negbox = Model(base.worlds, base.relation, base.logics, base.valuation, "negbox")
    for w in base.worlds:
        assert eval_formula(negbox, w, parse("<>p")) == eval_formula(base, w, parse("![]!p"))
    cneg = Model(base.worlds, base.relation, base.logics, base.valuation, "cnegbox")
    for w in base.worlds:
        assert eval_formula(cneg, w, parse("<>p")) == eval_formula(base, w, parse("~[]~p"))


def test_homogeneous_down_diamond_is_dual_exhaustively():
    # two worlds sharing one logic: the sup-based diamond equals !box!
    worlds = ("w1", "w2")
    rels = [
        frozenset(r)
        for r in [
            [], [("w1", "w1")], [("w1", "w2")], [("w1", "w1"), ("w1", "w2")],
            [("w1", "w2"), ("w2", "w1")],
            [(a, b) for a in worlds for b in worlds],
        ]
    ]
    for lid in LOGIC_IDS:
        lat = LOGICS[lid].lattice
        for rel in rels:
            for x1, x2 in product(lat.elements, repeat=2):
                model = mk(worlds, {w: lid for w in worlds}, rel,
                           {"w1": {"p": x1}, "w2": {"p": x2}}, diamond="down")
                for w in worlds:
                    assert eval_formula(model, w, parse("<>p")) == eval_formula(
                        model, w, parse("![]!p")
                    )


def test_box_via_base_lattice_identity():
    # box = down-interpreted base-lattice meet of the successor values
    rng_worlds = ("w1", "w2", "w3")
    rels = [
        frozenset([("w1", "w2"), ("w2", "w3")]),
        frozenset([("w1", "w1"), ("w1", "w2"), ("w1", "w3")]),
        frozenset(),
        frozenset((a, b) for a in rng_worlds for b in rng_worlds),
    ]
    assignments = [
        ("LETK", "K3", "LJ4"),
        ("CLW", "LETK", "FDE"),
        ("J3", "L3", "LP"),
    ]
    texts = ("p", "!p", "@p", "p & !p")
    for rel in rels:
        for logics_row in assignments:
            logic_map = dict(zip(rng_worlds, logics_row))
            values = [LOGICS[l].lattice.elements[0] for l in logics_row]
            combos = product(*[LOGICS[l].lattice.elements for l in logics_row])
            for combo in list(combos)[::3]:
                valuation = {w: {"p": v} for w, v in zip(rng_worlds, combo)}
                model = mk(rng_worlds, logic_map, rel, valuation)
                for text in texts:
                    f = parse(text)
                    for w in rng_worlds:
                        inner = [
                            eval_formula(model, u, f) for u in model.successors(w)
                        ]
                        lat = model.logic(w).lattice
                        want = lat.down(L6.meet_set(inner))
                        got = eval_formula(model, w, parse(f"[]({text})"))
                        assert got == want


def test_evaluation_is_local_to_reachable_worlds():
    worlds = ("w1", "w2", "w3")
    rel = frozenset([("w1", "w2")])  # w3 unreachable from w1
    logic_map = {"w1": "LETK", "w2": "FDE", "w3": "J3"}
    base = mk(worlds, logic_map, rel, {"w1": {"p": V.b}, "w2": {"p": V.T0}, "w3": {"p": V.b}})
    f = parse("[](p | !p) -> <>p")
    want = eval_formula(base, "w1", f)
    for other in LOGICS["J3"].lattice.elements:
        tweaked = mk(worlds, logic_map, rel,
                     {"w1": {"p": V.b}, "w2": {"p": V.T0}, "w3": {"p": other}})
        assert eval_formula(tweaked, "w1", f) == want


def test_eval_unknown_world():
    model = mk(["w"], {"w": "FDE"}, [], {"w": {"p": V.b}})
    with pytest.raises(ModelFormatError):
        eval_formula(model, "nope", parse("p"))


def test_frame_files_reject_valuations(fixtures):
    from manylogic.models import frame_from_dict, load_frame

    data = json.loads((fixtures / "ex1.json").read_text())
    with pytest.raises(ModelFormatError):
        frame_from_dict(data)
    frame = load_frame(fixtures / "euclid3.json")
    assert frame.successors("w1") == ("w1", "w2", "w3")
    assert frame.logic("w2").id == "K3"


def test_every_bundled_fixture_loads_as_a_plain_decode_reads_it(fixtures):
    from manylogic.models import frame_from_dict, load_frame, model_from_dict

    for path in sorted(fixtures.glob("*.json")):
        data = json.loads(path.read_text())
        if "valuation" in data:
            assert load_model(path) == model_from_dict(data), path.name
        else:
            assert load_frame(path) == frame_from_dict(data), path.name


def test_files_that_do_not_decode_are_model_format_errors(tmp_path):
    # a library caller used to get UnicodeDecodeError, JSONDecodeError or
    # RecursionError, whichever the decoder raised
    from manylogic.models import load_frame

    cases = {
        "utf16.json": (b"\xff\xfe" + '{"worlds": []}'.encode("utf-16-le"), "can't decode byte 0xff"),
        "cut.json": (b'{"worlds": [', "^Expecting value: line 1 column 13"),
        "deep.json": (b"[" * 1000 + b"]" * 1000, "^maximum recursion depth exceeded while decoding"),
        "twice.json": (b'{"worlds": ["w1"], "worlds": ["w2"]}', "^member 'worlds' appears twice in one object$"),
        "inner.json": (b'{"valuation": {"w1": {"p": "T", "p": "F"}}}', "^member 'p' appears twice"),
        "bom.json": (b'\xef\xbb\xbf{"worlds": []}', r"^Unexpected UTF-8 BOM \(decode using utf-8-sig\): line 1 column 1"),
    }
    for name, (content, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(content)
        for load in (load_model, load_frame):
            with pytest.raises(ModelFormatError, match=message):
                load(path)
    with pytest.raises(FileNotFoundError):  # an unreadable file is the caller's to report
        load_model(tmp_path / "missing.json")


def test_random_models_evaluate_inside_their_world_lattices():
    from random import Random

    from manylogic.models import validate as validate_model

    rng = Random(17)
    texts = ("p", "!p", "[]p", "<>p", "[](p | !p)", "<>~p -> []p", "@p & <>p")
    for _ in range(120):
        n = rng.randint(1, 4)
        worlds = tuple(f"w{i}" for i in range(1, n + 1))
        lids = {w: rng.choice(LOGIC_IDS) for w in worlds}
        rel = frozenset(
            (a, b) for a in worlds for b in worlds if rng.random() < 0.4
        )
        valuation = {
            w: {"p": rng.choice(LOGICS[lids[w]].lattice.elements)} for w in worlds
        }
        variant = rng.choice(("up", "down", "negbox", "cnegbox"))
        model = Model(worlds, rel, lids, valuation, variant)
        assert validate_model(model).ok
        for w in worlds:
            lg = model.logic(w)
            for text in texts:
                value = eval_formula(model, w, parse(text))
                assert value in lg.lattice.members
                assert holds(model, w, parse(text)) == lg.is_designated(value)


def test_successors_match_the_per_world_comprehension():
    # successors must list each world's successors exactly as filtering
    # the whole sorted relation once per world does, dead ends included.
    import random

    from manylogic.models import Frame

    def reference(relation, w):
        return tuple(v for u, v in sorted(relation) if u == w)

    rng = random.Random(11)
    for n in (1, 2, 5, 12, 40):
        worlds = tuple(f"w{i}" for i in rng.sample(range(100), n))
        for density in (0.0, 0.1, 0.5, 1.0):
            relation = frozenset(
                (u, v) for u in worlds for v in worlds if rng.random() < density
            )
            model = Model(worlds, relation, dict.fromkeys(worlds, "K3"), {})
            frame = Frame(worlds, relation | {("x", worlds[0])}, {})
            for w in worlds:
                assert model.successors(w) == reference(relation, w)
                assert frame.successors(w) == reference(relation, w)
                assert model.frame.successors(w) == model.successors(w)
            assert frame.successors("x") == (worlds[0],)
            assert frame.successors("nowhere") == ()
            if density == 0.0:
                assert all(model.successors(w) == () for w in worlds)


# An edge list naming unknown worlds several times, as source and as
# target, and the errors validate reports for it: the edges in sorted
# order, and for each its source then its target when unknown.
UNKNOWN_EDGES = (("zz", "w1"), ("w1", "aa"), ("aa", "zz"), ("zz", "zz"), ("w2", "aa"), ("w1", "w2"))
UNKNOWN_ERRORS = tuple(
    f"relation names unknown world {w!r}" for w in ("aa", "zz", "aa", "aa", "zz", "zz", "zz")
)


def test_validate_names_each_unknown_end_of_each_edge():
    from manylogic.models import validate_frame

    logics = {"w1": "K3", "w2": "FDE"}
    valuation = {w: {"p": LOGICS[lid].lattice.top} for w, lid in logics.items()}
    model = mk(["w1", "w2"], logics, UNKNOWN_EDGES, valuation)
    assert validate(model).errors == UNKNOWN_ERRORS
    frame = Frame(("w1", "w2"), frozenset(UNKNOWN_EDGES), logics)
    assert validate_frame(frame).errors == UNKNOWN_ERRORS
    assert validate_frame(model.frame).errors == UNKNOWN_ERRORS


@pytest.mark.parametrize("entry", (("w1",), ("w1", "w1", "w1"), 5), ids=repr)
def test_a_relation_entry_that_is_not_a_pair_is_a_validation_error(entry):
    # built directly, such a relation used to make validate, eval_formula
    # and axiom_valid_on_frame raise a bare ValueError or TypeError
    from manylogic.frames import SCHEMAS, axiom_valid_on_frame
    from manylogic.models import validate_frame

    error = f"relation entry {entry!r} is not a pair of worlds"
    relation = frozenset({("w1", "w2"), entry, ("w2", "nowhere")})
    logics = {"w1": "K3", "w2": "LP"}
    model = Model(("w1", "w2"), relation, logics, {"w1": {"p": V.n}, "w2": {"p": V.b}})
    assert validate(model).errors == ("relation names unknown world 'nowhere'", error)
    with pytest.raises(ModelFormatError, match=f"^invalid model: .*{re.escape(error)}$"):
        eval_formula(model, "w1", parse("[]p"))
    frame = Frame(("w1", "w2"), frozenset({entry}), logics)
    assert validate_frame(frame).errors == (error,)
    with pytest.raises(ModelFormatError, match=f"^invalid frame: {re.escape(error)}$"):
        axiom_valid_on_frame(frame, SCHEMAS["K"])


def test_world_axis_matches_the_per_world_comprehension():
    # the successor positions built in one pass over the relation must be,
    # as sets, what filtering the sorted relation once per world gives; the
    # tags and tagged atom columns what reading each world's logic and
    # values one at a time gives, a missing atom its world's bottom
    from manylogic.models import _world_axis

    rng = Random(23)
    loops = dead_ends = missing = 0
    for n in range(1, 41):
        worlds = tuple(f"w{i}" for i in rng.sample(range(100), n))
        for density in (0.0, 0.05, 0.25, 0.5, 0.75, 1.0):
            relation = frozenset(
                (u, v) for u in worlds for v in worlds if rng.random() < density
            )
            want = [{worlds.index(v) for u, v in sorted(relation) if u == w} for w in worlds]
            loops += sum(i in succ for i, succ in enumerate(want))
            dead_ends += want.count(set())
            logics = {w: rng.choice(LOGIC_IDS) for w in worlds}
            valuation = {
                w: {a: rng.choice(LOGICS[logics[w]].lattice.elements) for a in "pqr" if rng.random() < 0.7}
                for w in worlds
            }
            tags = bytes(16 * LOGIC_IDS.index(logics[w]) for w in worlds)
            for x in (Model(worlds, relation, logics, valuation), Frame(worlds, relation, logics)):
                index, succs, got_tags, columns = _world_axis(x)
                assert index == {w: i for i, w in enumerate(worlds)} and got_tags == tags
                assert [set(s) for s in succs] == want
                assert sum(map(len, succs)) == len(relation)  # each edge once
                assert _world_axis(x) is x._axis  # built once, kept on x
                atoms = {a for row in getattr(x, "valuation", {}).values() for a in row}
                assert set(columns) == atoms
                for a in atoms:
                    assert type(columns[a]) is bytes
                    assert list(columns[a]) == [
                        tag | MASK[valuation[w].get(a, LOGICS[logics[w]].lattice.bottom)]
                        for w, tag in zip(worlds, tags)
                    ]
                    missing += sum(a not in valuation[w] for w in worlds)
    assert loops and dead_ends and missing


def test_world_axis_refuses_what_validate_rejects():
    from manylogic.models import _world_axis, validate_frame

    model = Model(**_ALL_DEFECTS)
    for x, noun, report in ((model, "model", validate), (model.frame, "frame", validate_frame)):
        with pytest.raises(ModelFormatError) as exc:
            _world_axis(x)
        assert str(exc.value) == f"invalid {noun}: " + "; ".join(report(x).errors)
        assert x._axis is None


def test_valuation_keys_must_be_atom_names(fixtures):
    data = json.loads((fixtures / "ex1.json").read_text())
    for key in ("P", "1p", "p q", "", "N", "[]p"):
        bad = json.loads(json.dumps(data))
        bad["valuation"]["w1"][key] = "T"
        with pytest.raises(ModelFormatError, match="not an atom name"):
            model_from_dict(bad)
    good = json.loads(json.dumps(data))
    good["valuation"]["w1"]["p_2Q"] = "T"
    assert model_from_dict(good).valuation["w1"]["p_2Q"] == V.T


# ------------------------------------------------------------ reference
#
# The recursive, one-world-at-a-time evaluator that eval_formula replaced,
# kept as the reference for the compiled one.


def _atom_value(model, w, name):
    row = model.valuation.get(w, {})
    if name in row:
        return row[name]
    return model.logic(w).lattice.bottom


def reference_eval(model, world, f):
    return _eval(model, world, syntax.desugar(f), {})


def _eval(model, w, f, memo):
    key = (w, f)
    if key in memo:
        return memo[key]
    logic = model.logic(w)
    lat = logic.lattice
    if isinstance(f, syntax.Atom):
        out = _atom_value(model, w, f.name)
    elif isinstance(f, Bottom):
        out = lat.bottom
    elif isinstance(f, Box):
        vals = [
            lat.down(_eval(model, u, f.child, memo)) for u in model.successors(w)
        ]
        out = lat.meet_set(vals)
    elif isinstance(f, Diamond):
        if model.diamond == "negbox":
            out = _eval(model, w, Neg(Box(Neg(f.child))), memo)
        elif model.diamond == "cnegbox":
            out = _eval(model, w, Imp(Box(Imp(f.child, Bottom())), Bottom()), memo)
        else:
            interp = lat.up if model.diamond == "up" else lat.down
            vals = [interp(_eval(model, u, f.child, memo)) for u in model.successors(w)]
            out = lat.join_set(vals)
    elif isinstance(f, syntax.Neg):
        out = apply(logic, "neg", [_eval(model, w, f.child, memo)])
    elif isinstance(f, syntax.Circ):
        out = apply(logic, "circ", [_eval(model, w, f.child, memo)])
    elif isinstance(f, syntax.And):
        out = apply(logic, "and", [_eval(model, w, f.left, memo), _eval(model, w, f.right, memo)])
    elif isinstance(f, syntax.Or):
        out = apply(logic, "or", [_eval(model, w, f.left, memo), _eval(model, w, f.right, memo)])
    elif isinstance(f, syntax.Imp):
        out = apply(logic, "imp", [_eval(model, w, f.left, memo), _eval(model, w, f.right, memo)])
    else:
        raise ModelFormatError(f"cannot evaluate node {type(f).__name__}")
    memo[key] = out
    return out


def _random_formula(rng, size, modal):
    """A formula over p, q, r and # with about `size` connectives and at
    most `modal` nested boxes and diamonds."""
    if size <= 0:
        return rng.choice((Atom("p"), Atom("q"), Atom("r"), Bottom()))
    pick = rng.random()
    if modal and pick < 0.35:
        return rng.choice((Box, Diamond))(_random_formula(rng, size - 1, modal - 1))
    if pick < 0.65:
        return rng.choice((Neg, Circ, CNeg, Nabla))(_random_formula(rng, size - 1, modal))
    split = rng.randrange(size)
    return rng.choice((And, Or, Imp, ImpL))(
        _random_formula(rng, split, modal), _random_formula(rng, size - 1 - split, modal)
    )


def test_eval_formula_agrees_with_the_reference_evaluator():
    # Seeded random models: 1-12 worlds, every logic and diamond variant,
    # dead ends and self-loops, p and q missing at some worlds and r at
    # all.  Each model is queried formula-major and then world-major on
    # the same object (the second pass reads the kept rows), and
    # world-major on a fresh copy.
    rng = Random(41)
    depths, logics_seen, variants_seen = set(), set(), set()
    for trial in range(160):
        n = rng.randint(1, 12)
        worlds = tuple(f"w{i}" for i in range(1, n + 1))
        lids = {w: rng.choice(LOGIC_IDS) for w in worlds}
        density = rng.choice((0.0, 0.15, 0.4, 0.8))
        dead = rng.choice(worlds)
        relation = frozenset(
            (a, b) for a in worlds for b in worlds if a != dead and rng.random() < density
        )
        valuation = {
            w: {a: rng.choice(LOGICS[lids[w]].lattice.elements)
                for a in ("p", "q") if rng.random() < 0.8}
            for w in worlds
        }
        variant = DIAMOND_VARIANTS[trial % len(DIAMOND_VARIANTS)]
        model = Model(worlds, relation, lids, valuation, variant)
        fs = [_random_formula(rng, rng.randint(0, 7), rng.randint(0, 3)) for _ in range(6)]
        want = {(w, f): reference_eval(model, w, f) for f in fs for w in worlds}
        for f in fs:
            for w in worlds:
                assert eval_formula(model, w, f) == want[w, f], (model, w, syntax.to_text(f))
        fresh = Model(worlds, relation, lids, valuation, variant)
        for m in (model, fresh):
            for w in worlds:
                for f in fs:
                    assert eval_formula(m, w, f) == want[w, f], (m, w, syntax.to_text(f))
        depths.update(modal_depth(f) for f in fs)
        logics_seen.update(lids.values())
        variants_seen.add(variant)
    assert depths == {0, 1, 2, 3}
    assert logics_seen == set(LOGIC_IDS) and variants_seen == set(DIAMOND_VARIANTS)


def test_eval_formula_agrees_with_the_reference_evaluator_on_large_mixed_models():
    # Seeded 50-300-world models: the nine logics in turn, out-degrees
    # 0-8 (dead ends included), each diamond variant three times, and p
    # and q missing at some worlds.  The last three worlds are LETK dead
    # ends where p and q are F, so every row below ends in 0 bytes, the
    # top bytes of its int, which to_bytes(n) must pad back.
    from manylogic.models import _run

    rng, tail = Random(36), 3
    for trial in range(12):
        n = rng.randint(50, 300)
        variant = DIAMOND_VARIANTS[trial % len(DIAMOND_VARIANTS)]
        worlds = tuple(f"w{i}" for i in range(n))
        lids = [LOGIC_IDS[i % len(LOGIC_IDS)] for i in range(n - tail)]
        rng.shuffle(lids)
        lids += ["LETK"] * tail
        relation = frozenset(
            (worlds[i], worlds[j]) for i in range(n - tail) for j in rng.sample(range(n), rng.randint(0, 8))
        )
        valuation = {
            w: {a: rng.choice(LOGICS[lid].lattice.elements) for a in ("p", "q") if rng.random() < 0.9}
            for w, lid in zip(worlds, lids)
        }
        valuation.update({w: {"p": V.F, "q": V.F} for w in worlds[-tail:]})
        model = Model(worlds, relation, dict(zip(worlds, lids)), valuation, variant)
        zeros = [parse(t) for t in ("p", "p & q", "p | q", "<>p", "(p -> p) -> q", "!(p -> p)")]
        fs = zeros + [_random_formula(rng, rng.randint(1, 7), rng.randint(0, 3)) for _ in range(6)]
        for f in fs:
            memo: dict = {}
            want = [_eval(model, w, syntax.desugar(f), memo) for w in worlds]
            assert [eval_formula(model, w, f) for w in worlds] == want, (variant, n, syntax.to_text(f))
        for f in zeros:
            assert _run(model, f).endswith(bytes(tail)), syntax.to_text(f)
        assert set(lids) == set(LOGIC_IDS)


def test_the_tagged_tables_read_the_mask_tables_and_keep_the_tag():
    from manylogic.models import (
        _ATOM_T, _CIRC, _CIRC_T, _DOWN, _DOWN_T, _IMP, _IMP_T, _IMP_X, _MASKS, _NEG, _NEG_T, _UP, _UP_T,
    )

    tables = (_ATOM_T, _CIRC_T, _DOWN_T, _IMP_T, _IMP_X, _MASKS, _NEG_T, _UP_T)
    assert all(type(t) is bytes and len(t) == 256 for t in tables)
    for i, lid in enumerate(LOGIC_IDS):
        tag, logic = 16 * i, LOGICS[lid]
        for m in range(16):  # meets and joins of masks, and the empty folds' 15 and 0
            assert _DOWN_T[tag | m] == tag | _DOWN[tag | m] and _UP_T[tag | m] == tag | _UP[tag | m]
            assert _MASKS[tag | m] == m
        for x in logic.lattice.elements:
            mx = tag | MASK[x]
            assert _NEG_T[mx] == tag | _NEG[MASK[x]] == tag | MASK[apply(logic, "neg", [x])]
            assert _CIRC_T[mx] == tag | _CIRC[mx] == tag | MASK[apply(logic, "circ", [x])]
            assert _ATOM_T[tag | x] == mx  # by value code
            for y in logic.lattice.elements:
                at = _IMP_X[mx] ^ (tag | MASK[y])  # the index of (family, x, y)
                assert _IMP_T[at] == _IMP[mx][MASK[y]] == MASK[apply(logic, "imp", [x, y])], (lid, x, y)
        assert _ATOM_T[tag | 6] == tag | MASK[logic.lattice.bottom]  # a missing atom


def test_every_logic_fits_the_tag():
    # a row byte is 16 x the logic index | a 4-bit mask
    assert len(LOGIC_IDS) <= 16


# Models that validate rejects, and a formula each; construction accepts them.
_INVALID_MODELS = {
    "value-outside-the-world-lattice": (lambda: mk(["w"], {"w": "K3"}, [], {"w": {"p": V.T}}), "p"),
    "negated-value-outside-the-world-lattice": (
        lambda: mk(["w"], {"w": "K3"}, [], {"w": {"p": V.T}}), "!p",
    ),
    "relation-to-an-unknown-world": (lambda: mk(["w"], {"w": "K3"}, [("w", "v")], {}), "[]p"),
    "unknown-logic": (lambda: mk(["w"], {"w": "XXX"}, [], {}), "p"),
    "world-without-a-logic": (lambda: mk(["w"], {}, [], {}), "p"),
}


@pytest.mark.parametrize("case", list(_INVALID_MODELS))
def test_eval_refuses_models_that_validate_rejects(case):
    build, text = _INVALID_MODELS[case]
    model = build()
    errors = validate(model).errors
    assert errors
    for _ in range(2):  # a refused model stays refused
        with pytest.raises(ModelFormatError) as exc:
            eval_formula(model, "w", parse(text))
        assert str(exc.value) == "invalid model: " + "; ".join(errors)


def test_models_are_read_only(fixtures):
    model = load_model(fixtures / "ex1.json")
    before = eval_formula(model, "w1", parse("[]p"))
    with pytest.raises(TypeError):
        model.valuation["w1"]["p"] = V.F
    with pytest.raises(TypeError):
        model.logics["w1"] = "K3"
    with pytest.raises(TypeError):
        model.valuation["w9"] = {}
    with pytest.raises(TypeError):
        model.frame.logics["w1"] = "K3"
    assert eval_formula(model, "w1", parse("[]p")) == before
    # construction copies what it is given
    logics, row = {"w": "K3"}, {"p": V.T0}
    small = Model(("w",), frozenset(), logics, {"w": row})
    logics["w"], row["p"] = "LP", V.F0
    assert small.logics["w"] == "K3" and small.valuation["w"]["p"] == V.T0
    assert eval_formula(small, "w", parse("p")) == V.T0
    # what reads a model still works on the read-only copies
    assert model_from_dict(model_to_dict(model)) == model
    assert json.loads(json.dumps(model_to_dict(model)))["valuation"]["w3"] == {"p": "b"}
    negbox = Model(model.worlds, model.relation, model.logics, model.valuation, "negbox")
    assert eval_formula(negbox, "w1", parse("<>p")) == eval_formula(model, "w1", parse("![]!p"))
    frame = Frame(model.worlds, model.relation, model.logics)
    for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert clone == model and eval_formula(clone, "w1", parse("[]p")) == before
    assert pickle.loads(pickle.dumps(frame)) == frame == copy.copy(frame)


def test_eval_formula_refuses_text_for_a_formula(fixtures):
    model = load_model(fixtures / "ex1.json")
    for bad in ("[]p", None, 3):
        with pytest.raises(TypeError, match=f"^expected a Formula, got {type(bad).__name__}$"):
            eval_formula(model, "w1", bad)
    assert eval_formula(model, "w1", parse("[]p")) == V.b


# ------------------------------------------------------ load and validate
#
# The messages a malformed document and an invalid model get, pinned
# verbatim.

_DOC = {
    "worlds": ["w1", "w2"],
    "logics": {"w1": "K3", "w2": "LP"},
    "relation": [["w1", "w2"]],
    "valuation": {"w1": {"p": "T0"}, "w2": {"p": "b"}},
}


@pytest.mark.parametrize("relation", [
    5, [None], ["w1w2"], [["w1"]], [["w1", 3]], [[1, 2]], [["w1", "w2", "w3"]], [("w1", "w2")],
], ids=repr)
def test_malformed_relations_are_refused_by_name(relation):
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(dict(_DOC, relation=relation))
    assert str(exc.value) == "relation must be an array of 2-element arrays"


@pytest.mark.parametrize("member, value, message", [
    ("worlds", ["w1", 2], "worlds must be an array of strings"),
    ("worlds", [None], "worlds must be an array of strings"),
    ("worlds", "w1", "worlds must be an array of strings"),
    ("logics", {"w1": "K3", "w2": 3}, "logics must map world to logic token"),
    ("logics", {"w1": None}, "logics must map world to logic token"),
    ("logics", {1: "K3"}, "logics must map world to logic token"),
    ("logics", ["w1", "K3"], "logics must map world to logic token"),
    ("valuation", {"w1": {"p": 1}}, "valuation('w1','p') must be a value token"),
    ("valuation", {"w1": {"p": ["T"]}}, "valuation('w1','p') must be a value token"),
    ("valuation", {"w1": {"p": "T0", "Q": "X"}}, "valuation('w1','Q'): 'Q' is not an atom name"),
    ("valuation", {"w1": {"p": "T0"}, "w2": {"q": "X"}}, "unknown value token 'X'"),
    ("valuation", {"w1": ["p"]}, "valuation must map world to an atom/value object"),
], ids=repr)
def test_malformed_members_are_refused_by_name(member, value, message):
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(dict(_DOC, **{member: value}))
    assert str(exc.value) == message


def test_document_errors_come_in_member_order():
    # worlds, then logics, then relation, then diamond: fixing each member
    # in turn brings up the next one's message
    doc = dict(_DOC, worlds="w1", logics=["w1"], relation=[["w1", "w2"], ["w1"]], diamond="sideways")
    for member, message in (
        ("worlds", "worlds must be an array of strings"),
        ("logics", "logics must map world to logic token"),
        ("relation", "relation must be an array of 2-element arrays"),
        ("diamond", "diamond must be one of up, down, negbox, cnegbox"),
    ):
        with pytest.raises(ModelFormatError) as exc:
            model_from_dict(doc)
        assert str(exc.value) == message
        doc[member] = _DOC.get(member, "up")
    assert model_from_dict(doc).relation == frozenset({("w1", "w2")})


def test_string_subclasses_load_as_strings():
    class Name(str):
        pass

    doc = {
        "worlds": [Name("w1"), Name("w2")],
        "logics": {Name("w1"): Name("K3"), Name("w2"): Name("LP")},
        "relation": [[Name("w1"), Name("w2")]],
        "valuation": {Name("w1"): {Name("p"): Name("T0")}, Name("w2"): {Name("p"): Name("b")}},
    }
    model = model_from_dict(doc)
    assert model == model_from_dict(_DOC)
    assert validate(model).ok
    assert eval_formula(model, "w1", parse("[]p")) == V.F0


# One model with every defect validate reports, and its full report.
_ALL_DEFECTS = dict(
    worlds=("w1", "w2", "w1", "w3", "w4"),
    relation=frozenset({("w1", "zz"), ("aa", "w2"), ("w1", "w2"), ("w4", "w4")}),
    logics={"w1": "K3", "w2": "XXX", "ghost": "LP", "w4": "FDE"},
    valuation={
        "w1": {"p": V.T, "q": V.n}, "w4": {"p": V.b, "q": V.F},
        "nowhere": {"s": V.T}, "w2": {"r": V.T},
    },
    diamond="sideways",
)
_FRAME_ERRORS = (
    "duplicate world names",
    "relation names unknown world 'aa'",
    "relation names unknown world 'zz'",
    "world 'w2' has unknown logic 'XXX'",
    "world 'w3' has no logic",
    "logic assignment names unknown world 'ghost'",
    "unknown diamond variant 'sideways'",
)
_MODEL_ERRORS = _FRAME_ERRORS + (
    "valuation('w1','p') = T not in N3w",
    "valuation('w4','q') = F not in L4w",
    "valuation names unknown world 'nowhere'",
)
_MODEL_WARNINGS = tuple(
    f"world {w!r} has no value for {atoms}; defaulting to lattice bottom"
    for w, atoms in (("w1", "r"), ("w2", "p, q"), ("w1", "r"), ("w3", "p, q, r"), ("w4", "r"))
)


@pytest.mark.parametrize("count", (10, 11))
def test_a_refusal_lists_ten_errors_and_counts_the_rest(count):
    from manylogic.frames import SCHEMAS, axiom_valid_on_frame

    worlds = tuple(f"w{i}" for i in range(count))
    model = Model(worlds, frozenset(), dict.fromkeys(worlds, "XXX"), {})
    errors = validate(model).errors  # the report stays complete
    assert errors == tuple(f"world 'w{i}' has unknown logic 'XXX'" for i in range(count))
    message = "; ".join(errors[:10]) + ("; … and 1 more" if count == 11 else "")
    with pytest.raises(ModelFormatError) as exc:
        eval_formula(model, "w0", parse("p"))
    assert str(exc.value) == "invalid model: " + message
    with pytest.raises(ModelFormatError) as exc:
        axiom_valid_on_frame(model.frame, SCHEMAS["T"])
    assert str(exc.value) == "invalid frame: " + message


def test_validate_reports_every_defect_in_order():
    from manylogic.models import validate_frame

    model = Model(**_ALL_DEFECTS)
    report = validate(model)
    assert report.errors == _MODEL_ERRORS
    assert report.warnings == _MODEL_WARNINGS
    assert validate(model) is report and model._axis is None  # no axis for an invalid model
    for frame in (model.frame, Frame(*(_ALL_DEFECTS[k] for k in ("worlds", "relation", "logics", "diamond")))):
        assert validate_frame(frame).errors == _FRAME_ERRORS
        assert validate_frame(frame).warnings == ()
    with pytest.raises(ModelFormatError) as exc:
        eval_formula(model, "w1", parse("p"))
    assert str(exc.value) == "invalid model: " + "; ".join(_MODEL_ERRORS)
    # each defect on its own is the only error or warning reported
    clean = dict(
        worlds=("w1", "w2"), relation=frozenset({("w1", "w2")}), logics={"w1": "K3", "w2": "FDE"},
        valuation={"w1": {"p": V.n}, "w2": {"p": V.b}}, diamond="up",
    )
    assert validate(Model(**clean)) == ValidationReport((), ())
    for change, errors, warnings in (
        (dict(worlds=("w1", "w2", "w2")), ("duplicate world names",), ()),
        (dict(worlds=()), ("empty world set", "relation names unknown world 'w1'",
                           "relation names unknown world 'w2'", "logic assignment names unknown world 'w1'",
                           "logic assignment names unknown world 'w2'",
                           "valuation names unknown world 'w1'", "valuation names unknown world 'w2'"), ()),
        (dict(logics={"w1": "K3"}), ("world 'w2' has no logic",), ()),
        (dict(logics={"w1": "K3", "w2": None}), ("world 'w2' has unknown logic None",), ()),
        (dict(logics={"w1": "K3", "w2": ["FDE"]}), ("world 'w2' has unknown logic ['FDE']",), ()),
        (dict(valuation={"w1": {"p": V.n}}), (), ("world 'w2' has no value for p; defaulting to lattice bottom",)),
        (dict(valuation={"w1": {"p": V.n}, "w2": {"q": V.b}}), (), (
            "world 'w1' has no value for q; defaulting to lattice bottom",
            "world 'w2' has no value for p; defaulting to lattice bottom",
        )),
        (dict(valuation={"w1": {}, "w2": {}}), (), ()),
        (dict(valuation={}), (), ()),
        (dict(valuation={"w1": {"p": V.n}, "w2": {"p": V.F}}), ("valuation('w2','p') = F not in L4w",), ()),
    ):
        report = validate(Model(**dict(clean, **change)))
        assert (report.errors, report.warnings) == (errors, warnings), change


# ------------------------------------------------- loading onto the axis
#
# The loader lays the world axis out while it checks a document, and keeps
# it, with an empty report, on a document it finds clean; any anomaly
# leaves both to validate.  Either way the loaded model or frame must
# report and lay out what validating the same fields, built in Python,
# does.


def _random_document(rng, clean=False) -> dict:
    worlds = [f"w{i}" for i in rng.sample(range(100), rng.randint(1, 60))]
    density = rng.random()
    relation = [[u, v] for u in worlds for v in worlds if rng.random() < density]
    rng.shuffle(relation)
    if relation and not clean and rng.random() < 0.25:  # repeated pairs
        relation += rng.sample(relation, min(3, len(relation)))
    logics = {w: rng.choice(LOGIC_IDS) for w in worlds}
    present = 1.0 if clean or rng.random() < 0.5 else 0.7  # atoms missing at about 30% of worlds
    valuation = {
        w: {a: rng.choice(LOGICS[logics[w]].lattice.elements).name for a in "pqr" if rng.random() < present}
        for w in worlds
    }
    return {"worlds": worlds, "logics": logics, "relation": relation, "valuation": valuation,
            "diamond": rng.choice(DIAMOND_VARIANTS)}


def _value_outside(doc):
    w = doc["worlds"][0]
    doc["logics"][w] = "K3"
    doc["valuation"][w]["p"] = "T"


# one change to a clean document for each defect _ALL_DEFECTS shows, for
# a missing atom, which is a warning, and for a repeated pair, which is
# neither but leaves the layout to validate, so that each edge is laid out
# once
_DOCUMENT_DEFECTS = {
    "duplicate world names": lambda d: d["worlds"].append(d["worlds"][-1]),
    "empty world set": lambda d: d.update(worlds=[]),
    "an unknown world as source": lambda d: d["relation"].append(["aa", d["worlds"][0]]),
    "an unknown world as target": lambda d: d["relation"].insert(0, [d["worlds"][-1], "zz"]),
    "an unknown logic": lambda d: d["logics"].update({d["worlds"][-1]: "XXX"}),
    "a world with no logic": lambda d: d["logics"].pop(d["worlds"][0]),
    "a logic for an unknown world": lambda d: d["logics"].update(ghost="LP"),
    "a value outside the lattice": _value_outside,
    "a valuation for an unknown world": lambda d: d["valuation"].update(nowhere={"s": "T"}),
    "a missing atom": lambda d: d["valuation"][d["worlds"][-1]].pop("q"),
    "a world with no valuation": lambda d: d["valuation"].pop(d["worlds"][0]),
    "a repeated pair": lambda d: d["relation"].append([d["worlds"][0], d["worlds"][-1]]),
}


def _loads_as_built(doc: dict, kind) -> bool:
    """Load `doc` as a `kind`, check it against the same fields validated
    from scratch, and say whether the loader found it clean."""
    from manylogic.models import frame_from_dict, validate_frame

    if kind is Frame:
        doc = {k: v for k, v in doc.items() if k != "valuation"}
    before = copy.deepcopy(doc)
    x = model_from_dict(doc) if kind is Model else frame_from_dict(doc)
    assert doc == before  # the loader leaves its input alone
    kept = x._report is not None
    built = kind(*x._values())
    report = validate if kind is Model else validate_frame
    assert report(x) == report(built)  # every error and warning, in order
    assert (x._axis is None) == (built._axis is None) and (not kept or x._axis is not None)
    if x._axis is not None:
        (index, succs, tags, columns), want = x._axis, built._axis
        assert (index, tags, columns) == (want[0], want[2], want[3])
        assert [sorted(s) for s in succs] == [sorted(s) for s in want[1]]  # each edge once
    return kept


def test_a_loaded_document_reports_and_lays_out_what_validate_does(fixtures):
    rng = Random(38)
    docs = [_random_document(rng) for _ in range(120)]
    docs.append({k: v for k, v in model_to_dict(Model(**_ALL_DEFECTS)).items() if k != "diamond"})
    docs.append({"worlds": [], "logics": {}, "relation": [], "valuation": {}})  # empty, and nothing else wrong
    for name, defect in _DOCUMENT_DEFECTS.items():
        for _ in range(6):
            doc = _random_document(rng, clean=True)
            defect(doc)
            docs.append(doc)
    docs += [json.loads(path.read_text()) for path in sorted(fixtures.glob("*.json"))]
    kept = collections.Counter()
    for doc in docs:
        for kind in (Model, Frame) if "valuation" in doc else (Frame,):
            kept[kind, _loads_as_built(doc, kind)] += 1
    assert all(kept[kind, clean] > 20 for kind in (Model, Frame) for clean in (True, False)), kept


# ---------------------------------------------------------- program memo


def _mixed_model(seed, n=7, variant="up"):
    rng = Random(seed)
    worlds = tuple(f"w{i}" for i in range(n))
    lids = {w: LOGIC_IDS[(i + seed) % len(LOGIC_IDS)] for i, w in enumerate(worlds)}
    relation = frozenset((a, b) for a in worlds for b in worlds if a != worlds[-1] and rng.random() < 0.4)
    valuation = {w: {a: rng.choice(LOGICS[lids[w]].lattice.elements) for a in "pqr"} for w in worlds}
    return Model(worlds, relation, lids, valuation, variant)


def test_one_formula_evaluates_under_every_variant_in_turn():
    # the same formula objects under each variant on one base model; a
    # program kept per formula alone would answer negbox with up's program
    base = _mixed_model(5)
    rng = Random(43)
    fs = [parse("<>p"), parse("<>(p & ~q)"), parse("[]<>p -> <>[]q")]
    fs += [_random_formula(rng, 6, 2) for _ in range(12)]
    seen = {}
    for variant in ("up", "negbox", "down", "cnegbox", "up"):
        model = Model(base.worlds, base.relation, base.logics, base.valuation, variant)
        for f in fs:
            for w in model.worlds:
                got = eval_formula(model, w, f)
                assert got == reference_eval(model, w, f), (variant, w, syntax.to_text(f))
                seen.setdefault((f, w), set()).add(got)
    assert any(len(values) > 1 for values in seen.values())  # the variants disagree somewhere


def test_a_kept_program_is_what_compile_program_builds(monkeypatch):
    from manylogic import models

    monkeypatch.setattr(models, "_PROGRAMS", {})
    fs = [parse(t) for t in ("[]p", "<>~q", "N<>p", "[]<>p => p", "@[]!p", "~[]p | <>~q")]
    for variant in DIAMOND_VARIANTS:
        model = _mixed_model(2, variant=variant)
        for f in fs:
            eval_formula(model, "w0", f)
    assert set(models._PROGRAMS) == {(f, v) for f in fs for v in DIAMOND_VARIANTS}
    for (f, variant), (names, program) in models._PROGRAMS.items():
        assert sorted(names) == sorted(syntax.atoms(f))
        assert program == tuple(models.compile_program(f, variant, names))


def test_each_formula_compiles_once_per_variant(monkeypatch):
    from manylogic import models

    calls = []

    def counted(f, variant, names):
        calls.append((f, variant))
        return compile_program(f, variant, names)

    compile_program = models.compile_program
    monkeypatch.setattr(models, "_PROGRAMS", {})
    monkeypatch.setattr(models, "compile_program", counted)
    fs = [parse(t) for t in ("[]p", "<>q", "[](p -> q)", "<>[]<>r", "N<>p & @q")]
    for variant in DIAMOND_VARIANTS:
        for seed in range(5):
            model = _mixed_model(seed, variant=variant)
            for f in fs:
                for w in model.worlds:
                    assert eval_formula(model, w, f) == reference_eval(model, w, f)
    assert sorted(calls, key=repr) == sorted(((f, v) for f in fs for v in DIAMOND_VARIANTS), key=repr)


def test_threads_compiling_one_formula_agree(monkeypatch):
    # more threads than cores fill one memo with the same formulas at once;
    # each must read its own variant's program, whichever thread stored it
    import sys
    import threading

    from manylogic import models

    monkeypatch.setattr(models, "_PROGRAMS", {})
    fs = [parse(f"[](p -> <>q) | <>~{'@' * i}p") for i in range(25)]
    jobs = [_mixed_model(seed, variant=DIAMOND_VARIANTS[seed % 4]) for seed in range(8)]
    want = [{(f, w): reference_eval(m, w, f) for f in fs for w in m.worlds} for m in jobs]
    got = [{} for _ in jobs]

    def run(k):
        for f in fs:
            for w in jobs[k].worlds:
                got[k][f, w] = eval_formula(jobs[k], w, f)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
    assert set(models._PROGRAMS) == {(f, v) for f in fs for v in DIAMOND_VARIANTS}
    for (f, variant), (names, program) in models._PROGRAMS.items():
        assert program == tuple(models.compile_program(f, variant, names))


# ------------------------------------------- compiler against its reference
# `Formula.__new__` builds each node's desugared form and `compile_program`
# emits the negbox and cnegbox diamonds itself; before, two rewrite passes
# built them.  Those passes, copied here, are the reference.


def _reference_nabla(x):
    return Or(x, Neg(Circ(x)))


def _reference_desugar(f, memo):
    core = memo.get(f)
    if core is None:
        kind = type(f)
        if kind is CNeg:
            core = Imp(_reference_desugar(f.child, memo), Bottom())
        elif kind is Nabla:
            core = _reference_nabla(_reference_desugar(f.child, memo))
        elif kind is ImpL:
            a, c = _reference_desugar(f.left, memo), _reference_desugar(f.right, memo)
            core = And(Or(_reference_nabla(Neg(a)), c), Or(_reference_nabla(c), Neg(a)))
        elif syntax.children(f):
            core = kind(*[_reference_desugar(k, memo) for k in syntax.children(f)])
        else:
            core = f
        memo[f] = core
    return core


def _reference_resolve(f, variant):
    if variant not in ("negbox", "cnegbox"):
        return f
    out = {}
    for g in syntax.postorder(f):
        kids = [out[c] for c in syntax.children(g)]
        if isinstance(g, Diamond):
            if variant == "negbox":
                out[g] = Neg(Box(Neg(kids[0])))
            else:
                out[g] = Imp(Box(Imp(kids[0], Bottom())), Bottom())
        else:
            out[g] = type(g)(*kids) if kids else g
    return out[f]


_REFERENCE_OPCODES = {Bottom: "bottom", Neg: "neg", Circ: "circ", And: "and", Or: "or", Imp: "imp", Box: "box"}


def _reference_compile(f, variant, atom_names):
    f = _reference_resolve(_reference_desugar(f, {}), variant)
    dia_kind = "dia_up" if variant != "down" else "dia_down"
    index, prog = {}, []
    for g in syntax.postorder(f):
        kind = type(g)
        if kind is Atom:
            node = ("atom", atom_names.index(g.name))
        elif kind is Diamond:
            node = (dia_kind, index[g.child])
        else:
            node = (_REFERENCE_OPCODES[kind], *[index[c] for c in syntax.children(g)])
        index[g] = len(prog)
        prog.append(node)
    return prog


def _compiler_corpus():
    """The AC12 corpus, the benchmark's Kripke formulas, seeded modal
    formulas with ~, N, => and #, and shapes where a diamond's rewrite is
    also written out elsewhere in the formula."""
    import sys
    from pathlib import Path

    from manylogic.verify import AC12_SEED, AC12_SEQUENT_COUNT, make_sequents

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import KRIPKE_FORMULAS, render
    finally:
        sys.path.pop(0)
    out = [g for allow_or in (True, False)
           for ps, c in make_sequents(AC12_SEQUENT_COUNT, AC12_SEED, allow_or) for g in ps + [c]]
    out += [parse(render(f)) for f in KRIPKE_FORMULAS]
    rng = Random(21)
    out += [_random_formula(rng, rng.randrange(1, 9), rng.randrange(4)) for _ in range(600)]
    out += [parse(t) for t in (
        "<>p & !([]!p)", "!([]!p) & <>p", "(<>p -> #) & ([](p -> #) -> #)",
        "([](p -> #) -> #) & <>p", "<><>p | ![]!<>p", "<>~p & ~[]~~p", "N<>(p => <>#)",
    )]
    return out


def test_desugar_and_compile_match_the_rewrite_passes_they_replaced():
    from manylogic import models

    for f in _compiler_corpus():
        assert syntax.desugar(f) is _reference_desugar(f, {}), syntax.to_text(f)
        names = tuple(sorted(syntax.atoms(f)))
        for variant in DIAMOND_VARIANTS:
            got = models.compile_program(f, variant, names)
            assert got == _reference_compile(f, variant, names), (variant, syntax.to_text(f))


# ------------------------------------------------------- holds and hashing


def test_holds_raises_what_eval_formula_raises():
    model = mk(["w1"], {"w1": "K3"}, [], {"w1": {"p": V.T0}})
    with pytest.raises(ModelFormatError, match="^unknown world 'w9'$"):
        holds(model, "w9", parse("p"))
    bad = mk(["w1"], {"w1": "XXX"}, [], {})
    with pytest.raises(ModelFormatError, match="^invalid model: world 'w1' has unknown logic 'XXX'$"):
        holds(bad, "w1", parse("p"))
    with pytest.raises(TypeError, match="^expected a Formula, got str$"):
        holds(model, "w1", "p")
    assert holds(model, "w1", parse("p"))


def test_a_kept_row_raises_what_a_fresh_model_raises(fixtures):
    # a kept formula is read in two subscripts; every bad argument falls
    # back to the checks and raises as it does on a model that keeps nothing
    box = parse("[]p")
    kept = load_model(fixtures / "ex1.json")
    assert eval_formula(kept, "w1", box) == V.b and kept._answers[box]
    cases = [  # world, formula, whether the frame stands in for the model, the error
        ("w9", box, False, ModelFormatError, "^unknown world 'w9'$"),
        (["w1"], box, False, TypeError, "^expected a world name, got list$"),
        ("w1", "[]p", False, TypeError, "^expected a Formula, got str$"),
        ("w1", [box], False, TypeError, "^expected a Formula, got list$"),
        ("w1", box, True, TypeError, "^expected a Model, got Frame$"),
    ]
    for world, f, as_frame, error, message in cases:
        for model in (kept, load_model(fixtures / "ex1.json")):
            with pytest.raises(error, match=message):
                eval_formula(model.frame if as_frame else model, world, f)
    assert list(kept._answers) == [box] and eval_formula(kept, "w1", box) == V.b


def test_a_formula_is_evaluated_once_per_model_object(fixtures, monkeypatch):
    from manylogic import models

    runs = []
    run = models._run

    def counted(model, f):
        runs.append(f)
        return run(model, f)

    monkeypatch.setattr(models, "_run", counted)
    model = load_model(fixtures / "ex4.json")
    box, dia = parse("[]p"), parse("<>p")
    first = [eval_formula(model, w, box) for w in model.worlds]
    assert runs == [box]
    assert [eval_formula(model, w, box) for w in reversed(model.worlds)] == first[::-1]
    assert runs == [box]
    dias = [eval_formula(model, w, dia) for w in model.worlds]
    assert runs == [box, dia]
    assert [eval_formula(model, w, dia) for w in model.worlds] == dias and runs == [box, dia]
    copy_ = model._replace(diamond=model.diamond)  # an equal model, but a new object
    assert copy_ == model and [eval_formula(copy_, w, box) for w in model.worlds] == first
    assert runs == [box, dia, box]


def test_models_and_frames_hash_by_value(fixtures):
    model = load_model(fixtures / "ex4.json")
    eval_formula(model, "w1", parse("[]p"))  # kept encoding and report play no part
    copies = [model_from_dict(model_to_dict(model)), pickle.loads(pickle.dumps(model)), copy.deepcopy(model)]
    for other in copies:
        assert other == model and hash(other) == hash(model)
        assert other.frame == model.frame and hash(other.frame) == hash(model.frame)
    assert len({model, *copies}) == 1 and copies[0] in {model}
    assert len({model.frame, *(c.frame for c in copies)}) == 1
    other = Model(model.worlds, model.relation, model.logics, model.valuation, "down")
    assert other != model and len({model, other}) == 2
    assert {model: 1}[copies[1]] == 1
