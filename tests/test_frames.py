import json
import re
from itertools import compress, product
from math import isqrt
from random import Random

import numpy as np
import pytest

from manylogic.frames import (
    DEFAULT_SEED,
    SCHEMAS,
    THEOREMS,
    AxiomSchema,
    BudgetError,
    axiom_valid_on_frame,
    duality_check,
    describe_counterexample,
    five_c_characterization,
    frame_properties,
    reflexive_closure,
    run_theorem,
    sample_schema,
    sweep_schema,
    theorem_suite,
    transitive_closure,
)
from manylogic.frames import _choose
from manylogic.lattices import MASK
from manylogic.logics import LOGIC_IDS, LOGICS
from manylogic.models import _CODE, DIAMOND_VARIANTS, Frame, Model, eval_formula, holds, load_frame
from manylogic.syntax import atoms, parse, substitute, to_text
from manylogic.values import Value as V

# numpy views of the mask encoding, built from the one form the package
# keeps: each value's mask by code, each mask's value code, and each
# logic's elements as masks (a logic's table row is 16 * its index)
MASK_OF = np.array(MASK, dtype=np.uint8)
CODE_OF = np.array(_CODE, dtype=np.int8)
ELEMENT_MASKS = [MASK_OF[[int(v) for v in LOGICS[lid].lattice.elements]] for lid in LOGIC_IDS]


def frame(worlds, relation, logics):
    return Frame(tuple(worlds), frozenset(tuple(p) for p in relation), dict(logics))


def test_frame_properties_total_relation():
    worlds = ("w1", "w2", "w3")
    rel = [(a, b) for a in worlds for b in worlds]
    props = frame_properties(frame(worlds, rel, {}))
    assert (
        props.reflexive, props.transitive, props.euclidean, props.symmetric, props.serial,
    ) == (True, True, True, True, True)


def test_frame_properties_single_arrow():
    props = frame_properties(frame(("w1", "w2"), [("w1", "w2")], {}))
    assert not props.reflexive
    assert props.transitive  # vacuously: no composable pair
    assert not props.euclidean
    assert not props.symmetric
    assert not props.serial  # w2 has no successor


def test_euclidean_closure_example():
    base = {("w1", "w2"), ("w1", "w3")}
    closed = base | {("w2", "w3"), ("w3", "w2"), ("w2", "w2"), ("w3", "w3")}
    assert not frame_properties(frame(("w1", "w2", "w3"), base, {})).euclidean
    assert frame_properties(frame(("w1", "w2", "w3"), closed, {})).euclidean


def _pairwise_properties(worlds, rel) -> tuple:
    """The frame properties as first defined: over every pair of edges."""
    return (
        all((w, w) in rel for w in worlds),
        all((a, d) in rel for a, b in rel for c, d in rel if b == c),
        all((b, d) in rel for a, b in rel for c, d in rel if a == c),
        all((b, a) in rel for a, b in rel),
        all(any((w, u) in rel for u in worlds) for w in worlds),
    )


def _random_relation(rng, worlds) -> frozenset:
    """A seeded relation over worlds: plain random, or closed to be
    reflexive, transitive, symmetric or euclidean; dead ends and
    self-loops among them."""
    density = rng.choice((0.0, 0.1, 0.3, 0.6, 0.9, 1.0))
    dead = rng.choice(worlds) if rng.random() < 0.5 else None
    rel = {(a, b) for a in worlds for b in worlds if a != dead and rng.random() < density}
    shape = rng.choice(("plain", "reflexive", "transitive", "symmetric", "euclidean"))
    if shape == "reflexive":
        rel |= {(w, w) for w in worlds}
    elif shape == "transitive":
        rel = set(transitive_closure(rel, len(worlds)))
    elif shape == "symmetric":
        rel |= {(b, a) for a, b in rel}
    elif shape == "euclidean":
        # clusters related all to all; every other world sees all of one
        # cluster or nothing
        cluster = [w for w in worlds if rng.random() < 0.4]
        rel = {(a, b) for a in cluster for b in cluster}
        rel |= {(a, b) for a in worlds if a not in cluster and rng.random() < 0.5 for b in cluster}
    return frozenset(rel)


def test_frame_properties_match_the_pairwise_definition():
    from manylogic.frames import _rel_props, _relations

    seen = set()
    for rel in _relations(3):
        want = _pairwise_properties(range(3), rel)
        assert tuple(_rel_props(rel, 3)) == want, rel
        named = frame(("w1", "w2", "w3"), [(f"w{i + 1}", f"w{j + 1}") for i, j in rel], {})
        assert tuple(frame_properties(named)) == want, rel
    rng = Random(17)
    for trial in range(600):
        n = rng.randint(1, 12)
        worlds = tuple(f"w{i}" for i in range(1, n + 1))
        rel = _random_relation(rng, worlds)
        index = {w: i for i, w in enumerate(worlds)}
        if trial % 10 == 0:  # an edge to or from a world the frame does not list
            rel |= {rng.choice([("x", rng.choice(worlds)), (rng.choice(worlds), "x")])}
        else:
            want = _pairwise_properties(range(n), {(index[a], index[b]) for a, b in rel})
            assert tuple(_rel_props({(index[a], index[b]) for a, b in rel}, n)) == want
        want = _pairwise_properties(worlds, rel)
        assert tuple(frame_properties(frame(worlds, rel, {}))) == want, (worlds, sorted(rel))
        if n > 3:
            seen.update((k, v) for k, v in enumerate(want))
    # past three worlds, each property both holds and fails
    assert seen == set(product(range(5), (False, True)))


def test_relation_closures():
    rel = frozenset({(0, 1), (1, 2)})
    assert (0, 2) in transitive_closure(rel, 3)
    assert (0, 0) in reflexive_closure(rel, 3)


def test_axiom_k_on_small_sweeps():
    for n in (1, 2):
        out = sweep_schema(SCHEMAS["K"], n, LOGIC_IDS)
        assert not out.counterexamples
        assert out.frames_checked == (2 ** (n * n)) * (9 ** n)


def test_axiom_t_valid_on_reflexive_and_refutable_off_them():
    out = sweep_schema(SCHEMAS["T"], 2, LOGIC_IDS, relation_pred=lambda p: p.reflexive)
    assert not out.counterexamples
    # the necessitation frame gives a countermodel once reflexivity is dropped
    fr = frame(("w1", "w2"), [("w1", "w2")], {"w1": "K3", "w2": "LP"})
    res = axiom_valid_on_frame(fr, SCHEMAS["T"])
    assert not res.valid
    ce = res.counterexample
    assert not holds(ce.model, ce.world, parse("[]p -> p"))


def test_sweep_schema_sweeps_three_worlds():
    # all 2^9 relations on three worlds, each under the 2^3 CLS valuations of p
    out = sweep_schema(SCHEMAS["4"], 3, ("CLS",))
    assert (out.frames_checked, out.models_checked) == (512, 512 * 8)


def test_sweep_schema_refuses_four_worlds(no_draws):
    with pytest.raises(BudgetError, match="^exhaustive sweeps are limited to 3 worlds$"):
        sweep_schema(SCHEMAS["4"], 4, ("CLS",))


def test_axiom_four_fails_on_a_transitive_two_world_frame():
    # an intermediate world whose lattice forgets a designated value breaks
    # the box-iteration argument; the minimal sweep witness pins it
    out = sweep_schema(SCHEMAS["4"], 2, LOGIC_IDS, relation_pred=lambda p: p.transitive)
    assert out.counterexamples
    ce = out.counterexamples[0]
    assert frame_properties(ce.model.frame).transitive
    assert eval_formula(ce.model, ce.world, parse("[]p -> [][]p")) == ce.value
    assert not ce.model.logic(ce.world).is_designated(ce.value)
    # a by-hand instance of the same failure, replayed
    worlds = ("w1", "w2")
    model = Model(
        worlds,
        frozenset((a, b) for a in worlds for b in worlds),
        {"w1": "LETK", "w2": "K3"},
        {"w1": {"p": V.b}, "w2": {"p": V.T0}},
    )
    assert eval_formula(model, "w1", parse("[]p")) == V.b
    assert eval_formula(model, "w1", parse("[][]p")) == V.F0
    assert eval_formula(model, "w1", parse("[]p -> [][]p")) == V.F0


def test_counterexamples_replay_through_the_model_evaluator():
    out = sweep_schema(SCHEMAS["4"], 2, LOGIC_IDS, relation_pred=lambda p: p.transitive,
                       max_counterexamples=3)
    for ce in out.counterexamples:
        got = eval_formula(ce.model, ce.world, SCHEMAS["4"].template)
        assert got == ce.value
        assert not ce.model.logic(ce.world).is_designated(got)


def test_sampled_checks_are_deterministic_and_replayable():
    a = sample_schema(SCHEMAS["4"], 3, LOGIC_IDS, samples=400, seed=7,
                      relation_transform=transitive_closure, max_counterexamples=5)
    b = sample_schema(SCHEMAS["4"], 3, LOGIC_IDS, samples=400, seed=7,
                      relation_transform=transitive_closure, max_counterexamples=5)
    assert a == b
    for ce in a.counterexamples:
        assert eval_formula(ce.model, ce.world, SCHEMAS["4"].template) == ce.value


# First counterexamples of two sampled runs, as the evaluator that
# preceded the batched one found them; the draw order and the witness
# order are part of the contract.
SAMPLE_GOLDENS = {
    "4": [
        'world=w2 value=F0 model={"worlds": ["w1", "w2", "w3"], "logics": {"w1": "J3", "w2": "CLW", "w3": "J3"}, "relation": [["w1", "w1"], ["w2", "w2"], ["w2", "w3"], ["w3", "w2"], ["w3", "w3"]], "valuation": {"w1": {"p": "F"}, "w2": {"p": "T0"}, "w3": {"p": "T"}}, "diamond": "up"}',
        'world=w1 value=F model={"worlds": ["w1", "w2", "w3"], "logics": {"w1": "LETK", "w2": "CLS", "w3": "CLS"}, "relation": [["w1", "w1"], ["w1", "w3"], ["w2", "w1"], ["w2", "w2"], ["w2", "w3"], ["w3", "w1"], ["w3", "w3"]], "valuation": {"w1": {"p": "b"}, "w2": {"p": "F"}, "w3": {"p": "T"}}, "diamond": "up"}',
        'world=w2 value=F0 model={"worlds": ["w1", "w2", "w3"], "logics": {"w1": "CLS", "w2": "LP", "w3": "LJ4"}, "relation": [["w1", "w1"], ["w1", "w2"], ["w2", "w1"], ["w2", "w2"], ["w3", "w3"]], "valuation": {"w1": {"p": "T"}, "w2": {"p": "b"}, "w3": {"p": "T"}}, "diamond": "up"}',
        'world=w1 value=F0 model={"worlds": ["w1", "w2", "w3"], "logics": {"w1": "LETK", "w2": "CLW", "w3": "K3"}, "relation": [["w1", "w1"], ["w1", "w2"], ["w2", "w1"], ["w2", "w2"], ["w3", "w3"]], "valuation": {"w1": {"p": "b"}, "w2": {"p": "T0"}, "w3": {"p": "F0"}}, "diamond": "up"}',
    ],
    "K": [],
    "5": [
        'world=w2 value=F model={"worlds": ["w1", "w2", "w3"], "logics": {"w1": "K3", "w2": "CLS", "w3": "LJ4"}, "relation": [["w1", "w3"], ["w2", "w1"], ["w2", "w3"], ["w3", "w2"], ["w3", "w3"]], "valuation": {"w1": {"p": "n"}, "w2": {"p": "T"}, "w3": {"p": "T"}}, "diamond": "down"}',
        'world=w1 value=F0 model={"worlds": ["w1", "w2", "w3"], "logics": {"w1": "FDE", "w2": "J3", "w3": "LETK"}, "relation": [["w1", "w1"], ["w1", "w3"], ["w2", "w2"], ["w3", "w1"]], "valuation": {"w1": {"p": "F0"}, "w2": {"p": "b"}, "w3": {"p": "T0"}}, "diamond": "down"}',
        'world=w3 value=F0 model={"worlds": ["w1", "w2", "w3"], "logics": {"w1": "LP", "w2": "CLS", "w3": "CLW"}, "relation": [["w1", "w3"], ["w2", "w2"], ["w3", "w1"], ["w3", "w3"]], "valuation": {"w1": {"p": "T0"}, "w2": {"p": "F"}, "w3": {"p": "F0"}}, "diamond": "down"}',
    ],
    # two atoms: pins the order in which a sample draws its valuation
    "p -> []q": [
        'world=w2 value=n model={"worlds": ["w1", "w2", "w3"], "logics": {"w1": "LJ4", "w2": "K3", "w3": "FDE"}, "relation": [["w1", "w1"], ["w1", "w2"], ["w2", "w1"], ["w2", "w2"]], "valuation": {"w1": {"p": "F", "q": "n"}, "w2": {"p": "T0", "q": "T0"}, "w3": {"p": "F0", "q": "n"}}, "diamond": "down"}',
        'world=w2 value=n model={"worlds": ["w1", "w2", "w3"], "logics": {"w1": "J3", "w2": "FDE", "w3": "L3"}, "relation": [["w2", "w3"], ["w3", "w1"]], "valuation": {"w1": {"p": "F", "q": "b"}, "w2": {"p": "b", "q": "b"}, "w3": {"p": "n", "q": "n"}}, "diamond": "down"}',
    ],
}


def test_sampled_counterexamples_match_the_goldens():
    runs = {
        "4": sample_schema(SCHEMAS["4"], 3, LOGIC_IDS, samples=5000,
                           relation_transform=transitive_closure, max_counterexamples=4),
        "K": sample_schema(SCHEMAS["K"], 3, LOGIC_IDS, "down", samples=2000,
                           max_counterexamples=3),
        "5": sample_schema(SCHEMAS["5"], 3, LOGIC_IDS, "down", samples=2000,
                           max_counterexamples=3),
        "p -> []q": sample_schema(AxiomSchema("pq", parse("p -> []q")), 3,
                                  LOGIC_IDS, "down", samples=2000, seed=4,
                                  max_counterexamples=2),
    }
    for sid, out in runs.items():
        assert out.frames_checked == out.models_checked == (5000 if sid == "4" else 2000)
        assert [describe_counterexample(c) for c in out.counterexamples] == SAMPLE_GOLDENS[sid]


def test_axiom5_fixture_and_variants(fixtures):
    fr = load_frame(fixtures / "euclid3.json")
    assert frame_properties(fr).euclidean
    res = axiom_valid_on_frame(fr._replace(diamond="down"), SCHEMAS["5"])
    assert not res.valid
    assert res.counterexample.world == "w1"
    assert res.counterexample.value == V.F0
    # the bundled countermodel valuation stops failing at w1 under the up variant
    model = Model(fr.worlds, fr.relation, dict(fr.logics),
                  {"w1": {"p": V.F0}, "w2": {"p": V.F0}, "w3": {"p": V.b}}, "up")
    value = eval_formula(model, "w1", parse("<>p -> []<>p"))
    assert model.logic("w1").is_designated(value)


def test_a_frame_check_reads_the_frames_diamond(fixtures, tmp_path):
    # README: euclid3.json validates axiom 5 under cnegbox alone; the check
    # used to read the up diamond unless a variant was passed as well
    doc = json.loads((fixtures / "euclid3.json").read_text())
    path = tmp_path / "euclid3-cnegbox.json"
    path.write_text(json.dumps(dict(doc, diamond="cnegbox")))
    fr = load_frame(path)
    for samples in (None, 300):
        assert axiom_valid_on_frame(fr, SCHEMAS["5"], samples).valid
        for variant in ("up", "down", "negbox"):
            res = axiom_valid_on_frame(fr._replace(diamond=variant), SCHEMAS["5"], samples)
            assert not res.valid
            assert res.counterexample.model.diamond == variant
            ce = res.counterexample
            assert eval_formula(ce.model, ce.world, SCHEMAS["5"].template) == ce.value


def test_five_c_characterization_over_the_mixed_subset():
    report = five_c_characterization(("FDE", "K3", "LP", "LJ4", "CLW"), max_worlds=2)
    assert report.characterization_holds


def test_five_c_fails_somewhere_over_all_nine():
    report = five_c_characterization(LOGIC_IDS, max_worlds=2, max_counterexamples=1)
    assert report.euclidean_failures
    ce = report.euclidean_failures[0]
    assert frame_properties(ce.model.frame).euclidean
    got = eval_formula(ce.model, ce.world, SCHEMAS["5c"].template)
    assert got == ce.value
    # hand-built instance of the same phenomenon with the classical pair
    worlds = ("w1", "w2")
    model = Model(worlds, frozenset({("w1", "w2"), ("w2", "w2")}),
                  {"w1": "CLS", "w2": "CLW"}, {"w1": {"p": V.T}, "w2": {"p": V.F0}})
    assert frame_properties(model.frame).euclidean
    assert eval_formula(model, "w1", parse("<>~p")) == V.T
    assert eval_formula(model, "w1", parse("[]<>~p")) == V.F
    assert not holds(model, "w1", parse("<>~p -> []<>~p"))


WINDOW_KEEPERS = ("LETK", "FDE", "LJ4", "K3", "LP", "CLW", "CLS")


def test_classical_range_is_kept_by_modal_stacks_where_interpretations_allow():
    # modal stacks over ~p stay in {T,T0,F0,F} as long as every lattice's
    # down/up maps keep that window; the strong three-valued lattices break
    # the premise (see the companion test)
    window = {V.T, V.T0, V.F0, V.F}
    worlds = ("w1", "w2")
    rng = Random(3)
    for _ in range(300):
        lids = [rng.choice(WINDOW_KEEPERS) for _ in worlds]
        rel = frozenset(p for p in [("w1", "w1"), ("w1", "w2"), ("w2", "w1"), ("w2", "w2")]
                        if rng.random() < 0.5)
        valuation = {
            w: {"p": rng.choice(LOGICS[l].lattice.elements)} for w, l in zip(worlds, lids)
        }
        model = Model(worlds, rel, dict(zip(worlds, lids)), valuation)
        for text in ("~p", "<>~p", "[]<>~p", "[]~p", "<>[]~p"):
            for w in worlds:
                assert eval_formula(model, w, parse(text)) in window


def test_classical_range_leaks_through_strong_three_valued_worlds():
    from manylogic.lattices import LATTICES

    assert LATTICES["N3s"].down(V.T0) == V.n
    assert LATTICES["B3s"].down(V.T0) == V.b
    model = Model(("w1", "w2"), frozenset({("w2", "w1")}),
                  {"w1": "LETK", "w2": "L3"},
                  {"w1": {"p": V.n}, "w2": {"p": V.F}})
    assert eval_formula(model, "w1", parse("~p")) == V.T0
    assert eval_formula(model, "w2", parse("[]~p")) == V.n


def test_five_c_window_assertion_matches_the_scope():
    subset = five_c_characterization(("FDE", "K3", "LP", "LJ4", "CLW"), max_worlds=2)
    assert subset.window_violations == 0
    full = five_c_characterization(LOGIC_IDS, max_worlds=2, max_counterexamples=1)
    assert full.window_violations > 0


def test_each_theorem_rows_predicate_and_closure_name_one_frame_class():
    # the sweeps select frames by frame_pred, the samples close a drawn relation by closure
    from manylogic.frames import _rel_props, _relations

    for sid in ("T", "4"):
        thm = THEOREMS[sid]
        for n in (1, 2, 3):
            for rel in _relations(n):
                closed = thm.closure(rel, n)
                assert (closed == rel) == thm.frame_pred(_rel_props(rel, n)), (sid, sorted(rel))
                assert thm.frame_pred(_rel_props(closed, n)), (sid, sorted(rel))


def test_duality_on_two_world_models():
    report = duality_check(LOGIC_IDS)
    assert report.holds


def test_five_c_lists_each_non_euclidean_frame_that_satisfies_the_schema(monkeypatch):
    # under a template valid on every frame, every non-Euclidean relation
    # comes back, with its logic assignment, as a row against the result
    from manylogic import frames

    monkeypatch.setitem(SCHEMAS, "5c", AxiomSchema("5c", parse("p -> p")))
    report = five_c_characterization(("K3",), max_worlds=2)
    worlds = ("w1", "w2")
    pairs = [(a, b) for a in worlds for b in worlds]
    relations = [frozenset(compress(pairs, keep)) for keep in product((0, 1), repeat=4)]
    non_euclidean = sum(not frame_properties(frame(worlds, rel, {})).euclidean for rel in relations)
    assert len(report.non_euclidean_valid) == non_euclidean == 9
    assert report.non_euclidean_valid[0] == "[w1->w2] logics K3,K3"
    assert report.euclidean_failures == () and not report.characterization_holds


def test_duality_lists_the_models_where_the_two_sides_differ(monkeypatch):
    # compiled under the down diamond, <>A joins down-interpreted values,
    # which !box!A under the up reading does not match everywhere
    from manylogic import frames, models

    monkeypatch.setattr(frames, "compile_program", lambda f, _, names: models.compile_program(f, "down", names))
    report = duality_check(("LETK", "K3"))
    assert not report.holds and len(report.mismatches) == 5  # at most five are reported
    assert report.mismatches[0] == "A=p rel=[(0, 1)] world=w1 <>A=F0 !box!A=T0"


def test_compound_instances_add_no_new_counterexamples():
    # schema validity with a fresh atom subsumes instance validity
    rng = Random(11)
    compounds = [parse(s) for s in ("~p", "p & q", "@p", "!p | q", "p -> @q")]
    checked = 0
    while checked < 12:
        worlds = ("w1", "w2")
        rel = frozenset(
            p for p in [("w1", "w1"), ("w1", "w2"), ("w2", "w1"), ("w2", "w2")]
            if rng.random() < 0.6
        )
        lids = {w: rng.choice(LOGIC_IDS) for w in worlds}
        fr = Frame(worlds, rel, lids)
        if not frame_properties(fr).reflexive:
            continue
        checked += 1
        assert axiom_valid_on_frame(fr, SCHEMAS["T"]).valid
        for body in compounds:
            inst = substitute(SCHEMAS["T"].template, {"p": body})
            schema = AxiomSchema("T-instance", inst)
            res = axiom_valid_on_frame(schema=schema, frame=fr)
            assert res.valid, (to_text(inst), lids)


def test_single_reflexive_world_validates_every_schema():
    for lid in LOGIC_IDS:
        fr = Frame(("w1",), frozenset({("w1", "w1")}), {"w1": lid})
        for sid, schema in SCHEMAS.items():
            res = axiom_valid_on_frame(fr, schema)
            assert res.valid, (lid, sid)


def test_budget_errors():
    worlds = tuple(f"w{i}" for i in range(4))
    fr = Frame(worlds, frozenset(), {w: "FDE" for w in worlds})
    with pytest.raises(BudgetError):
        axiom_valid_on_frame(fr, SCHEMAS["T"])
    small = Frame(("w1",), frozenset(), {"w1": "FDE"})
    for samples in (0, -1):
        with pytest.raises(BudgetError):
            axiom_valid_on_frame(small, SCHEMAS["K"], samples)
        with pytest.raises(BudgetError):
            sample_schema(SCHEMAS["K"], 2, LOGIC_IDS, samples=samples)


def test_program_evaluator_agrees_with_the_model_evaluator():
    # the compiled program evaluator behind every sweep and the recursive
    # reference evaluator (the model evaluator eval_formula replaced) are
    # independent paths; they must agree value-for-value under every
    # diamond variant, on a batch of valuations per model, with at least
    # one world that has no successors
    from test_models import reference_eval

    from manylogic.frames import _LOGIC_INDEX, _eval_slots, compile_program

    rng = Random(23)
    texts = ("p", "!q", "[]p", "<>q", "[](p -> q) -> ([]p -> []q)",
             "<>~p -> []<>~p", "@p & <>(p | q)", "~[]~q", "<>[]p -> []<>#")
    progs = {
        (variant, text): compile_program(parse(text), variant, ("p", "q"))
        for variant in DIAMOND_VARIANTS for text in texts
    }
    batch = 3
    for _ in range(60):
        n = rng.randint(1, 3)
        worlds = tuple(f"w{i}" for i in range(1, n + 1))
        lids = [rng.choice(LOGIC_IDS) for _ in worlds]
        dead_end = rng.randrange(n)
        rel_pairs = [
            (i, j) for i in range(n) for j in range(n) if i != dead_end and rng.random() < 0.5
        ]
        edges = [[(j, None, None) for i, j in rel_pairs if i == w] for w in range(n)]
        valuations = [
            {
                worlds[w]: {
                    a: rng.choice(LOGICS[lids[w]].lattice.elements) for a in ("p", "q")
                }
                for w in range(n)
            }
            for _ in range(batch)
        ]
        lat = [np.full(batch, 16 * _LOGIC_INDEX[l], dtype=np.int16) for l in lids]
        vals = [
            [MASK_OF[[int(v[worlds[w]][a]) for v in valuations]] for w in range(n)]
            for a in ("p", "q")
        ]
        relation = frozenset((worlds[i], worlds[j]) for i, j in rel_pairs)
        for variant in DIAMOND_VARIANTS:
            for text in texts:
                fast = _eval_slots(progs[variant, text], edges, lat, vals)[-1]
                for k, valuation in enumerate(valuations):
                    model = Model(worlds, relation, dict(zip(worlds, lids)), valuation, variant)
                    for w in range(n):
                        want = reference_eval(model, worlds[w], parse(text))
                        assert V(int(CODE_OF[fast[w][k]])) == want, (variant, text, model, worlds[w])


def test_sweeps_are_deterministic():
    a = sweep_schema(SCHEMAS["4"], 2, ("FDE", "K3", "LP"), relation_pred=lambda p: p.transitive)
    b = sweep_schema(SCHEMAS["4"], 2, ("FDE", "K3", "LP"), relation_pred=lambda p: p.transitive)
    assert a == b
    # the box-iteration failure already lives inside the weak subset
    assert a.counterexamples
    assert set(a.counterexamples[0].model.logics.values()) <= {"FDE", "K3", "LP"}


def test_sampled_mode_handles_larger_frames():
    worlds = tuple(f"w{i}" for i in range(1, 5))
    rel = frozenset((a, b) for a in worlds for b in worlds)
    fr = Frame(worlds, rel, {w: "FDE" for w in worlds})
    res = axiom_valid_on_frame(fr, SCHEMAS["K"], samples=500)
    assert res.valid and res.models_checked == 500


def test_theorem_suite_shape():
    report = theorem_suite(samples=300)
    names = [item.name for item in report.items]
    assert names == ["K", "T", "4", "5c-euclidean", "duality", "B", "D"]
    by_name = {item.name: item for item in report.items}
    assert by_name["K"].passed
    assert by_name["T"].passed
    assert not by_name["4"].passed  # honest finding, see the ledger
    assert by_name["5c-euclidean"].passed
    assert by_name["duality"].passed
    assert by_name["B"].passed and by_name["D"].passed  # observation-only
    assert report.seed == DEFAULT_SEED


def test_sampled_checks_refuse_more_than_the_cap():
    from manylogic.frames import MAX_SAMPLES, THEOREMS, run_theorem

    assert MAX_SAMPLES >= 10_000  # the largest budget the checklist and the CLI use
    small = Frame(("w1",), frozenset(), {"w1": "FDE"})
    for samples in (MAX_SAMPLES + 1, 10**20):
        with pytest.raises(BudgetError, match=f"at most {MAX_SAMPLES}"):
            axiom_valid_on_frame(small, SCHEMAS["K"], samples)
        with pytest.raises(BudgetError, match=f"at most {MAX_SAMPLES}"):
            sample_schema(SCHEMAS["K"], 2, LOGIC_IDS, samples=samples)
        with pytest.raises(BudgetError, match=f"at most {MAX_SAMPLES}"):
            run_theorem(THEOREMS["K"], LOGIC_IDS, samples)


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail at once if a sampled check draws or starts sweeping."""
    import manylogic.frames as frames_mod

    def refuse(*args, **kwargs):
        raise AssertionError("a sampled check drew or swept before refusing its budget")

    for name in ("Random", "_choose", "_sample_draws", "sweep_schema"):
        monkeypatch.setattr(frames_mod, name, refuse)


def _sampled_calls(fixtures, samples, seed):
    from manylogic.frames import THEOREMS, run_theorem

    euclid3 = load_frame(fixtures / "euclid3.json")
    calls = (
        lambda: sample_schema(SCHEMAS["5"], 3, LOGIC_IDS, samples=samples, seed=seed),
        lambda: run_theorem(THEOREMS["K"], LOGIC_IDS, samples, seed),
        lambda: theorem_suite(("K3",), ("K3",), samples, seed),
    )
    if samples is None:  # no sample count: axiom_valid_on_frame checks exhaustively
        return calls
    return (lambda: axiom_valid_on_frame(euclid3, SCHEMAS["5"], samples, seed),) + calls


@pytest.mark.parametrize("samples", (3.0, 2.5, True, "3", None))
def test_sampled_checks_refuse_a_sample_count_that_is_not_an_int(no_sampling, fixtures, samples):
    # a float, bool or str used to fail deep inside numpy with a bare TypeError
    for call in _sampled_calls(fixtures, samples, DEFAULT_SEED):
        with pytest.raises(TypeError, match=f"^expected an int as a sample count, got {type(samples).__name__}$"):
            call()


@pytest.mark.parametrize("seed", (None, 1.0, False, "7"))
def test_sampled_checks_refuse_a_seed_that_is_not_an_int(no_sampling, fixtures, seed):
    # None seeded the draws from the operating system: the same call gave
    # different verdicts from one run to the next
    for call in _sampled_calls(fixtures, 3, seed):
        with pytest.raises(TypeError, match=f"^expected an int as a seed, got {type(seed).__name__}$"):
            call()


def test_a_schema_is_its_id_and_template_and_reads_its_atoms_off_the_template():
    # the atoms are the template's, in name order: the order of the valuation axis
    assert AxiomSchema._fields == ("id", "template")
    assert {sid: s.atoms for sid, s in SCHEMAS.items()} == {
        "K": ("p", "q"), "T": ("p",), "4": ("p",), "5": ("p",), "5c": ("p",), "B": ("p",), "D": ("p",),
    }
    assert AxiomSchema("X", parse("[]r -> (q | p)")).atoms == ("p", "q", "r")
    with pytest.raises(TypeError):
        AxiomSchema("T", parse("[]p -> p"), ("p",))
    # one K3 world, with and without its loop, is 2 frames of 3 ** atoms valuations
    assert sweep_schema(SCHEMAS["T"], 1, ["K3"]).models_checked == 2 * 3
    out = sweep_schema(AxiomSchema("X", parse("q -> p")), 1, ["K3"])
    ce = out.counterexamples[0]
    assert out.models_checked == 2 * 9 and set(ce.model.valuation["w1"]) == {"p", "q"}
    assert eval_formula(ce.model, ce.world, parse("q -> p")) == ce.value


@pytest.mark.parametrize("check", [
    lambda schema, one: sweep_schema(schema, 1, ["K3"]).counterexamples[0],
    lambda schema, one: sample_schema(schema, 1, ["K3"], samples=50).counterexamples[0],
    lambda schema, one: axiom_valid_on_frame(one, schema).counterexample,
    lambda schema, one: axiom_valid_on_frame(one, schema, 50).counterexample,
], ids=["sweep", "sample", "frame", "frame-sampled"])
def test_each_frame_check_values_every_template_atom_in_its_witness(check):
    # the template names q before p and the axis takes them in name order;
    # each check's witness values both atoms and fails the template there
    one = Frame(("w1",), frozenset(), {"w1": "K3"})
    template = parse("[]q -> p")
    ce = check(AxiomSchema("X", template), one)
    assert set(ce.model.valuation["w1"]) == {"p", "q"}
    assert eval_formula(ce.model, ce.world, template) == ce.value
    assert not holds(ce.model, ce.world, template)


# ------------------------------------------- mask codes, draws, evaluator

def test_birkhoff_masks_fold_like_every_lattice():
    # a value's mask is the set of base join-irreducibles {F0, n, b, T}
    # beneath it; in every lattice the meet of a multiset is down of the
    # AND of its masks and the join is up of the OR, down(15) is the top
    # and up(0) the bottom
    from itertools import combinations_with_replacement

    from manylogic.frames import DOWN_M, UP_M

    assert MASK_OF[[V.F, V.F0, V.n, V.b, V.T0, V.T]].tolist() == [0, 1, 3, 5, 7, 15]
    for li, lid in enumerate(LOGIC_IDS):
        lat = LOGICS[lid].lattice

        def down(m):
            return V(int(CODE_OF[DOWN_M[16 * li | m]]))

        def up(m):
            return V(int(CODE_OF[UP_M[16 * li | m]]))

        assert down(15) == lat.top and up(0) == lat.bottom
        for k in range(1, 5):
            for xs in combinations_with_replacement(lat.elements, k):
                masks = MASK_OF[list(xs)]
                assert down(np.bitwise_and.reduce(masks)) == lat.meet_set(xs), (lid, xs)
                assert up(np.bitwise_or.reduce(masks)) == lat.join_set(xs), (lid, xs)
            # what the box and the up diamond fold: values from any lattice,
            # interpreted into this one edge by edge, or all at once
            for xs in combinations_with_replacement(tuple(V), k):
                masks = MASK_OF[list(xs)]
                assert down(np.bitwise_and.reduce(masks)) == lat.meet_set(map(lat.down, xs))
                assert up(np.bitwise_or.reduce(masks)) == lat.join_set(map(lat.up, xs))


DRAW_SEEDS = (0, -1, 2**32 + 5, 2**70 + 3)


def test_word_stream_draws_what_random_draws():
    # the decoded draws are Random(seed)'s, draw for draw: if a Python
    # changes Random's internals this fails, instead of every sampled
    # witness changing without notice
    runs = [(m, count) for count in (1, 2, 300, 5000) for m in (2, 3, 4, 6, 1, 9)]
    for seed in DRAW_SEEDS:
        rng = Random(seed)
        want = [[rng.choice(range(m)) for _ in range(count)] for m, count in runs]
        tail = [rng.choice(range(5)) for _ in range(3)]
        rng = Random(seed)
        assert [list(_choose(rng, bytes(range(m)), count)) for m, count in runs] == want, seed
        assert list(_choose(rng, bytes(range(5)), 3)) == tail  # and it stops where Random stops


def test_sample_draws_match_random_on_every_logic_set():
    # each lane's table row and mask, drawn from logic indices, are what
    # Random picks among the logics and then among the world's elements
    from manylogic.frames import _sample_draws

    rng = Random(17)
    for k in range(1, 10):
        indices = rng.sample(range(9), k)
        sizes = [ELEMENT_MASKS[i].size for i in indices]  # lattice sizes 6, 4, 3 and 2
        shapes = [(1, 1, 1), (2, 2, 7), (3, 1, 400), (3, 2, 60)]
        if k == 9:
            shapes.append((3, 2, 3000))  # a long run of draws
        for n_worlds, n_atoms, samples in shapes:
            for seed in DRAW_SEEDS[k % 2::2]:
                ref = Random(seed)
                want = []
                for _ in range(samples):
                    bits = [ref.random() < 0.5 for _ in range(n_worlds * n_worlds)]
                    logic = [ref.choice(range(k)) for _ in range(n_worlds)]
                    picks = [[ref.choice(range(sizes[c])) for c in logic] for _ in range(n_atoms)]
                    want.append((
                        sum(b << t for t, b in enumerate(bits)),
                        [16 * indices[c] for c in logic],
                        [[int(ELEMENT_MASKS[indices[c]][e]) for c, e in zip(logic, at)] for at in picks],
                    ))
                patterns, rows, masks = _sample_draws(Random(seed), samples, n_worlds, indices, n_atoms)
                assert all(type(r) is bytes for r in rows) and all(type(m) is bytes for at in masks for m in at)
                got = [
                    (patterns[j], [r[j] for r in rows], [[m[j] for m in at] for at in masks])
                    for j in range(samples)
                ]
                assert got == want, (indices, n_worlds, n_atoms, samples, seed)


def _meshgrid_axis(n_worlds, interps, atoms):
    """The axis builder on numpy's meshgrid that the byte grid replaced,
    kept as its reference: (interps, bounds, lat, vals) as `_Axis` holds
    them."""
    interps = tuple(interps)
    lat_parts = [[] for _ in range(n_worlds)]
    val_parts = [[[] for _ in range(n_worlds)] for _ in range(atoms)]
    bounds = [0]
    for interp in interps:
        dims = [ELEMENT_MASKS[interp[w]] for _ in range(atoms) for w in range(n_worlds)]
        count = int(np.prod([d.size for d in dims]))
        grids = np.meshgrid(*dims, indexing="ij") if dims else []
        flat = [g.reshape(-1) for g in grids]
        k = 0
        for a in range(atoms):
            for w in range(n_worlds):
                val_parts[a][w].append(flat[k])
                k += 1
        for w in range(n_worlds):
            lat_parts[w].append(np.full(count, 16 * interp[w], dtype=np.int16))
        bounds.append(bounds[-1] + count)
    lat = tuple(np.concatenate(parts) for parts in lat_parts)
    vals = tuple(
        tuple(np.concatenate(val_parts[a][w]) for w in range(n_worlds))
        for a in range(atoms)
    )
    return interps, np.array(bounds), lat, vals


def test_byte_grid_axis_matches_the_meshgrid_axis():
    # interps, bounds, the int16 table rows and the uint8 masks, exactly,
    # at 1-3 worlds, 0-2 atoms and logic sets of one to all nine logics
    from manylogic.frames import _build_axis, _load

    _load()
    rng = Random(41)
    sets = [tuple(rng.sample(range(9), k)) for k in range(1, 10)]
    for n, atoms, indices in product((1, 2, 3), (0, 1, 2), sets):
        if n == 3 and atoms == 2 and len(indices) > 4:  # 112**3 lanes over all nine
            continue
        got = _build_axis(n, product(indices, repeat=n), atoms)
        want = _meshgrid_axis(n, product(indices, repeat=n), atoms)
        case = (n, atoms, indices)
        assert got.interps == want[0], case
        assert got.bounds.tolist() == want[1].tolist(), case
        for g, w in zip(got.lat + sum(got.vals, ()), want[2] + sum(want[3], ())):
            assert (g.dtype, g.shape) == (w.dtype, w.shape) and np.array_equal(g, w), case
        assert [x.dtype for x in got.lat] == [np.int16] * n, case
        assert [x.dtype for at in got.vals for x in at] == [np.uint8] * n * atoms, case


@pytest.mark.parametrize("n_worlds", (7, 8, 9))
def test_sampled_checks_run_at_every_world_count(n_worlds):
    # at 8 worlds the 64-bit relation patterns became float64 in numpy and
    # the check raised TypeError; every counterexample replays
    for schema, closure in ((SCHEMAS["T"], None), (SCHEMAS["4"], transitive_closure), (SCHEMAS["5"], None)):
        out = sample_schema(schema, n_worlds, ("LETK", "K3", "LP", "CLS"), samples=300, seed=n_worlds,
                            relation_transform=closure, max_counterexamples=3)
        assert out.models_checked == out.frames_checked == 300
        assert out.counterexamples, schema.id
        for ce in out.counterexamples:
            assert len(ce.model.worlds) == n_worlds
            got = eval_formula(ce.model, ce.world, schema.template)
            assert got == ce.value and not ce.model.logic(ce.world).is_designated(got), schema.id


# The numpy check of one frame that the byte lanes replaced, with the word
# decoder and the witness it used, kept as their reference.

class _NumpyWords:
    """The words `Random(seed)` produces, read in bulk through getrandbits,
    and what `choice` picks from them: among n items it reads words until
    one is below n << (32 - k), k = n.bit_length(), and picks it >> (32 - k)."""

    def __init__(self, seed: int):
        self._rng = Random(seed)
        self._buf = np.empty(0, dtype=np.uint32)
        self._pos = 0

    def peek(self, count: int) -> np.ndarray:
        """The next `count` words, drawing only those not yet drawn."""
        short = self._pos + count - self._buf.size
        if short > 0:
            fresh = self._rng.getrandbits(32 * short).to_bytes(4 * short, "little")
            self._buf = np.concatenate([self._buf[self._pos:], np.frombuffer(fresh, "<u4")])
            self._pos = 0
        return self._buf[self._pos:self._pos + count]

    def below(self, n: int, count: int) -> np.ndarray:
        """The indices `count` successive `choice` calls on n items pick."""
        shift = 32 - n.bit_length()
        parts = []
        while count:  # enough words for all of them, as a rule
            w = self.peek(count * (1 << n.bit_length()) // n + 4 * isqrt(count) + 8)
            hits = np.flatnonzero(w < n << shift)[:count]
            parts.append(w[hits] >> shift)
            self._pos += int(hits[-1]) + 1 if hits.size == count else w.size
            count -= hits.size
        return np.concatenate(parts)


def _numpy_witness(j, root, lat, vals, worlds, relation, atom_names, variant):
    from manylogic.frames import DESIG_M, Counterexample

    n = len(worlds)
    model = Model(
        worlds,
        relation,
        {worlds[w]: LOGIC_IDS[lat[w][j] >> 4] for w in range(n)},
        {
            worlds[w]: {atom: V(int(CODE_OF[vals[a][w][j]])) for a, atom in enumerate(atom_names)}
            for w in range(n)
        },
        variant,
    )
    w = next(w for w in range(n) if not DESIG_M[lat[w][j] | root[w][j]])
    return Counterexample(model, worlds[w], V(int(CODE_OF[root[w][j]])))


def _numpy_axiom_valid_on_frame(frame, schema, samples=None, seed=DEFAULT_SEED):
    from manylogic import frames as fr

    succs = fr._world_axis(frame)[1]
    fr._load()
    n = len(frame.worlds)
    edges = [[(u, None, None) for u in succ] for succ in succs]
    interp = [fr._LOGIC_INDEX[frame.logics[w]] for w in frame.worlds]
    prog = fr.compile_program(schema.template, frame.diamond, schema.atoms)
    if samples is None:
        _, _, lat, vals = _meshgrid_axis(n, [interp], len(schema.atoms))
    else:
        words = _NumpyWords(seed)
        vals = tuple(
            tuple(ELEMENT_MASKS[li][words.below(ELEMENT_MASKS[li].size, samples)] for li in interp)
            for _ in schema.atoms
        )
        lat = tuple(np.full(samples, 16 * li, dtype=np.int16) for li in interp)
    root = fr._eval_slots(prog, edges, lat, vals)[-1]
    ok, _, first = fr._failures(root, lat, np.array([0, lat[0].size]), 1)  # one block
    bad = [_numpy_witness(j, root, lat, vals, frame.worlds, frame.relation, schema.atoms, frame.diamond)
           for j in first]
    return fr.CheckResult(not bad, bad[0] if bad else None, 1, ok.size)


def test_byte_lanes_check_a_frame_as_the_numpy_check_did():
    # whole results, the witness's JSON text included (its logics in world
    # order), on seeded frames over every logic, schema and variant:
    # exhaustive at 1-3 worlds, sampled at 1-8 with 1 to 5,000 samples
    rng = Random(27)
    counts, used, k = (1, 2, 47, 300, 5000), set(), 0
    for schema, variant in product(SCHEMAS.values(), DIAMOND_VARIANTS):
        for n, samples in [(n, None) for n in (1, 2, 3)] + [(n, counts[(n + k) % 5]) for n in range(1, 9)]:
            k += 1
            worlds = tuple(f"w{i}" for i in range(1, n + 1))
            logics = {w: rng.choice(LOGIC_IDS) for w in worlds}
            used.update(logics.values())
            relation = [(u, v) for u in worlds for v in worlds if rng.random() < 0.4]
            fr = frame(worlds, relation, logics)._replace(diamond=variant)
            seed = rng.choice((rng.randrange(2**32), -rng.randrange(2**40)))
            got = axiom_valid_on_frame(fr, schema, samples, seed)
            want = _numpy_axiom_valid_on_frame(fr, schema, samples, seed)
            assert got == want, (schema.id, variant, n, samples, seed, logics, relation)
            if not got.valid:
                assert describe_counterexample(got.counterexample) == describe_counterexample(want.counterexample)
    assert used == set(LOGIC_IDS)


def _int8_eval_slots(prog, succs, lat, vals):
    """The frame evaluator on int8 value codes that the mask evaluator
    replaced, kept as its reference: lat[w] holds logic indices, succs[w]
    the successors of w in every lane."""
    from manylogic.frames import BOT_T, CIRC_T, DOWN_T, IMP_T, JOIN_T, MEET_T, NEG_T, TOP_T, UP_T

    n = len(lat)
    slots = []
    for node in prog:
        kind = node[0]
        if kind == "atom":
            row = [vals[node[1]][w] for w in range(n)]
        elif kind == "bottom":
            row = [BOT_T[lat[w]] for w in range(n)]
        elif kind == "neg":
            row = [NEG_T[slots[node[1]][w]] for w in range(n)]
        elif kind == "circ":
            row = [CIRC_T[lat[w], slots[node[1]][w]] for w in range(n)]
        elif kind in ("and", "or", "imp"):
            tbl = {"and": MEET_T, "or": JOIN_T, "imp": IMP_T}[kind]
            l, r = slots[node[1]], slots[node[2]]
            row = [tbl[lat[w], l[w], r[w]] for w in range(n)]
        else:
            ch = slots[node[1]]
            fold, interp, unit = {
                "box": (MEET_T, DOWN_T, TOP_T),
                "dia_up": (JOIN_T, UP_T, BOT_T),
                "dia_down": (JOIN_T, DOWN_T, BOT_T),
            }[kind]
            row = []
            for w in range(n):
                acc = unit[lat[w]]
                for u in succs[w]:
                    acc = fold[lat[w], acc, interp[lat[w], ch[u]]]
                row.append(acc)
        slots.append(row)
    return slots


def test_mask_evaluator_matches_the_int8_evaluator_and_the_reference():
    # one batch mixes relations and logic assignments lane by lane, with
    # dead ends; every node of the mask evaluator agrees with the int8
    # evaluator run lane by lane, and every root with reference_eval
    from test_models import reference_eval

    from manylogic.frames import _eval_slots, compile_program

    rng = Random(31)
    texts = ("!q", "@p & <>(p | q)", "[](p -> q) -> ([]p -> []q)", "<>~p -> []<>~p",
             "~[]~q", "<>[]p -> []<>#", "p => <>q", "N[]p | <>@q")
    batch = 8
    for _ in range(30):
        n = rng.randint(1, 3)
        worlds = tuple(f"w{i}" for i in range(1, n + 1))
        lanes = []
        for _ in range(batch):
            lids = [rng.randrange(9) for _ in worlds]
            dead_end = rng.randrange(n + 1)  # n: no dead end forced
            rel = frozenset(
                (i, j) for i in range(n) for j in range(n) if i != dead_end and rng.random() < 0.5
            )
            picks = [[rng.choice(LOGICS[LOGIC_IDS[l]].lattice.elements) for l in lids] for _ in "pq"]
            lanes.append((lids, rel, picks))
        lat = [np.array([16 * lane[0][w] for lane in lanes], dtype=np.int16) for w in range(n)]
        vals = [[MASK_OF[[int(lane[2][a][w]) for lane in lanes]] for w in range(n)] for a in range(2)]
        edges = []
        for i in range(n):
            edges.append([])
            for j in range(n):
                present = np.array([15 * ((i, j) in lane[1]) for lane in lanes], dtype=np.uint8)
                edges[i].append((j, present, present ^ np.uint8(15)))
        for variant in DIAMOND_VARIANTS:
            for text in texts:
                prog = compile_program(parse(text), variant, ("p", "q"))
                fast = _eval_slots(prog, edges, lat, vals)
                for k, (lids, rel, picks) in enumerate(lanes):
                    succs = [[j for j in range(n) if (i, j) in rel] for i in range(n)]
                    old = _int8_eval_slots(
                        prog, succs, np.array(lids, dtype=np.int8),
                        [np.array([int(v) for v in picks[a]], dtype=np.int8) for a in range(2)],
                    )
                    for node in range(len(prog)):
                        got = [int(CODE_OF[fast[node][w][k]]) for w in range(n)]
                        assert got == [int(x) for x in old[node]], (variant, text, node, k)
                    model = Model(
                        worlds, frozenset((worlds[i], worlds[j]) for i, j in rel),
                        {w: LOGIC_IDS[l] for w, l in zip(worlds, lids)},
                        {w: {"p": picks[0][i], "q": picks[1][i]} for i, w in enumerate(worlds)},
                        variant,
                    )
                    for w in range(n):
                        want = reference_eval(model, worlds[w], parse(text))
                        assert V(int(CODE_OF[fast[-1][w][k]])) == want, (variant, text, k, w)


def test_every_row_a_sweep_yields_is_the_full_programs_row():
    # _sweep evaluates a depth-0 row once and a depth-1 row once per world
    # and successor set; every row it yields, not only the root (five_c
    # reads the modal rows, duality_check the root's children), is the
    # row full-program _eval_slots gives on the same relation
    from manylogic.frames import _LOGIC_INDEX, _build_axis, _eval_slots, _load, _sweep, compile_program

    _load()
    cases = [(n, schema, LOGIC_IDS) for n in (1, 2) for schema in SCHEMAS.values()]
    cases += [(3, schema, ("CLW", "K3")) for schema in SCHEMAS.values()]
    cases.append((3, SCHEMAS["5c"], ("FDE", "K3", "LP", "LJ4", "CLW")))  # AC11's logics
    for n, schema, logic_ids in cases:
        indices = [_LOGIC_INDEX[lid] for lid in logic_ids]
        axis = _build_axis(n, product(indices, repeat=n), len(schema.atoms))
        for variant in DIAMOND_VARIANTS:
            prog = compile_program(schema.template, variant, schema.atoms)
            swept = 0
            for rel, slots in _sweep(prog, n, axis):
                edges = [[(j, None, None) for j in range(n) if (i, j) in rel] for i in range(n)]
                full = _eval_slots(prog, edges, axis.lat, axis.vals)
                assert np.array_equal(slots, full), (schema.id, variant, logic_ids, sorted(rel))
                swept += 1
            assert swept == 2 ** (n * n)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail at once if a frame check starts compiling, building its axis,
    sweeping or drawing: an empty logic set used to make the draw loop run
    forever, and a lost world bound would sweep every 4-world frame."""
    import manylogic.frames as frames_mod

    def refuse(*args, **kwargs):
        raise AssertionError("a frame check built, swept or drew before refusing its arguments")

    for name in ("_sample_draws", "_build_axis", "_sweep", "compile_program"):
        monkeypatch.setattr(frames_mod, name, refuse)


def test_sample_schema_refuses_an_empty_logic_set_before_drawing(no_draws):
    for logic_ids in ([], (), iter(())):
        with pytest.raises(BudgetError, match="at least one logic"):
            sample_schema(SCHEMAS["K"], 2, logic_ids, samples=10)


@pytest.mark.parametrize("n_worlds", (0, -1))
def test_sweeps_refuse_a_world_count_below_one(no_draws, n_worlds):
    with pytest.raises(BudgetError, match="at least one world"):
        sweep_schema(SCHEMAS["K"], n_worlds, LOGIC_IDS)
    with pytest.raises(BudgetError, match="at least one world"):
        sample_schema(SCHEMAS["K"], n_worlds, LOGIC_IDS, samples=10)


# Each public check that takes a logic set.
_LOGIC_SET_CALLS = {
    "sweep": lambda ids: sweep_schema(SCHEMAS["K"], 1, ids),
    "sample": lambda ids: sample_schema(SCHEMAS["K"], 2, ids, samples=10),
    "five_c": lambda ids: five_c_characterization(ids),
    "duality": lambda ids: duality_check(ids),
    "suite": lambda ids: theorem_suite(logic_ids=ids),
    "suite_five_c": lambda ids: theorem_suite(five_c_logic_ids=ids),
}


@pytest.mark.parametrize("check", _LOGIC_SET_CALLS)
def test_frame_checks_refuse_unknown_and_empty_logic_sets(no_draws, check):
    with pytest.raises(BudgetError, match="unknown logic 'K4'; expected one of LETK, "):
        _LOGIC_SET_CALLS[check](("K3", "K4"))
    with pytest.raises(BudgetError, match="at least one logic"):
        _LOGIC_SET_CALLS[check](())


@pytest.mark.parametrize("check", _LOGIC_SET_CALLS)
def test_frame_checks_refuse_a_logic_named_twice(no_draws, check):
    # a doubled logic used to count its frames twice, and sample_schema
    # drew it twice as often
    for ids in (("K3", "K3"), ["LP", "K3", "LP"]):
        with pytest.raises(BudgetError, match=f"^logic '{ids[0]}' is named twice$"):
            _LOGIC_SET_CALLS[check](ids)


# Each public check that takes a logic set, at a small size.
_ONE_SHOT_CALLS = {
    "sweep": lambda ids: sweep_schema(SCHEMAS["4"], 2, ids),
    "sample": lambda ids: sample_schema(SCHEMAS["4"], 2, ids, samples=50),
    "five_c": lambda ids: five_c_characterization(ids, max_worlds=2),
    "duality": lambda ids: duality_check(ids),
    "theorem": lambda ids: run_theorem(THEOREMS["T"], ids, 20),
    "suite": lambda ids: theorem_suite(logic_ids=ids, five_c_logic_ids=("K3",), samples=20),
    "suite_five_c": lambda ids: theorem_suite(logic_ids=("K3",), five_c_logic_ids=ids, samples=20),
}


@pytest.mark.parametrize("check", _ONE_SHOT_CALLS)
def test_frame_checks_read_a_one_shot_logic_set_as_its_tuple(check):
    # five_c reported logic_ids=() for an iterator, and run_theorem and
    # theorem_suite refused one as naming no logic: each read it twice
    ids = ("K3", "LP")
    assert _ONE_SHOT_CALLS[check](iter(ids)) == _ONE_SHOT_CALLS[check](ids)


@pytest.mark.parametrize("max_worlds", (0, -1, 4, 5))
def test_five_c_refuses_a_world_bound_outside_one_to_three(no_draws, max_worlds):
    # 0 used to report a characterisation that held over no frame at all,
    # and 4 would sweep all 2^16 four-world relations
    with pytest.raises(BudgetError, match="at least one world|limited to 3 worlds"):
        five_c_characterization(("K3",), max_worlds=max_worlds)


@pytest.mark.parametrize(
    "call",
    (
        lambda k: sweep_schema(SCHEMAS["4"], 3, LOGIC_IDS, max_counterexamples=k),
        lambda k: sample_schema(SCHEMAS["4"], 3, LOGIC_IDS, samples=10, max_counterexamples=k),
        lambda k: five_c_characterization(LOGIC_IDS, max_counterexamples=k),
    ),
    ids=("sweep", "sample", "five_c"),
)
@pytest.mark.parametrize("limit", (0, -2))
def test_frame_checks_refuse_fewer_than_one_counterexample(no_draws, call, limit):
    # 0 used to report axiom 4, which fails, without a counterexample, and
    # a negative limit sliced the failures from the end
    message = f"^a frame check reports at least one counterexample, got {limit}$"
    with pytest.raises(BudgetError, match=message):
        call(limit)


# Each public check with a world count or a counterexample limit; a value
# that is not an int used to fail inside range() or a numpy slice with a
# bare TypeError, and True counted as 1.
_WORLD_COUNT_CALLS = {
    "sweep": lambda n: sweep_schema(SCHEMAS["K"], n, ["K3"]),
    "sample": lambda n: sample_schema(SCHEMAS["K"], n, ["K3"], samples=10),
    "five_c": lambda n: five_c_characterization(("K3",), max_worlds=n),
}
_LIMIT_CALLS = {
    "sweep": lambda k: sweep_schema(SCHEMAS["4"], 3, LOGIC_IDS, max_counterexamples=k),
    "sample": lambda k: sample_schema(SCHEMAS["4"], 3, LOGIC_IDS, samples=10, max_counterexamples=k),
    "five_c": lambda k: five_c_characterization(LOGIC_IDS, max_counterexamples=k),
}


@pytest.mark.parametrize("check", _WORLD_COUNT_CALLS)
@pytest.mark.parametrize("n_worlds", (1.0, 2.0, True, "2", None))
def test_frame_checks_refuse_a_world_count_that_is_not_an_int(no_draws, check, n_worlds):
    message = f"^expected an int as a world count, got {type(n_worlds).__name__}$"
    with pytest.raises(TypeError, match=message):
        _WORLD_COUNT_CALLS[check](n_worlds)


@pytest.mark.parametrize("check", _LIMIT_CALLS)
@pytest.mark.parametrize("limit", (1.5, 1.0, True, "3", None))
def test_frame_checks_refuse_a_counterexample_limit_that_is_not_an_int(no_draws, check, limit):
    message = f"^expected an int as a counterexample limit, got {type(limit).__name__}$"
    with pytest.raises(TypeError, match=message):
        _LIMIT_CALLS[check](limit)


def test_axiom_valid_on_frame_refuses_an_invalid_frame():
    from manylogic.models import ModelFormatError

    for bad, error in (
        (frame(("w1", "w2"), [("w1", "w3")], {"w1": "K3", "w2": "K3"}), "relation names unknown world 'w3'"),
        (frame(("w1", "w2"), [("w1", "w2")], {"w1": "K3"}), "world 'w2' has no logic"),
        (frame(("w1",), [], {"w1": "K4"}), "world 'w1' has unknown logic 'K4'"),
    ):
        for samples in (None, 5):
            with pytest.raises(ModelFormatError, match=f"^invalid frame: .*{error}"):
                axiom_valid_on_frame(bad, SCHEMAS["K"], samples)
