from itertools import chain, combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from manylogic.lattices import (
    LATTICES,
    SUBLATTICE_IDS,
    L6,
    LatticeError,
    base_leq,
    down_interpret,
    up_interpret,
    verify_lattice_laws,
)
from manylogic.values import Value as V

ALL_IDS = tuple(LATTICES)


def brute_bound(lat, xs, lower):
    """Independent glb/lub oracle: scan all members for the best bound."""
    if lower:
        cands = [z for z in lat.elements if all(base_leq(z, x) for x in xs)]
        best = [z for z in cands if all(base_leq(w, z) for w in cands)]
    else:
        cands = [z for z in lat.elements if all(base_leq(x, z) for x in xs)]
        best = [z for z in cands if all(base_leq(z, w) for w in cands)]
    assert len(best) == 1
    return best[0]


def subsets(xs):
    return chain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1))


def test_base_order_shape():
    assert base_leq(V.F, V.T)
    assert base_leq(V.b, V.T0) and base_leq(V.n, V.T0)
    assert not base_leq(V.n, V.b) and not base_leq(V.b, V.n)
    assert not base_leq(V.T0, V.b)
    # 6 reflexive plus 14 strict comparable pairs in the six-element order
    assert sum(base_leq(x, y) for x in V for y in V) == 20


def test_the_base_order_and_frame_checks_share_one_transitive_closure():
    from manylogic import frames, lattices

    assert frames.transitive_closure is lattices.transitive_closure
    assert lattices.transitive_closure({(1, 2), (2, 3), (3, 1)}, 3) == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)}


def test_leq_examples():
    assert L6.leq(V.b, V.T0)
    assert not L6.leq(V.n, V.b)
    for lid in ALL_IDS:
        lat = LATTICES[lid]
        for x in lat.elements:
            assert lat.leq(x, x)


def test_element_sets():
    members = {lid: set(map(str, LATTICES[lid].elements)) for lid in ALL_IDS}
    assert members["L6"] == {"T", "T0", "b", "n", "F0", "F"}
    assert members["L4w"] == {"T0", "b", "n", "F0"}
    assert members["L4s"] == {"T", "b", "n", "F"}
    assert members["B3w"] == {"T0", "b", "F0"}
    assert members["B3s"] == {"T", "b", "F"}
    assert members["N3w"] == {"T0", "n", "F0"}
    assert members["N3s"] == {"T", "n", "F"}
    assert members["C2w"] == {"T0", "F0"}
    assert members["C2s"] == {"T", "F"}


def test_meet_join_match_brute_force_bounds():
    for lid in ALL_IDS:
        lat = LATTICES[lid]
        for x in lat.elements:
            for y in lat.elements:
                assert lat.meet(x, y) == brute_bound(lat, (x, y), lower=True)
                assert lat.join(x, y) == brute_bound(lat, (x, y), lower=False)
        assert lat.top == brute_bound(lat, lat.elements, lower=False)
        assert lat.bottom == brute_bound(lat, lat.elements, lower=True)


def test_meet_set_examples():
    assert L6.meet_set([V.T, V.T0, V.b]) == V.b
    assert L6.meet_set([V.n]) == V.n
    assert LATTICES["L4s"].join_set([V.b, V.n]) == V.T
    # empty folds follow the complete-lattice convention
    for lid in ALL_IDS:
        lat = LATTICES[lid]
        assert lat.meet_set([]) == lat.top
        assert lat.join_set([]) == lat.bottom


def test_membership_errors():
    with pytest.raises(LatticeError):
        LATTICES["C2w"].meet(V.b, V.T0)
    with pytest.raises(LatticeError):
        LATTICES["L4s"].leq(V.T0, V.T)


def test_down_interpretation_spot_values():
    assert down_interpret(V.b, LATTICES["N3w"]) == V.F0
    assert down_interpret(V.n, LATTICES["B3w"]) == V.F0
    assert down_interpret(V.T0, LATTICES["L4s"]) == V.T
    assert down_interpret(V.T, LATTICES["C2w"]) == V.T0
    assert down_interpret(V.n, LATTICES["C2w"]) == V.F0
    assert down_interpret(V.T0, LATTICES["C2s"]) == V.F
    assert down_interpret(V.b, LATTICES["C2w"]) == V.F0


def test_up_interpretation_spot_values():
    assert up_interpret(V.b, LATTICES["N3w"]) == V.T0
    assert up_interpret(V.F0, LATTICES["L4s"]) == V.F
    assert up_interpret(V.T, LATTICES["L4w"]) == V.T0
    assert up_interpret(V.F, LATTICES["L4w"]) == V.F0


def test_interpretations_fix_members():
    for lid in ALL_IDS:
        lat = LATTICES[lid]
        for x in lat.elements:
            assert down_interpret(x, lat) == x
            assert up_interpret(x, lat) == x


def test_down_against_lower_set_oracle():
    for lid in ALL_IDS:
        lat = LATTICES[lid]
        for x in V:
            lower = [y for y in lat.elements if base_leq(y, x)]
            assert down_interpret(x, lat) == lat.join_set(lower)
            upper = [y for y in lat.elements if base_leq(x, y)]
            assert up_interpret(x, lat) == lat.meet_set(upper)


def test_down_monotone_exhaustive():
    for lid in SUBLATTICE_IDS:
        lat = LATTICES[lid]
        for x in V:
            for y in V:
                if base_leq(x, y):
                    assert base_leq(lat.down(x), lat.down(y))


def test_meet_commutes_with_down_instance():
    l4s = LATTICES["L4s"]
    assert L6.meet(V.n, V.b) == V.F0
    assert l4s.meet(l4s.down(V.n), l4s.down(V.b)) == V.F
    assert l4s.down(V.F0) == V.F


def test_monotonicity_instance_into_two_values():
    c2w = LATTICES["C2w"]
    assert base_leq(V.b, V.T0)
    assert base_leq(c2w.down(V.b), c2w.down(V.T0))
    assert (c2w.down(V.b), c2w.down(V.T0)) == (V.F0, V.T0)


def test_law_reports_all_pass():
    for lid in ALL_IDS:
        report = verify_lattice_laws(LATTICES[lid])
        failed = [r for r in report.results if not r.holds]
        assert not failed, (lid, failed)
        names = {r.law for r in report.results}
        assert {
            "complete",
            "down_monotone",
            "subset_bounds_match_down",
            "interp_bounds",
            "pair_meet_shrinks_join_grows",
            "meet_commutes_with_down",
            "meet_distributes_over_joins",
        } <= names


def test_pair_bounds_can_differ_from_base():
    # the one place where recomputing bounds inside the subset matters
    l4s = LATTICES["L4s"]
    assert l4s.meet(V.b, V.n) == V.F != L6.meet(V.b, V.n)
    assert l4s.join(V.b, V.n) == V.T != L6.join(V.b, V.n)


@given(
    lid=st.sampled_from(SUBLATTICE_IDS),
    xs=st.sets(st.sampled_from(list(V)), min_size=1),
)
def test_subset_join_equals_down_of_base_join(lid, xs):
    lat = LATTICES[lid]
    inside = [x for x in xs if x in lat.members]
    if inside:
        assert lat.join_set(inside) == lat.down(L6.join_set(inside))
        assert lat.meet_set(inside) == lat.down(L6.meet_set(inside))


@given(
    lid=st.sampled_from(SUBLATTICE_IDS),
    xs=st.sets(st.sampled_from(list(V)), min_size=1),
)
def test_interpreted_bounds_bracket_base_bounds(lid, xs):
    lat = LATTICES[lid]
    downed = [lat.down(x) for x in xs]
    assert base_leq(lat.join_set(downed), lat.down(L6.join_set(xs)))
    assert base_leq(lat.down(L6.meet_set(xs)), lat.meet_set(downed))
