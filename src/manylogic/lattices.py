"""The base six-element lattice, its eight down-complete sublattices, and
the maps that move values between them.

The base order is the chain F < F0 < {n, b} < T0 < T with n and b
incomparable.  A sublattice keeps the restricted order but recomputes its
meets and joins inside the subset, which matters exactly once: in L4s the
pair {b, n} has meet F and join T, not F0 and T0.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, combinations
from operator import and_, or_
from typing import Iterable, NamedTuple

from .values import Frozen, ManylogicError, Value, require_type

V = Value


class LatticeError(ManylogicError):
    """An element outside the lattice."""


# A value's mask is the set of base join-irreducibles {F0, n, b, T} beneath
# it (Birkhoff), as bits 1, 2, 4 and 8: F=0, F0=1, n=3, b=5, T0=7, T=15.
# The base order is inclusion of masks, the base meet AND and the join OR.
MASK: tuple[int, ...] = (15, 7, 5, 3, 1, 0)  # by code: T, T0, b, n, F0, F


def transitive_closure(rel, n=None) -> frozenset:
    """The least transitive relation holding the pairs in `rel`; `n`, a
    world count, is unused and lets frame checks pass it as a closure."""
    rel = set(rel)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return frozenset(rel)


def base_leq(x: Value, y: Value) -> bool:
    """The order of the base six-element lattice."""
    return MASK[x] | MASK[y] == MASK[y]


class Lattice(Frozen):
    """A complete lattice over a subset of the six values.

    Meets and joins are stored as total two-argument tables computed from
    the restricted order; set-level folds use the complete-lattice
    conventions meet({}) = top and join({}) = bottom.  The tables are
    private: not printed, and not hashed.
    """

    _fields = __slots__ = __match_args__ = (
        "id", "elements", "members", "_meet", "_join", "top", "bottom", "_down", "_up")

    def __init__(self, id, elements, members, _meet, _join, top, bottom, _down, _up):
        self._init(id, elements, members, _meet, _join, top, bottom, _down, _up)

    def __hash__(self):
        return hash((self.id, self.elements))

    def _check(self, *xs: Value) -> None:
        for x in xs:
            require_type(x, Value, "a Value")  # 1, True and 1.0 would pass as T0
            if x not in self.members:
                raise LatticeError(f"{x} is not an element of {self.id}")

    def leq(self, x: Value, y: Value) -> bool:
        self._check(x, y)
        return base_leq(x, y)

    def meet(self, x: Value, y: Value) -> Value:
        self._check(x, y)
        return self._meet[(x, y)]

    def join(self, x: Value, y: Value) -> Value:
        self._check(x, y)
        return self._join[(x, y)]

    def meet_set(self, xs: Iterable[Value]) -> Value:
        return reduce(self.meet, xs, self.top)

    def join_set(self, xs: Iterable[Value]) -> Value:
        return reduce(self.join, xs, self.bottom)

    def down(self, x: Value) -> Value:
        """Join of the element's lower set inside this lattice."""
        require_type(x, Value, "a Value")
        return self._down[x]

    def up(self, x: Value) -> Value:
        """Meet of the element's upper set inside this lattice."""
        require_type(x, Value, "a Value")
        return self._up[x]


def _build(lid: str, members: tuple[Value, ...]) -> Lattice:
    """The lattice on `members`, its tables read off the masks: a meet is
    down of the AND and a join up of the OR."""
    order = sorted(members, key=MASK.__getitem__)  # each member before those above it

    def down(m: int) -> Value:  # the least member holding the OR of the members below m
        held = reduce(or_, (MASK[z] for z in order if MASK[z] | m == m), 0)
        return next(z for z in order if MASK[z] | held == MASK[z])

    def up(m: int) -> Value:  # the greatest member inside the AND of the members above m
        inside = reduce(and_, (MASK[z] for z in order if MASK[z] | m == MASK[z]), 15)
        return next(z for z in reversed(order) if MASK[z] & inside == MASK[z])

    meet = {(x, y): down(MASK[x] & MASK[y]) for x in members for y in members}
    join = {(x, y): up(MASK[x] | MASK[y]) for x in members for y in members}
    down_of, up_of = {x: down(MASK[x]) for x in Value}, {x: up(MASK[x]) for x in Value}
    return Lattice(lid, members, frozenset(members), meet, join, down_of[V.T], up_of[V.F], down_of, up_of)


_MEMBERS: dict[str, tuple[Value, ...]] = {
    "L6": (V.T, V.T0, V.b, V.n, V.F0, V.F),
    "L4w": (V.T0, V.b, V.n, V.F0),
    "L4s": (V.T, V.b, V.n, V.F),
    "B3w": (V.T0, V.b, V.F0),
    "B3s": (V.T, V.b, V.F),
    "N3w": (V.T0, V.n, V.F0),
    "N3s": (V.T, V.n, V.F),
    "C2w": (V.T0, V.F0),
    "C2s": (V.T, V.F),
}

LATTICES: dict[str, Lattice] = {lid: _build(lid, members) for lid, members in _MEMBERS.items()}

L6 = LATTICES["L6"]

SUBLATTICE_IDS = tuple(lid for lid in LATTICES if lid != "L6")


def down_interpret(x: Value, sub: Lattice) -> Value:
    require_type(x, Value, "a Value")
    require_type(sub, Lattice, "a Lattice")
    return sub.down(x)


def up_interpret(x: Value, sub: Lattice) -> Value:
    require_type(x, Value, "a Value")
    require_type(sub, Lattice, "a Lattice")
    return sub.up(x)


def _subsets(xs: tuple[Value, ...]) -> Iterable[tuple[Value, ...]]:
    return chain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1))


class LawResult(NamedTuple):
    law: str
    holds: bool
    witness: str | None = None


class LawReport(NamedTuple):
    lattice_id: str
    results: tuple[LawResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.holds for r in self.results)


def _law(name, pairs) -> LawResult:
    for ok, witness in pairs:
        if not ok:
            return LawResult(name, False, witness)
    return LawResult(name, True)


def verify_lattice_laws(sub: Lattice) -> LawReport:
    """Exhaustively check the algebraic laws a sublattice must satisfy
    against the base lattice; each failed law comes with a witness."""
    require_type(sub, Lattice, "a Lattice")
    base = L6
    results = []

    def complete():
        for xs in _subsets(sub.elements):
            m, j = sub.meet_set(xs), sub.join_set(xs)
            ok = m in sub.elements and j in sub.elements
            ok = ok and all(base_leq(m, x) and base_leq(x, j) for x in xs)
            ok = ok and all(
                base_leq(z, m)
                for z in sub.elements
                if all(base_leq(z, x) for x in xs)
            )
            ok = ok and all(
                base_leq(j, z)
                for z in sub.elements
                if all(base_leq(x, z) for x in xs)
            )
            yield ok, f"X={xs}"

    results.append(_law("complete", complete()))

    results.append(
        _law(
            "order_restriction",
            (
                (sub.leq(x, y) == base.leq(x, y), f"x={x} y={y}")
                for x in sub.elements
                for y in sub.elements
            ),
        )
    )

    results.append(
        _law(
            "down_monotone",
            (
                (not base_leq(x, y) or base_leq(sub.down(x), sub.down(y)), f"x={x} y={y}")
                for x in Value
                for y in Value
            ),
        )
    )

    results.append(
        _law(
            "down_fixes_members",
            ((sub.down(x) == x and sub.up(x) == x, f"x={x}") for x in sub.elements),
        )
    )

    def subset_bounds_match_down():
        # for nonempty X inside the sublattice, its bounds there are the
        # down-interpreted base bounds
        for xs in _subsets(sub.elements):
            if not xs:
                continue
            ok_j = sub.join_set(xs) == sub.down(base.join_set(xs))
            ok_m = sub.meet_set(xs) == sub.down(base.meet_set(xs))
            yield ok_j and ok_m, f"X={xs}"

    results.append(_law("subset_bounds_match_down", subset_bounds_match_down()))

    def interp_bounds():
        # folding after down-interpretation can only lose information:
        # join' of X^down sits below the down of the base join, meets dually
        for xs in _subsets(tuple(Value)):
            if not xs:
                continue
            downed = [sub.down(x) for x in xs]
            ok_j = base_leq(sub.join_set(downed), sub.down(base.join_set(xs)))
            ok_m = base_leq(sub.down(base.meet_set(xs)), sub.meet_set(downed))
            yield ok_j and ok_m, f"X={xs}"

    results.append(_law("interp_bounds", interp_bounds()))

    results.append(
        _law(
            "pair_meet_shrinks_join_grows",
            (
                (
                    base_leq(sub.meet(x, y), base.meet(x, y))
                    and base_leq(base.join(x, y), sub.join(x, y)),
                    f"x={x} y={y}",
                )
                for x in sub.elements
                for y in sub.elements
            ),
        )
    )

    results.append(
        _law(
            "meet_commutes_with_down",
            (
                (sub.meet(sub.down(x), sub.down(y)) == sub.down(base.meet(x, y)), f"x={x} y={y}")
                for x in Value
                for y in Value
            ),
        )
    )

    def meet_distributes():
        for x in sub.elements:
            for xs in _subsets(sub.elements):
                lhs = sub.meet(x, sub.join_set(xs))
                rhs = sub.join_set(sub.meet(x, y) for y in xs)
                yield lhs == rhs, f"x={x} X={xs}"

    results.append(_law("meet_distributes_over_joins", meet_distributes()))

    return LawReport(sub.id, tuple(results))
