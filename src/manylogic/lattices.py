"""The base six-element lattice, its eight down-complete sublattices, and
the maps that move values between them.

The base order is the chain F < F0 < {n, b} < T0 < T with n and b
incomparable.  A sublattice keeps the restricted order but recomputes its
meets and joins inside the subset, which matters exactly once: in L4s the
pair {b, n} has meet F and join T, not F0 and T0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations
from typing import Iterable, NamedTuple

from .values import ManylogicError, Value

V = Value


class LatticeError(ManylogicError):
    """Element outside the lattice, or a subset without bounds in it."""


_COVERS = [(V.F, V.F0), (V.F0, V.n), (V.F0, V.b), (V.n, V.T0), (V.b, V.T0), (V.T0, V.T)]


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


BASE_LEQ: frozenset[tuple[Value, Value]] = transitive_closure({(x, x) for x in Value} | set(_COVERS))


def base_leq(x: Value, y: Value) -> bool:
    """The order of the base six-element lattice."""
    return (x, y) in BASE_LEQ


@dataclass(frozen=True)
class Lattice:
    """A complete lattice over a subset of the six values.

    Meets and joins are stored as total two-argument tables computed from
    the restricted order; set-level folds use the complete-lattice
    conventions meet({}) = top and join({}) = bottom.
    """

    id: str
    elements: tuple[Value, ...]
    members: frozenset[Value]
    _meet: dict[tuple[Value, Value], Value] = field(repr=False)
    _join: dict[tuple[Value, Value], Value] = field(repr=False)
    top: Value = field()
    bottom: Value = field()
    _down: dict[Value, Value] = field(repr=False)
    _up: dict[Value, Value] = field(repr=False)

    def _check(self, *xs: Value) -> None:
        for x in xs:
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
        return self._down[x]

    def up(self, x: Value) -> Value:
        """Meet of the element's upper set inside this lattice."""
        return self._up[x]


def _bound(members: tuple[Value, ...], xs: tuple[Value, ...], lower: bool):
    if lower:
        cands = [z for z in members if all(base_leq(z, x) for x in xs)]
        best = [z for z in cands if all(base_leq(w, z) for w in cands)]
    else:
        cands = [z for z in members if all(base_leq(x, z) for x in xs)]
        best = [z for z in cands if all(base_leq(z, w) for w in cands)]
    if len(best) != 1:
        raise LatticeError(f"{xs} has no unique bound among {members}")
    return best[0]


def _build(lid: str, members: tuple[Value, ...]) -> Lattice:
    meet = {(x, y): _bound(members, (x, y), lower=True) for x in members for y in members}
    join = {(x, y): _bound(members, (x, y), lower=False) for x in members for y in members}
    top = _bound(members, members, lower=False)
    bottom = _bound(members, members, lower=True)
    # down(x) joins x's lower set inside the lattice, up(x) meets its upper set
    down = {x: _bound(members, tuple(y for y in members if base_leq(y, x)), lower=False) for x in Value}
    up = {x: _bound(members, tuple(y for y in members if base_leq(x, y)), lower=True) for x in Value}
    return Lattice(lid, members, frozenset(members), meet, join, top, bottom, down, up)


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
    return sub.down(x)


def up_interpret(x: Value, sub: Lattice) -> Value:
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
