"""The two-valued non-deterministic semantics: per-logic clause sets over
finite subformula-closed domains, consequence by search with unit
propagation, and the snapshot bridge back to the many-valued side.

A sequent's domain is the closure of its desugared formulas: their
subformulas plus each one's clause layer (!B, @B, !@B, !!B), which
`syntax.layer` caches on the node.  `_instances` is the one builder of
clause instances; it finds the !A and @A a clause needs through A's
cached layer.

Clause 14 is implemented in two readings.  "printed" keeps the source
text's biconditional rho(!A)=1 iff rho(A)=1, under which the classical
logics collapse; "corrected" flips it to iff rho(A)=0, which is the
reading that matches the CLW/CLS matrices.  The default stays "printed";
the correspondence report records what each reading does.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import product
from operator import attrgetter
from typing import NamedTuple

from . import syntax
from .logics import MAX_ATOMS, MatrixLogic, Verdict, apply, evaluate, require_logic
from .syntax import And, Atom, Bottom, Circ, Formula, Imp, Neg, Or, to_text
from .values import SNAPSHOTS, ManylogicError, Value, from_snapshot, require_int, require_type

V14_READINGS = ("printed", "corrected")

CLAUSE_SETS: dict[str, frozenset[int]] = {
    "LETK": frozenset(range(1, 8)) | frozenset(range(16, 22)),
    "FDE": frozenset(range(1, 10)),
    "LJ4": frozenset(range(1, 8)) | {10, 11, 22},
    "LP": frozenset(range(1, 10)) | {12},
    "J3": frozenset(range(1, 8)) | {10, 11, 12, 22},
    "K3": frozenset(range(1, 10)) | {13},
    "L3": frozenset(range(1, 8)) | {10, 11, 13, 22},
    "CLW": frozenset({1, 3, 4, 8, 14}),
    "CLS": frozenset({1, 3, 4, 14, 15}),
}

MAX_CLOSURE = 64


class DomainError(ManylogicError):
    """Assignment domain is not subformula-closed, or misses a formula."""


class ClosureTooLargeError(ManylogicError):
    pass


class ReadingError(ManylogicError):
    """A clause 14 reading outside V14_READINGS."""


class NodeLimitError(ManylogicError):
    """A search node limit below 1."""


# Every clause, stated once, as a predicate over the values of the formulas
# it mentions, the constrained formula last.  `_instances` says which
# formulas each clause mentions; search and checking read only the masks.
_CLAUSES = {
    1: lambda a, b, t: t == a & b,
    2: lambda a, b, t: t == a | b,
    3: lambda a, b, t: t == (1 - a) | b,
    4: lambda na, nb, t: t == na | nb,
    5: lambda na, nb, t: t == na & nb,
    6: lambda a, nb, t: t == a & nb,
    7: lambda a, t: t == a,
    8: lambda t: t == 0,
    9: lambda t: t == 1,
    10: lambda a, na, t: t == a ^ na,
    11: lambda ca, t: t == 1 - ca,
    12: lambda a, na: na == 1 or a == 1,
    13: lambda a, na: na == 0 or a == 0,
    15: lambda t: t == 1,
    16: lambda a, na, t: t == 0 or a ^ na == 1,
    17: lambda t: t == 1,
    18: lambda ca, t: t == ca,
    19: lambda ca, cb, a, b, na, nb, t: t == (ca & cb & a & b) | (ca & na) | (cb & nb),
    20: lambda ca, cb, a, b, na, nb, t: t == (ca & cb & na & nb) | (ca & a) | (cb & b),
    21: lambda ca, cb, a, b, na, nb, t: t == (a & cb & nb) | (ca & na) | (cb & b),
    22: lambda a, cb, t: t == (1 - a) | cb,
}
_V14 = {"printed": lambda a, t: t == a, "corrected": lambda a, t: t == 1 - a}


def _truth_table(clause) -> int:
    """Bit r is set iff the clause holds on row r, where bit j of r is the
    value of the j-th mentioned formula."""
    arity = clause.__code__.co_argcount
    return sum(
        1 << r for r in range(1 << arity) if clause(*[r >> j & 1 for j in range(arity)])
    )


_MASKS = {num: _truth_table(clause) for num, clause in _CLAUSES.items()}
# Per logic and reading, clause n's mask at position n; 0 where the logic
# has no clause n.
_LOGIC_MASKS = {
    (lid, reading): tuple(
        (_truth_table(_V14[reading]) if n == 14 else _MASKS[n]) if n in clauses else 0 for n in range(23)
    )
    for lid, clauses in CLAUSE_SETS.items()
    for reading in V14_READINGS
}
# The clauses each binary connective heads: bare, under ! and under @.
_BINARY_CLAUSES = {And: (1, 4, 19), Or: (2, 5, 20), Imp: (3, 6, 21)}


def _project(ids: tuple[int, ...], mask: int) -> tuple[tuple[int, ...], int]:
    """The instance over its distinct formulas, when one is mentioned twice
    (`@(p & p)` mentions `@p` and `!p` twice each)."""
    distinct = tuple(dict.fromkeys(ids))
    slots = [distinct.index(i) for i in ids]
    out = 0
    for r in range(1 << len(distinct)):
        full = sum((r >> s & 1) << j for j, s in enumerate(slots))
        out |= (mask >> full & 1) << r
    return distinct, out


def _ordered(domain) -> list[Formula]:
    """The domain by size, then text: sorting by text first and then,
    stably, by size."""
    return sorted(sorted(domain, key=to_text), key=attrgetter("_size"))


def _check_reading(v14_reading: str) -> None:
    if v14_reading not in V14_READINGS:
        raise ReadingError(
            f"unknown v14 reading {v14_reading!r} (expected one of {', '.join(V14_READINGS)})"
        )


def _instances(logic: MatrixLogic, idx: dict[Formula, int], v14_reading: str):
    """Every clause instance of the logic over a domain, given as each
    formula's index in its order, as (clause number, main formula,
    indices, allowed-rows mask), yielded formula by formula in domain order.

    An instance that mentions !A or @A exists only where the domain holds
    it; that is looked up through A's cached clause layer."""
    m = _LOGIC_MASKS[logic.id, v14_reading]
    bottom = SNAPSHOTS[logic.lattice.bottom]
    get, layer = idx.get, syntax.layer
    for f, i in idx.items():
        kind = type(f)
        if kind is Bottom:
            yield "bot", f, (i,), 1 << bottom[0]
        elif kind in _BINARY_CLAUSES:
            n = _BINARY_CLAUSES[kind][0]
            if m[n]:
                yield n, f, (idx[f.left], idx[f.right], i), m[n]
        elif kind is Neg:
            g = f.child
            sub, j = type(g), idx[g]
            if sub is Bottom:
                yield "bot", f, (i,), 1 << bottom[1]
            elif sub is Neg:
                if m[7]:
                    yield 7, g.child, (idx[g.child], i), m[7]
            elif sub is Circ:
                if m[9]:
                    yield 9, f, (i,), m[9]
                if m[11]:
                    yield 11, g, (j, i), m[11]
            elif sub in _BINARY_CLAUSES and m[n := _BINARY_CLAUSES[sub][1]]:
                a = idx[g.left] if sub is Imp else get(layer(g.left)[0])
                b = get(layer(g.right)[0])
                if a is not None and b is not None:
                    yield n, f, (a, b, i), m[n]
            if m[14]:
                yield 14, f, (j, i), m[14]
            # 12: if rho(!A)=0 then rho(A)=1, stated for the A with !A present
            if m[12]:
                yield 12, g, (j, i), m[12]
            if m[13]:
                yield 13, g, (j, i), m[13]
        elif kind is Circ:
            g = f.child
            sub, j = type(g), idx[g]
            if sub is Bottom:
                yield "bot", f, (i,), 1 << bottom[2]
            if m[8]:
                yield 8, f, (i,), m[8]
            if m[15]:
                yield 15, f, (i,), m[15]
            for n in (10, 16):
                k = get(layer(g)[0]) if m[n] else None
                if k is not None:
                    yield n, f, (j, k, i), m[n]
            if sub is Circ:
                if m[17]:
                    yield 17, f, (i,), m[17]
            elif sub is Neg:
                c = get(layer(g.child)[1]) if m[18] else None
                if c is not None:
                    yield 18, g.child, (c, i), m[18]
            elif sub in _BINARY_CLAUSES and m[n := _BINARY_CLAUSES[sub][2]]:
                (nl, cl), (nr, cr) = layer(g.left)[:2], layer(g.right)[:2]
                ids = get(cl), get(cr), idx[g.left], idx[g.right], get(nl), get(nr), i
                if None not in ids:
                    yield n, f, ids, m[n]
            if sub is Imp and m[22]:
                c = get(layer(g.right)[1])
                if c is not None:
                    yield 22, f, (idx[g.left], c, i), m[22]


def _check_closed(domain) -> list[Formula]:
    """The domain in `_ordered` order.  Refuses first a member that is not
    a formula, then a missing child, each picked the same way in every run."""
    dom = set(domain)
    junk = [f for f in dom if not isinstance(f, Formula)]
    if junk:
        require_type(min(junk, key=lambda f: type(f).__name__), Formula, "a Formula")
    order = _ordered(dom)
    for f in order:
        for c in syntax.children(f):
            if c not in dom:
                raise DomainError(f"domain not subformula-closed: missing {to_text(c)}")
    return order


class ClauseReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


def check_clauses(
    logic: MatrixLogic, assignment: dict[Formula, int], v14_reading: str = "printed"
) -> ClauseReport:
    """Check every applicable clause instance of the logic against a total
    0/1 assignment on a subformula-closed domain."""
    require_logic(logic)
    require_type(assignment, Mapping, "a mapping as the assignment")
    _check_reading(v14_reading)
    order = _check_closed(assignment)
    for f, v in assignment.items():
        if v not in (0, 1):
            raise DomainError(f"rho({to_text(f)}) = {v!r} is neither 0 nor 1")
    idx = {f: i for i, f in enumerate(order)}
    vals = [1 if assignment[f] else 0 for f in order]
    bad = tuple(
        f"v{num}[{to_text(main)}]"
        for num, main, ids, mask in _instances(logic, idx, v14_reading)
        if not mask >> sum(vals[i] << j for j, i in enumerate(ids)) & 1
    )
    return ClauseReport(not bad, bad)


def _search(
    logic: MatrixLogic,
    order: list[Formula],
    pins: dict[Formula, int],
    v14_reading: str,
    collect_all: bool = False,
    limit: int = 500000,
):
    """Depth-first search for clause-satisfying assignments, found in
    lexicographic order of their values along `order`.

    The pins, formulas of `order` (`biv_consequence` pins roots of the
    closure it orders), and the one-formula instances are set at the
    root.  Every value set is propagated through the instances that
    mention it: one with a single unset formula forces it or fails, one
    with none is checked.  Propagation only sets forced values, so branching on the
    lowest unset index, 0 before 1, meets the solutions in order.  `limit`
    bounds the work: one per branching node and one per assignment
    collected for every MAX_CLOSURE formulas of the domain, so no domain
    keeps more formula values than a capped closure could.
    """
    idx = {f: i for i, f in enumerate(order)}
    n = len(order)
    watch: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in order]
    forced = [(idx[f], v) for f, v in pins.items()]
    for _, _, ids, mask in _instances(logic, idx, v14_reading):
        if len(ids) == 1:  # allows exactly one value: mask 0b01 or 0b10
            forced.append((ids[0], mask >> 1))
        else:
            # only an instance over three or more formulas can name one twice
            if len(ids) > 2 and len(set(ids)) < len(ids):
                ids, mask = _project(ids, mask)
            entry = ids, mask
            for i in ids:
                watch[i].append(entry)

    vals = [-1] * n
    trail: list[int] = []

    def propagate(start: int) -> bool:
        """Propagate the values set from trail[start] on; False on a conflict."""
        q = start
        while q < len(trail):
            for ids, mask in watch[trail[q]]:
                row = 0
                free = 0
                bit = 1
                for i in ids:
                    x = vals[i]
                    if x < 0:
                        if free:
                            break
                        free, var = bit, i
                    elif x:
                        row |= bit
                    bit <<= 1
                else:
                    if not free:
                        if not mask >> row & 1:
                            return False
                        continue
                    lo = mask >> row & 1
                    hi = mask >> (row | free) & 1
                    if lo != hi:
                        vals[var] = hi
                        trail.append(var)
                    elif not lo:
                        return False
            q += 1
        return True

    for i, v in forced:
        if vals[i] < 0:
            vals[i] = v
            trail.append(i)
        elif vals[i] != v:
            return []
    if not propagate(0):
        return []

    found: list[dict[Formula, int]] = []
    work = 0
    leaf_work = -(-n // MAX_CLOSURE)
    branches: list[tuple[int, int]] = []  # (index set to 0, trail length before it)
    lo = 0
    while True:
        while lo < n and vals[lo] >= 0:
            lo += 1
        if lo == n:
            found.append(dict(zip(order, vals)))
            if not collect_all:
                return found
            work += leaf_work
            ok = False
        else:
            work += 1
            mark = len(trail)
            branches.append((lo, mark))
            vals[lo] = 0
            trail.append(lo)
            ok = propagate(mark)
        if work > limit:
            raise ClosureTooLargeError("assignment search exceeded its node limit")
        while not ok:
            if not branches:
                return found
            lo, mark = branches.pop()
            for i in trail[mark:]:
                vals[i] = -1
            del trail[mark:]
            vals[lo] = 1
            trail.append(lo)
            ok = propagate(mark)


# The formulas given to `biv_consequence`, premises then conclusion ->
# their desugared roots and the ordered closure the search runs over,
# worked out once per process for every logic and reading.  A sequent
# over the atom or closure cap is refused before it is kept, so it is
# refused again the same way.  Entries live as long as the interned
# formulas (syntax._TABLE keeps them all).
_DOMAINS: dict[tuple, tuple] = {}


def _domain(given: tuple) -> tuple[tuple[Formula, ...], tuple[Formula, ...]]:
    """The desugared roots of a checked sequent and its closure in (size,
    text) order; ClosureTooLargeError over the atom or closure cap."""
    roots = tuple(syntax.desugar(f) for f in given)
    closure = syntax.subformula_closure(roots)
    names = {f.name for f in closure if type(f) is Atom}
    if len(names) > MAX_ATOMS:
        raise ClosureTooLargeError(f"{len(names)} atoms exceed the cap of {MAX_ATOMS}")
    if len(closure) > MAX_CLOSURE:
        raise ClosureTooLargeError(f"closure has {len(closure)} formulas (cap {MAX_CLOSURE})")
    return roots, tuple(_ordered(closure))


def biv_consequence(
    logic: MatrixLogic,
    premises,
    conclusion: Formula,
    v14_reading: str = "printed",
) -> Verdict:
    """VALID iff no clause-satisfying assignment over the closure makes all
    premises 1 and the conclusion 0.  An INVALID verdict's witness is the
    first such assignment found, listing the whole closure in (size, text)
    order.  Each sequent's closure is worked out once per process
    (`_DOMAINS`); the clause instances and the search run on every call."""
    require_logic(logic)
    _check_reading(v14_reading)
    given = (*premises, conclusion)
    syntax.require_propositional(given)
    entry = _DOMAINS.get(given)
    if entry is None:  # setdefault: threads that analyse one sequent at once share one entry
        entry = _DOMAINS.setdefault(given, _domain(given))
    *premises, conclusion = entry[0]
    pins: dict[Formula, int] = {}
    for p in premises:
        pins[p] = 1
    if pins.get(conclusion) == 1:
        return Verdict(True)
    pins[conclusion] = 0
    found = _search(logic, entry[1], pins, v14_reading)
    if found:
        return Verdict(False, found[0])
    return Verdict(True)


def satisfying_assignments(
    logic: MatrixLogic, closure, v14_reading: str = "printed", limit: int = 500000
) -> list[dict[Formula, int]]:
    """Every clause-satisfying assignment over a subformula-closed set."""
    require_logic(logic)
    _check_reading(v14_reading)
    require_int(limit, "a node limit")
    if limit < 1:
        raise NodeLimitError(f"the node limit must be at least 1, got {limit}")
    return _search(logic, _check_closed(closure), {}, v14_reading, collect_all=True, limit=limit)


def snapshot_of(assignment: dict[Formula, int], f: Formula) -> Value:
    """The value named by (rho(f), rho(!f), rho(@f)); raises SnapshotError
    on the two triples that name nothing."""
    for needed in (f, Neg(f), Circ(f)):
        if needed not in assignment:
            raise DomainError(f"{to_text(needed)} not in assignment domain")
    return from_snapshot((assignment[f], assignment[Neg(f)], assignment[Circ(f)]))


_CONN_OF = {And: "and", Or: "or", Imp: "imp", Neg: "neg", Circ: "circ"}


class CorrespondenceReport(NamedTuple):
    logic_id: str
    v14_reading: str
    valuations_checked: int
    induced_violations: tuple[str, ...]
    assignments_checked: int
    snapshot_failures: tuple[str, ...]
    commutation_failures: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not (self.induced_violations or self.snapshot_failures or self.commutation_failures)


_BRIDGE_BASE = "p & q", "p | q", "p -> q", "!p", "@p"


def correspondence_check(logic: MatrixLogic, v14_reading: str = "printed") -> CorrespondenceReport:
    """Both directions of the matrix/bivaluation bridge at desk scale.

    (a) every matrix valuation induces, via first snapshot coordinates, an
    assignment satisfying the logic's clauses; (b) every clause-satisfying
    assignment yields legal snapshots inside the logic's lattice that
    commute with the connective tables.
    """
    require_logic(logic)
    _check_reading(v14_reading)
    base = [syntax.parse(s) for s in _BRIDGE_BASE]
    closure = syntax.subformula_closure(base)
    els = logic.lattice.elements

    induced = []
    count = 0
    for pv, qv in product(els, repeat=2):
        count += 1
        assignment = {
            f: SNAPSHOTS[evaluate(logic, f, {"p": pv, "q": qv})][0] for f in closure
        }
        rep = check_clauses(logic, assignment, v14_reading)
        for name in rep.violations:
            induced.append(f"p={pv} q={qv}: {name}")

    members = _ordered({g for f in base for g in syntax.subformulas(f)})
    snap_bad, comm_bad = [], []
    assignments = satisfying_assignments(logic, closure, v14_reading)
    for rho in assignments:
        snaps: dict[Formula, Value] = {}
        broken = False
        for f in members:
            try:
                val = snapshot_of(rho, f)
            except ManylogicError as exc:
                snap_bad.append(f"{to_text(f)}: {exc}")
                broken = True
                continue
            if val not in logic.lattice.members:
                snap_bad.append(f"{to_text(f)}: {val} outside {logic.lattice.id}")
                broken = True
                continue
            snaps[f] = val
        if broken:
            continue
        for f in members:
            kids = syntax.children(f)
            if type(f) in _CONN_OF and all(k in snaps for k in kids):
                want = apply(logic, _CONN_OF[type(f)], [snaps[k] for k in kids])
                if snaps[f] != want:
                    comm_bad.append(f"{to_text(f)}: snapshot {snaps[f]} != table {want}")
    return CorrespondenceReport(
        logic.id,
        v14_reading,
        count,
        tuple(induced),
        len(assignments),
        tuple(snap_bad),
        tuple(comm_bad),
    )
