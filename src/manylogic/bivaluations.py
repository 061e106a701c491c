"""The two-valued non-deterministic semantics: per-logic clause sets over
finite subformula-closed domains, consequence by constrained search, and
the snapshot bridge back to the many-valued side.

Clause 14 is implemented in two readings.  "printed" keeps the source
text's biconditional rho(!A)=1 iff rho(A)=1, under which the classical
logics collapse; "corrected" flips it to iff rho(A)=0, which is the
reading that matches the CLW/CLS matrices.  The default stays "printed";
the correspondence report records what each reading does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import syntax
from .logics import MatrixLogic, Verdict, apply, evaluate
from .syntax import And, Bottom, Circ, Formula, Imp, Neg, Or, to_text
from .values import SNAPSHOTS, Value, from_snapshot

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


class DomainError(ValueError):
    """Assignment domain is not subformula-closed, or misses a formula."""


class ClosureTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class _Instance:
    name: str
    indices: tuple[int, ...]
    # predicate over the full value list; True = satisfied
    check: object

    def holds(self, vals) -> bool:
        return self.check(vals)


def _ordered(domain) -> list[Formula]:
    return sorted(domain, key=lambda f: (syntax.size(f), to_text(f)))


def _instances(
    logic: MatrixLogic, order: list[Formula], v14_reading: str
) -> list[_Instance]:
    clauses = CLAUSE_SETS[logic.id]
    idx = {f: i for i, f in enumerate(order)}
    out: list[_Instance] = []

    def has(*fs) -> bool:
        return all(f in idx for f in fs)

    def add(num, main, indices, check):
        out.append(_Instance(f"v{num}[{to_text(main)}]", tuple(indices), check))

    def equiv(num, main, target, fn, *mention):
        ids = [idx[m] for m in mention]
        t = idx[target]
        add(num, main, ids + [t], lambda vals, t=t, ids=ids, fn=fn: vals[t] == fn(*[vals[i] for i in ids]))

    for f in order:
        if isinstance(f, Bottom):
            snap = SNAPSHOTS[logic.lattice.bottom]
            add("bot", f, [idx[f]], lambda vals, i=idx[f], v=snap[0]: vals[i] == v)
        if isinstance(f, And) and 1 in clauses:
            equiv(1, f, f, lambda a, c: a & c, f.left, f.right)
        if isinstance(f, Or) and 2 in clauses:
            equiv(2, f, f, lambda a, c: a | c, f.left, f.right)
        if isinstance(f, Imp) and 3 in clauses:
            equiv(3, f, f, lambda a, c: (1 - a) | c, f.left, f.right)
        if isinstance(f, Neg):
            g = f.child
            if isinstance(g, Bottom):
                add("bot", f, [idx[f]], lambda vals, i=idx[f], v=SNAPSHOTS[logic.lattice.bottom][1]: vals[i] == v)
            if isinstance(g, And) and 4 in clauses and has(Neg(g.left), Neg(g.right)):
                equiv(4, f, f, lambda a, c: a | c, Neg(g.left), Neg(g.right))
            if isinstance(g, Or) and 5 in clauses and has(Neg(g.left), Neg(g.right)):
                equiv(5, f, f, lambda a, c: a & c, Neg(g.left), Neg(g.right))
            if isinstance(g, Imp) and 6 in clauses and has(g.left, Neg(g.right)):
                equiv(6, f, f, lambda a, c: a & c, g.left, Neg(g.right))
            if isinstance(g, Neg) and 7 in clauses:
                equiv(7, g.child, f, lambda a: a, g.child)
            if isinstance(g, Circ) and 9 in clauses:
                add(9, f, [idx[f]], lambda vals, i=idx[f]: vals[i] == 1)
            if isinstance(g, Circ) and 11 in clauses:
                equiv(11, g, f, lambda a: 1 - a, g)
            if 14 in clauses:
                if v14_reading == "printed":
                    equiv(14, f, f, lambda a: a, g)
                else:
                    equiv(14, f, f, lambda a: 1 - a, g)
        if isinstance(f, Circ):
            g = f.child
            if isinstance(g, Bottom):
                add("bot", f, [idx[f]], lambda vals, i=idx[f], v=SNAPSHOTS[logic.lattice.bottom][2]: vals[i] == v)
            if 8 in clauses:
                add(8, f, [idx[f]], lambda vals, i=idx[f]: vals[i] == 0)
            if 15 in clauses:
                add(15, f, [idx[f]], lambda vals, i=idx[f]: vals[i] == 1)
            if 10 in clauses and has(Neg(g)):
                equiv(10, f, f, lambda a, c: a ^ c, g, Neg(g))
            if 16 in clauses and has(Neg(g)):
                gi, ni, ci = idx[g], idx[Neg(g)], idx[f]
                add(16, f, [gi, ni, ci],
                    lambda vals, gi=gi, ni=ni, ci=ci: vals[ci] == 0 or (vals[gi] ^ vals[ni]))
            if isinstance(g, Circ) and 17 in clauses:
                add(17, f, [idx[f]], lambda vals, i=idx[f]: vals[i] == 1)
            if isinstance(g, Neg) and 18 in clauses and has(Circ(g.child)):
                equiv(18, g.child, f, lambda a: a, Circ(g.child))
            if isinstance(g, And) and 19 in clauses and has(
                Circ(g.left), Circ(g.right), Neg(g.left), Neg(g.right)
            ):
                equiv(
                    19, f, f,
                    lambda ca, cb, a, c, na, nb: (ca & cb & a & c) | (ca & na) | (cb & nb),
                    Circ(g.left), Circ(g.right), g.left, g.right, Neg(g.left), Neg(g.right),
                )
            if isinstance(g, Or) and 20 in clauses and has(
                Circ(g.left), Circ(g.right), Neg(g.left), Neg(g.right)
            ):
                equiv(
                    20, f, f,
                    lambda ca, cb, na, nb, a, c: (ca & cb & na & nb) | (ca & a) | (cb & c),
                    Circ(g.left), Circ(g.right), Neg(g.left), Neg(g.right), g.left, g.right,
                )
            if isinstance(g, Imp) and 21 in clauses and has(
                Circ(g.left), Circ(g.right), Neg(g.left), Neg(g.right)
            ):
                equiv(
                    21, f, f,
                    lambda a, cb, nb, ca, na, c: (a & cb & nb) | (ca & na) | (cb & c),
                    g.left, Circ(g.right), Neg(g.right), Circ(g.left), Neg(g.left), g.right,
                )
            if isinstance(g, Imp) and 22 in clauses and has(Circ(g.right)):
                equiv(22, f, f, lambda a, cb: (1 - a) | cb, g.left, Circ(g.right))
        if isinstance(f, Neg) and 12 in clauses:
            # If rho(!A)=0 then rho(A)=1, stated for the A with !A present
            gi, ni = idx[f.child], idx[f]
            add(12, f.child, [gi, ni], lambda vals, gi=gi, ni=ni: vals[ni] == 1 or vals[gi] == 1)
        if isinstance(f, Neg) and 13 in clauses:
            gi, ni = idx[f.child], idx[f]
            add(13, f.child, [gi, ni], lambda vals, gi=gi, ni=ni: vals[ni] == 0 or vals[gi] == 0)
    return out


def _definers(logic: MatrixLogic, order: list[Formula], v14_reading: str):
    """idx -> function(vals) computing the forced value, where one exists.

    Only clauses that define a formula outright from strictly earlier
    formulas are used; everything else stays a search constraint.
    """
    clauses = CLAUSE_SETS[logic.id]
    idx = {f: i for i, f in enumerate(order)}
    defs: dict[int, object] = {}

    def define(f, fn, *mention):
        i = idx[f]
        ids = [idx[m] for m in mention]
        if any(j >= i for j in ids) or i in defs:
            return
        defs[i] = lambda vals, ids=ids, fn=fn: fn(*[vals[j] for j in ids])

    bottom_snap = SNAPSHOTS[logic.lattice.bottom]
    for f in order:
        if isinstance(f, Bottom):
            define(f, lambda: bottom_snap[0])
        if isinstance(f, And) and 1 in clauses:
            define(f, lambda a, c: a & c, f.left, f.right)
        if isinstance(f, Or) and 2 in clauses:
            define(f, lambda a, c: a | c, f.left, f.right)
        if isinstance(f, Imp) and 3 in clauses:
            define(f, lambda a, c: (1 - a) | c, f.left, f.right)
        if isinstance(f, Neg):
            g = f.child
            if isinstance(g, Bottom):
                define(f, lambda: bottom_snap[1])
            elif isinstance(g, Circ) and 9 in clauses:
                define(f, lambda: 1)
            elif isinstance(g, Circ) and 11 in clauses and g in idx:
                define(f, lambda a: 1 - a, g)
            elif isinstance(g, And) and 4 in clauses and Neg(g.left) in idx and Neg(g.right) in idx:
                define(f, lambda a, c: a | c, Neg(g.left), Neg(g.right))
            elif isinstance(g, Or) and 5 in clauses and Neg(g.left) in idx and Neg(g.right) in idx:
                define(f, lambda a, c: a & c, Neg(g.left), Neg(g.right))
            elif isinstance(g, Imp) and 6 in clauses and Neg(g.right) in idx:
                define(f, lambda a, c: a & c, g.left, Neg(g.right))
            elif isinstance(g, Neg) and 7 in clauses:
                define(f, lambda a: a, g.child)
            elif 14 in clauses:
                if v14_reading == "printed":
                    define(f, lambda a: a, g)
                else:
                    define(f, lambda a: 1 - a, g)
        if isinstance(f, Circ):
            g = f.child
            if isinstance(g, Bottom):
                define(f, lambda: bottom_snap[2])
            elif 8 in clauses:
                define(f, lambda: 0)
            elif 15 in clauses:
                define(f, lambda: 1)
            elif isinstance(g, Circ) and 17 in clauses:
                define(f, lambda: 1)
            elif 10 in clauses and Neg(g) in idx:
                define(f, lambda a, c: a ^ c, g, Neg(g))
            elif isinstance(g, Imp) and 22 in clauses and Circ(g.right) in idx:
                define(f, lambda a, cb: (1 - a) | cb, g.left, Circ(g.right))
            elif isinstance(g, Neg) and 18 in clauses and Circ(g.child) in idx:
                define(f, lambda a: a, Circ(g.child))
    return defs


def _check_closed(domain) -> None:
    dom = set(domain)
    for f in dom:
        for c in syntax.children(f):
            if c not in dom:
                raise DomainError(f"domain not subformula-closed: missing {to_text(c)}")


@dataclass(frozen=True)
class ClauseReport:
    ok: bool
    violations: tuple[str, ...]


def check_clauses(
    logic: MatrixLogic, assignment: dict[Formula, int], v14_reading: str = "printed"
) -> ClauseReport:
    """Check every applicable clause instance of the logic against a total
    0/1 assignment on a subformula-closed domain."""
    _check_closed(assignment)
    order = _ordered(assignment)
    vals = [assignment[f] for f in order]
    bad = tuple(
        inst.name for inst in _instances(logic, order, v14_reading) if not inst.holds(vals)
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
    """Depth-first enumeration of clause-satisfying assignments.

    Formulas are visited smallest-first so clause-determined values are
    computed, not branched on; each instance is checked as soon as its
    last mentioned formula gets a value.
    """
    idx = {f: i for i, f in enumerate(order)}
    for f in pins:
        if f not in idx:
            raise DomainError(f"pinned formula {to_text(f)} outside domain")
    instances = _instances(logic, order, v14_reading)
    by_last: list[list[_Instance]] = [[] for _ in order]
    for inst in instances:
        by_last[max(inst.indices)].append(inst)
    defs = _definers(logic, order, v14_reading)
    pin_by_index = {idx[f]: v for f, v in pins.items()}

    vals: list[int] = [0] * len(order)
    found: list[dict[Formula, int]] = []
    seen = 0

    def rec(i: int):
        nonlocal seen
        if found and not collect_all:
            return
        if i == len(order):
            found.append(dict(zip(order, vals)))
            return
        seen += 1
        if seen > limit:
            raise ClosureTooLargeError("assignment search exceeded its node limit")
        if i in pin_by_index:
            candidates = (pin_by_index[i],)
        elif i in defs:
            candidates = (defs[i](vals),)
        else:
            candidates = (0, 1)
        for v in candidates:
            vals[i] = v
            if all(inst.holds(vals) for inst in by_last[i]):
                rec(i + 1)

    rec(0)
    return found


def biv_consequence(
    logic: MatrixLogic,
    premises,
    conclusion: Formula,
    v14_reading: str = "printed",
) -> Verdict:
    """VALID iff no clause-satisfying assignment over the closure makes all
    premises 1 and the conclusion 0."""
    given = [*premises, conclusion]
    premises = [syntax.desugar(p) for p in premises]
    conclusion = syntax.desugar(conclusion)
    names = set().union(*[syntax.atoms(f) for f in premises + [conclusion]])
    if len(names) > 8:
        raise ClosureTooLargeError(f"{len(names)} atoms exceed the cap of 8")
    for f in given:  # named as given: desugaring nested => repeats text exponentially
        if not syntax.is_modal_free(f):
            raise syntax.ModalFormulaError(f"modal operator in {to_text(f)}")
    closure = syntax.subformula_closure(premises + [conclusion])
    if len(closure) > MAX_CLOSURE:
        raise ClosureTooLargeError(f"closure has {len(closure)} formulas (cap {MAX_CLOSURE})")
    pins: dict[Formula, int] = {}
    for p in premises:
        pins[p] = 1
    if pins.get(conclusion) == 1:
        return Verdict(True)
    pins[conclusion] = 0
    order = _ordered(closure)
    found = _search(logic, order, pins, v14_reading)
    if found:
        return Verdict(False, found[0])
    return Verdict(True)


def satisfying_assignments(
    logic: MatrixLogic, closure, v14_reading: str = "printed", limit: int = 500000
) -> list[dict[Formula, int]]:
    """Every clause-satisfying assignment over a subformula-closed set."""
    _check_closed(closure)
    return _search(logic, _ordered(closure), {}, v14_reading, collect_all=True, limit=limit)


def snapshot_of(assignment: dict[Formula, int], f: Formula) -> Value:
    """The value named by (rho(f), rho(!f), rho(@f)); raises SnapshotError
    on the two triples that name nothing."""
    for needed in (f, Neg(f), Circ(f)):
        if needed not in assignment:
            raise DomainError(f"{to_text(needed)} not in assignment domain")
    return from_snapshot((assignment[f], assignment[Neg(f)], assignment[Circ(f)]))


_CONN_OF = {And: "and", Or: "or", Imp: "imp"}


@dataclass(frozen=True)
class CorrespondenceReport:
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
            except ValueError as exc:
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
            if type(f) in _CONN_OF and f.left in snaps and f.right in snaps:
                got = snaps[f]
                want = apply(logic, _CONN_OF[type(f)], [snaps[f.left], snaps[f.right]])
                if got != want:
                    comm_bad.append(f"{to_text(f)}: snapshot {got} != table {want}")
            elif isinstance(f, Neg) and f.child in snaps:
                want = apply(logic, "neg", [snaps[f.child]])
                if snaps[f] != want:
                    comm_bad.append(f"{to_text(f)}: snapshot {snaps[f]} != table {want}")
            elif isinstance(f, Circ) and f.child in snaps:
                want = apply(logic, "circ", [snaps[f.child]])
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
