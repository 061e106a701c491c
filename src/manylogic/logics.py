"""The nine matrix logics: designated sets, snapshot-algebra connectives,
generated truth tables, and consequence over every valuation.

Connectives are computed coordinatewise on snapshots, except that & and |
are the lattice meet and join of the logic's own lattice.  The two agree
everywhere but in the four-element strong lattice, where the incomparable
pair {b, n} has its bounds recomputed inside the subset; the coordinatewise
result is then exactly the down-interpretation of that lattice's bound
(pinned by tests).

The snapshot formulas (`twist_*`) are written once.  `apply` runs them on
one value; `evaluate` and `matrix_consequence` share one formula walk that
runs them on bit-planes, a Python int per snapshot coordinate whose bit j
is the coordinate under valuation j.  `matrix_consequence` thus evaluates
each formula once over all |L|^k valuations, and `evaluate` is the case of
a single valuation.  The walk runs on `syntax.desugar`'s output, so `~`,
`N` and `=>` are expanded there alone; `apply` keeps its own value-level
`nabla` and `impL`, the per-valuation reference the tests check by.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import syntax
from .lattices import LATTICES, Lattice
from .syntax import Atom, Bottom, Formula
from .values import SNAPSHOTS, ManylogicError, Value, from_snapshot, require_type

MAX_ATOMS = 8


class LogicError(ManylogicError):
    pass


class TooManyAtomsError(LogicError):
    """Valuation enumeration is capped at MAX_ATOMS atoms."""


CONNECTIVES: dict[str, int] = {
    "and": 2,
    "or": 2,
    "imp": 2,
    "impL": 2,
    "neg": 1,
    "circ": 1,
    "nabla": 1,
}


# The paper's snapshot formulas.  A coordinate is 0 or 1, or a bit-plane
# holding one bit per valuation, with `one` the plane of all valuations.


def twist_and(z: tuple[int, int, int], w: tuple[int, int, int]) -> tuple[int, int, int]:
    z1, z2, z3 = z
    w1, w2, w3 = w
    return (z1 & w1, z2 | w2, (z1 & z3 & w1 & w3) | (z2 & z3) | (w2 & w3))


def twist_or(z, w):
    z1, z2, z3 = z
    w1, w2, w3 = w
    return (z1 | w1, z2 & w2, (z2 & z3 & w2 & w3) | (z1 & z3) | (w1 & w3))


def twist_neg(z):
    z1, z2, z3 = z
    return (z2, z1, z3)


def twist_imp_material(z, w, one: int = 1):
    z1, z2, z3 = z
    w1, w2, w3 = w
    return ((one ^ z1) | w1, z1 & w2, (z1 & w2 & w3) | (z2 & z3) | (w1 & w3))


def twist_imp_chain(z, w, one: int = 1):
    z1, z2, z3 = z
    w1, w2, w3 = w
    return ((one ^ z1) | w1, z1 & w2, (one ^ z1) | w3)


def twist_circ(z, third: int, one: int = 1):
    z3 = z[2]
    return (z3, one ^ z3, third)


@dataclass(frozen=True)
class MatrixLogic:
    id: str
    lattice: Lattice
    designated: frozenset[Value]
    implication_family: str  # "material" | "lukasiewicz-family"
    circ_third_coordinate: int  # 1 | 0

    def is_designated(self, x: Value) -> bool:
        return x in self.designated


def _make(lid: str, lattice_id: str, family: str, third: int) -> MatrixLogic:
    lat = LATTICES[lattice_id]
    designated = frozenset(x for x in lat.elements if SNAPSHOTS[x][0] == 1)
    return MatrixLogic(lid, lat, designated, family, third)


LOGICS: dict[str, MatrixLogic] = {
    "LETK": _make("LETK", "L6", "material", 1),
    "FDE": _make("FDE", "L4w", "material", 0),
    "LJ4": _make("LJ4", "L4s", "lukasiewicz-family", 1),
    "K3": _make("K3", "N3w", "material", 0),
    "L3": _make("L3", "N3s", "lukasiewicz-family", 1),
    "LP": _make("LP", "B3w", "material", 0),
    "J3": _make("J3", "B3s", "lukasiewicz-family", 1),
    "CLW": _make("CLW", "C2w", "material", 0),
    "CLS": _make("CLS", "C2s", "material", 1),
}

LOGIC_IDS = tuple(LOGICS)


def require_logic(logic) -> None:
    require_type(logic, MatrixLogic, "a MatrixLogic")


def _require_member(x, logic: MatrixLogic) -> None:
    if not isinstance(x, Value):  # 1, True and 1.0 would pass as T0
        raise LogicError(f"{x!r} is not a Value")
    if x not in logic.lattice.members:
        raise LogicError(f"value {x} not in logic {logic.id}")


def apply(logic: MatrixLogic, conn: str, args: list[Value]) -> Value:
    require_logic(logic)
    if conn not in CONNECTIVES:
        raise LogicError(f"unknown connective {conn!r}")
    if len(args) != CONNECTIVES[conn]:
        raise LogicError(f"{conn} expects {CONNECTIVES[conn]} arguments")
    lat = logic.lattice
    for x in args:
        _require_member(x, logic)
    if conn == "and":
        return lat.meet(args[0], args[1])
    if conn == "or":
        return lat.join(args[0], args[1])
    if conn == "nabla":
        (x,) = args
        return apply(logic, "or", [x, apply(logic, "neg", [apply(logic, "circ", [x])])])
    if conn == "impL":
        a, c = args
        na = apply(logic, "neg", [a])
        left = apply(logic, "or", [apply(logic, "nabla", [na]), c])
        right = apply(logic, "or", [apply(logic, "nabla", [c]), na])
        return apply(logic, "and", [left, right])
    if conn == "neg":
        snap = twist_neg(SNAPSHOTS[args[0]])
    elif conn == "circ":
        snap = twist_circ(SNAPSHOTS[args[0]], logic.circ_third_coordinate)
    else:  # imp
        z, w = SNAPSHOTS[args[0]], SNAPSHOTS[args[1]]
        if logic.implication_family == "material":
            snap = twist_imp_material(z, w)
        else:
            snap = twist_imp_chain(z, w)
    result = from_snapshot(snap)
    assert result in lat.members, f"{conn} escaped {logic.id}: {args} -> {result}"
    return result


@dataclass(frozen=True)
class TruthTable:
    logic_id: str
    conn: str
    elements: tuple[Value, ...]
    cells: dict  # Value -> Value for unary, (Value, Value) -> Value for binary

    def render(self) -> str:
        width = 4
        sym = {"and": "&", "or": "|", "imp": "->", "impL": "=>",
               "neg": "!", "circ": "@", "nabla": "N"}[self.conn]
        lines = []
        if CONNECTIVES[self.conn] == 1:
            lines.append(f"{self.logic_id}  {sym}")
            for x in self.elements:
                lines.append(f" {x.name:<{width}}{self.cells[x].name}")
        else:
            header = " " * (width + 1) + "".join(f"{y.name:<{width}}" for y in self.elements)
            lines.append(f"{self.logic_id}  {sym}")
            lines.append(header)
            for x in self.elements:
                row = "".join(f"{self.cells[(x, y)].name:<{width}}" for y in self.elements)
                lines.append(f" {x.name:<{width}}{row}")
        return "\n".join(line.rstrip() for line in lines)


def truth_table(logic: MatrixLogic, conn: str) -> TruthTable:
    require_logic(logic)
    if conn not in CONNECTIVES:
        raise LogicError(f"unknown connective {conn!r}; expected one of {', '.join(CONNECTIVES)}")
    els = logic.lattice.elements
    if CONNECTIVES[conn] == 1:
        cells = {x: apply(logic, conn, [x]) for x in els}
    else:
        cells = {(x, y): apply(logic, conn, [x, y]) for x in els for y in els}
    return TruthTable(logic.id, conn, els, cells)


# The tuple of formulas `_walk` was given -> what it returned, worked out
# once per process and kept as long as the interned formulas
# (syntax._TABLE keeps them all); `_evaluate` counts down a copy of the
# use counts, so an entry serves every logic.
_WALKS: dict[tuple, tuple] = {}


def _walk(formulas: list) -> tuple[tuple, list, dict, dict]:
    """The desugared `formulas`; their nodes, children first, each once as
    (node, ids of its children); the atom names from left to right; and,
    by node id, how often each node is used: once per argument position,
    and once more for each formula.  Nodes are told apart by identity, so
    a shared subformula is evaluated once.  A box or diamond is refused
    before anything is walked, naming the formula as given.  Each tuple
    of formulas is walked once per process (`_WALKS`)."""
    syntax.require_propositional(formulas)
    key = tuple(formulas)
    entry = _WALKS.get(key)
    if entry is None:  # setdefault: threads that walk one tuple at once share one entry
        entry = _WALKS.setdefault(key, _analyse(key))
    return entry


def _analyse(formulas: tuple) -> tuple[tuple, list, dict, dict]:
    """`_walk` without the table, on formulas already checked."""
    roots = tuple(syntax.desugar(f) for f in formulas)
    order: list = []
    names: dict = {}
    uses = dict.fromkeys(map(id, roots), 1)
    seen: set = set()
    for f in roots:
        stack = [(f, None)]
        while stack:
            g, kids = stack.pop()
            if kids is not None:
                order.append((g, kids))
                continue
            if id(g) in seen:
                continue
            seen.add(id(g))
            kind = type(g)
            if kind is Atom:
                names.setdefault(g.name)
                order.append((g, ()))
            elif kind is Bottom:
                order.append((g, ()))
            else:
                children = syntax.children(g)
                stack.append((g, tuple(map(id, children))))
                for c in reversed(children):
                    uses[id(c)] = uses.get(id(c), 0) + 1
                    stack.append((c, None))
    return roots, order, names, uses


def _evaluate(logic: MatrixLogic, order: list, atoms: dict, one: int, uses: dict) -> dict:
    """Snapshots of the nodes in `order`, which `_walk` desugared, keyed by
    id, with each coordinate a bit-plane: bit j is its value under
    valuation j.  `atoms` maps atom names to planes; `one` has every
    valuation's bit set, so one=1 with 0/1 coordinates evaluates a single
    valuation.  `uses` comes from `_walk`, and a copy of it is counted
    down: a node's planes are dropped with its last use, so memory follows
    the widest cut of the formulas, not their size."""
    uses = uses.copy()
    bottom = tuple(one if c else 0 for c in SNAPSHOTS[logic.lattice.bottom])
    third = one if logic.circ_third_coordinate else 0
    imp = twist_imp_material if logic.implication_family == "material" else twist_imp_chain
    # & and | are the base lattice's bounds taken down into the logic's
    # lattice.  That moves a result only in L4s, whose b & n = F0 and
    # b | n = T0 go down to F and T: the reliability bit becomes t xor f.
    strong4 = logic.lattice.id == "L4s"

    val: dict[int, tuple] = {}
    for g, kids in order:
        kind = type(g)
        if kind is Atom:
            out = atoms[g.name]
        elif kind is Bottom:
            out = bottom
        elif kind is syntax.Neg:
            out = twist_neg(val[kids[0]])
        elif kind is syntax.Circ:
            out = twist_circ(val[kids[0]], third, one)
        else:
            z, w = val[kids[0]], val[kids[1]]
            if kind is syntax.Imp:
                out = imp(z, w, one)
            else:
                t, f, r = twist_and(z, w) if kind is syntax.And else twist_or(z, w)
                out = (t, f, r | (t ^ f)) if strong4 else (t, f, r)
        val[id(g)] = out
        for k in kids:
            uses[k] -= 1
            if not uses[k]:
                del val[k]
    return val


def evaluate(logic: MatrixLogic, f: Formula, assignment: dict[str, Value]) -> Value:
    """Value of a modal-free formula under an atom assignment."""
    require_logic(logic)
    (root,), order, names, uses = _walk([f])
    atoms = {}
    for name in names:
        try:
            x = assignment[name]
        except KeyError:
            raise LogicError(f"no value for atom {name!r}") from None
        _require_member(x, logic)
        atoms[name] = SNAPSHOTS[x]
    return from_snapshot(_evaluate(logic, order, atoms, 1, uses)[id(root)])


@dataclass(frozen=True)
class Verdict:
    valid: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.valid


@functools.cache
def _atom_planes(lattice_id: str, k: int) -> tuple[tuple[int, int, int], ...]:
    """Snapshot planes of each of k atoms over the valuations of
    product(elements, repeat=k): bit j of atom i's planes holds its value
    under valuation j, where the last atom varies fastest.  Cached; all
    nine lattices at every atom count up to MAX_ATOMS hold about 6.7 MB."""
    elements = LATTICES[lattice_id].elements
    m = len(elements)
    total = m**k
    full = (1 << total) - 1
    out = []
    for i in range(k):
        run = m ** (k - 1 - i)  # consecutive valuations that agree on atom i
        block = (1 << run) - 1
        planes = []
        for c in range(3):
            plane = 0
            for d, x in enumerate(elements):
                if SNAPSHOTS[x][c]:
                    plane |= block << (d * run)
            width = m * run
            while width < total:  # repeat the period by doubling, then trim
                plane |= plane << width
                width *= 2
            planes.append(plane & full)
        out.append(tuple(planes))
    return tuple(out)


def matrix_consequence(logic: MatrixLogic, premises, conclusion: Formula) -> Verdict:
    """Designation-preservation under every atom valuation; INVALID comes
    with the first witnessing assignment in canonical value order.

    Each formula is evaluated once over all |L|^k valuations, held as
    bit-planes; a value is designated iff its truth coordinate is 1."""
    require_logic(logic)
    roots, order, names, uses = _walk(list(premises) + [conclusion])
    names = sorted(names)
    k = len(names)
    if k > MAX_ATOMS:
        raise TooManyAtomsError(f"{k} atoms exceed the cap of {MAX_ATOMS}")
    elements = logic.lattice.elements
    one = (1 << len(elements) ** k) - 1
    atoms = dict(zip(names, _atom_planes(logic.lattice.id, k)))
    val = _evaluate(logic, order, atoms, one, uses)
    held = one
    for p in roots[:-1]:
        held &= val[id(p)][0]
    failed = held & ~val[id(roots[-1])][0]
    if not failed:
        return Verdict(True)
    j = (failed & -failed).bit_length() - 1
    witness = {}
    for name in reversed(names):
        j, d = divmod(j, len(elements))
        witness[name] = elements[d]
    return Verdict(False, {name: witness[name] for name in names})
