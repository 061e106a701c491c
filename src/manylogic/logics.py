"""The nine matrix logics: designated sets, snapshot-algebra connectives,
generated truth tables, and consequence by exhaustive valuation search.

Connectives are computed coordinatewise on snapshots, except that & and |
are the lattice meet and join of the logic's own lattice.  The two agree
everywhere but in the four-element strong lattice, where the incomparable
pair {b, n} has its bounds recomputed inside the subset; the coordinatewise
result is then exactly the down-interpretation of that lattice's bound
(pinned by tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import syntax
from .lattices import Lattice, get_lattice
from .syntax import Atom, Bottom, Formula
from .values import SNAPSHOTS, Value, from_snapshot

MAX_ATOMS = 8


class LogicError(ValueError):
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


def twist_imp_material(z, w):
    z1, z2, z3 = z
    w1, w2, w3 = w
    return ((1 - z1) | w1, z1 & w2, (z1 & w2 & w3) | (z2 & z3) | (w1 & w3))


def twist_imp_chain(z, w):
    z1, z2, z3 = z
    w1, w2, w3 = w
    return ((1 - z1) | w1, z1 & w2, (1 - z1) | w3)


def twist_circ(z, third: int):
    z3 = z[2]
    return (z3, 1 - z3, third)


@dataclass(frozen=True)
class MatrixLogic:
    id: str
    lattice: Lattice
    designated: frozenset[Value]
    implication_family: str  # "material" | "lukasiewicz-family"
    circ_third_coordinate: int  # 1 | 0

    def is_designated(self, x: Value) -> bool:
        return x in self.designated

    def apply(self, conn: str, *args: Value) -> Value:
        return apply(self, conn, list(args))


def _make(lid: str, lattice_id: str, family: str, third: int) -> MatrixLogic:
    lat = get_lattice(lattice_id)
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


def get_logic(lid: str) -> MatrixLogic:
    try:
        return LOGICS[lid]
    except KeyError:
        raise LogicError(f"unknown logic id {lid!r}") from None


def apply(logic: MatrixLogic, conn: str, args: list[Value]) -> Value:
    if conn not in CONNECTIVES:
        raise LogicError(f"unknown connective {conn!r}")
    if len(args) != CONNECTIVES[conn]:
        raise LogicError(f"{conn} expects {CONNECTIVES[conn]} arguments")
    lat = logic.lattice
    for x in args:
        if x not in lat.members:
            raise LogicError(f"value {x} not in logic {logic.id}")
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
    els = logic.lattice.elements
    if CONNECTIVES[conn] == 1:
        cells = {x: apply(logic, conn, [x]) for x in els}
    else:
        cells = {(x, y): apply(logic, conn, [x, y]) for x in els for y in els}
    return TruthTable(logic.id, conn, els, cells)


def evaluate(logic: MatrixLogic, f: Formula, assignment: dict[str, Value]) -> Value:
    """Value of a modal-free formula under an atom assignment."""
    if isinstance(f, Atom):
        try:
            return assignment[f.name]
        except KeyError:
            raise LogicError(f"no value for atom {f.name!r}") from None
    if isinstance(f, Bottom):
        return logic.lattice.bottom
    if isinstance(f, syntax.Neg):
        return apply(logic, "neg", [evaluate(logic, f.child, assignment)])
    if isinstance(f, syntax.Circ):
        return apply(logic, "circ", [evaluate(logic, f.child, assignment)])
    if isinstance(f, syntax.CNeg):
        return apply(logic, "imp", [evaluate(logic, f.child, assignment), logic.lattice.bottom])
    if isinstance(f, syntax.Nabla):
        return apply(logic, "nabla", [evaluate(logic, f.child, assignment)])
    if isinstance(f, syntax.And):
        return apply(logic, "and", [evaluate(logic, f.left, assignment), evaluate(logic, f.right, assignment)])
    if isinstance(f, syntax.Or):
        return apply(logic, "or", [evaluate(logic, f.left, assignment), evaluate(logic, f.right, assignment)])
    if isinstance(f, syntax.Imp):
        return apply(logic, "imp", [evaluate(logic, f.left, assignment), evaluate(logic, f.right, assignment)])
    if isinstance(f, syntax.ImpL):
        return apply(logic, "impL", [evaluate(logic, f.left, assignment), evaluate(logic, f.right, assignment)])
    raise syntax.ModalFormulaError(f"modal operator in {syntax.to_text(f)}")


@dataclass(frozen=True)
class Verdict:
    valid: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.valid


def matrix_consequence(logic: MatrixLogic, premises, conclusion: Formula) -> Verdict:
    """Designation-preservation under every atom valuation; INVALID comes
    with the first witnessing assignment in canonical value order."""
    premises = list(premises)
    for f in premises + [conclusion]:
        if not syntax.is_modal_free(f):
            raise syntax.ModalFormulaError(f"modal operator in {syntax.to_text(f)}")
    names = sorted(set().union(*[syntax.atoms(f) for f in premises + [conclusion]]) or set())
    if len(names) > MAX_ATOMS:
        raise TooManyAtomsError(f"{len(names)} atoms exceed the cap of {MAX_ATOMS}")
    for combo in product(logic.lattice.elements, repeat=len(names)):
        assignment = dict(zip(names, combo))
        if all(logic.is_designated(evaluate(logic, p, assignment)) for p in premises):
            if not logic.is_designated(evaluate(logic, conclusion, assignment)):
                return Verdict(False, assignment)
    return Verdict(True)
