"""Kripke models whose worlds carry different logics: representation,
JSON format, validation, and evaluation of box/diamond formulas.

A box value at a world is the meet, inside that world's lattice, of the
down-interpreted values at its successors.  Diamonds come in four
variants: joins of up-interpreted values (the default), joins of
down-interpreted values, and the two negation rewrites !box! and ~box~.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import syntax
from .logics import LOGICS, MatrixLogic, apply
from .syntax import Bottom, Box, Diamond, Formula, Imp, Neg
from .values import Value, parse_value

DIAMOND_VARIANTS = ("up", "down", "negbox", "cnegbox")


class ModelFormatError(ValueError):
    """Structurally malformed model or frame document."""


def _adjacency(relation) -> dict[str, tuple[str, ...]]:
    """Each source world's successors in ascending order, from one pass
    over the sorted relation."""
    succ: dict[str, list[str]] = {}
    for u, v in sorted(relation):
        succ.setdefault(u, []).append(v)
    return {u: tuple(vs) for u, vs in succ.items()}


@dataclass(frozen=True)
class Frame:
    worlds: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    logics: dict[str, str]  # world -> logic id
    _succ: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._succ.update(_adjacency(self.relation))

    def successors(self, w: str) -> tuple[str, ...]:
        return self._succ.get(w, ())

    def logic(self, w: str) -> MatrixLogic:
        return LOGICS[self.logics[w]]


@dataclass(frozen=True)
class Model:
    worlds: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    logics: dict[str, str]
    valuation: dict[str, dict[str, Value]]
    diamond: str = "up"
    _succ: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        succ = _adjacency(self.relation)
        for w in self.worlds:
            self._succ[w] = succ.get(w, ())

    @property
    def frame(self) -> Frame:
        return Frame(self.worlds, self.relation, self.logics)

    def successors(self, w: str) -> tuple[str, ...]:
        return self._succ[w]

    def logic(self, w: str) -> MatrixLogic:
        return LOGICS[self.logics[w]]


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(model: Model) -> ValidationReport:
    errors, warnings = [], []
    if not model.worlds:
        errors.append("empty world set")
    seen = set(model.worlds)
    if len(seen) != len(model.worlds):
        errors.append("duplicate world names")
    for (u, v) in sorted(model.relation):
        for w in (u, v):
            if w not in seen:
                errors.append(f"relation names unknown world {w!r}")
    for w in model.worlds:
        if w not in model.logics:
            errors.append(f"world {w!r} has no logic")
        elif model.logics[w] not in LOGICS:
            errors.append(f"world {w!r} has unknown logic {model.logics[w]!r}")
    for w in model.logics:
        if w not in seen:
            errors.append(f"logic assignment names unknown world {w!r}")
    if model.diamond not in DIAMOND_VARIANTS:
        errors.append(f"unknown diamond variant {model.diamond!r}")
    all_atoms = set()
    for w, row in model.valuation.items():
        if w not in seen:
            errors.append(f"valuation names unknown world {w!r}")
            continue
        all_atoms |= set(row)
        if model.logics.get(w) in LOGICS:
            lat = LOGICS[model.logics[w]].lattice
            for atom, val in row.items():
                if val not in lat.members:
                    errors.append(f"valuation({w!r},{atom!r}) = {val} not in {lat.id}")
    for w in model.worlds:
        missing = sorted(all_atoms - set(model.valuation.get(w, {})))
        if missing:
            warnings.append(
                f"world {w!r} has no value for {', '.join(missing)}; defaulting to lattice bottom"
            )
    return ValidationReport(tuple(errors), tuple(warnings))


def _atom_value(model: Model, w: str, name: str) -> Value:
    row = model.valuation.get(w, {})
    if name in row:
        return row[name]
    return model.logic(w).lattice.bottom


def eval_formula(model: Model, world: str, f: Formula) -> Value:
    if world not in model.worlds:
        raise ModelFormatError(f"unknown world {world!r}")
    return _eval(model, world, syntax.desugar(f), {})


def _eval(model: Model, w: str, f: Formula, memo: dict) -> Value:
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


def holds(model: Model, world: str, f: Formula) -> bool:
    return model.logic(world).is_designated(eval_formula(model, world, f))


_MODEL_MEMBERS = {"worlds", "logics", "relation", "valuation", "diamond"}
_FRAME_MEMBERS = {"worlds", "logics", "relation", "diamond"}


def _parse_common(data: dict, allowed: set[str], what: str):
    if not isinstance(data, dict):
        raise ModelFormatError(f"{what} document must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise ModelFormatError(f"unknown members: {', '.join(sorted(unknown))}")
    worlds = data.get("worlds")
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise ModelFormatError("worlds must be an array of strings")
    logics = data.get("logics")
    if not isinstance(logics, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in logics.items()
    ):
        raise ModelFormatError("logics must map world to logic token")
    relation = data.get("relation")
    if not isinstance(relation, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
        for p in relation
    ):
        raise ModelFormatError("relation must be an array of 2-element arrays")
    diamond = data.get("diamond", "up")
    if diamond not in DIAMOND_VARIANTS:
        raise ModelFormatError(f"diamond must be one of {', '.join(DIAMOND_VARIANTS)}")
    return tuple(worlds), frozenset((u, v) for u, v in relation), dict(logics), diamond


def model_from_dict(data: dict) -> Model:
    worlds, relation, logics, diamond = _parse_common(data, _MODEL_MEMBERS, "model")
    raw = data.get("valuation")
    if not isinstance(raw, dict) or not all(isinstance(v, dict) for v in raw.values()):
        raise ModelFormatError("valuation must map world to an atom/value object")
    valuation: dict[str, dict[str, Value]] = {}
    for w, row in raw.items():
        parsed = {}
        for atom, token in row.items():
            if not syntax.ATOM_RE.fullmatch(atom):
                raise ModelFormatError(f"valuation({w!r},{atom!r}): {atom!r} is not an atom name")
            if not isinstance(token, str):
                raise ModelFormatError(f"valuation({w!r},{atom!r}) must be a value token")
            try:
                parsed[atom] = parse_value(token)
            except ValueError as exc:
                raise ModelFormatError(str(exc)) from None
        valuation[w] = parsed
    return Model(worlds, relation, logics, valuation, diamond)


def frame_from_dict(data: dict) -> Frame:
    worlds, relation, logics, _ = _parse_common(data, _FRAME_MEMBERS, "frame")
    return Frame(worlds, relation, logics)


def load_model(path) -> Model:
    return model_from_dict(json.loads(Path(path).read_text()))


def load_frame(path) -> Frame:
    return frame_from_dict(json.loads(Path(path).read_text()))


def model_to_dict(model: Model) -> dict:
    return {
        "worlds": list(model.worlds),
        "logics": dict(model.logics),
        "relation": [list(p) for p in sorted(model.relation)],
        "valuation": {
            w: {atom: val.name for atom, val in sorted(row.items())}
            for w, row in sorted(model.valuation.items())
        },
        "diamond": model.diamond,
    }


def validate_frame(frame: Frame) -> ValidationReport:
    dummy = Model(frame.worlds, frame.relation, frame.logics, {})
    return validate(dummy)
