"""Kripke models whose worlds carry different logics: representation,
JSON format, validation, and evaluation of box/diamond formulas.

A box value at a world is the meet, inside that world's lattice, of the
down-interpreted values at its successors.  Diamonds come in four
variants: joins of up-interpreted values (the default), joins of
down-interpreted values, and the negations !box! and ~box~, which the
compiler emits in place of the diamond.  A model or a frame carries its
variant: every evaluation of the model and every check of the frame
uses it.

This module owns the value tables: the 4-bit mask tables every compiled
program runs on, Python lists read off each logic at the value of every
mask.  Loading a document lays out its world axis as it checks it
(validation does otherwise): each world's tag, 16 x its logic index,
and each atom's column of tagged masks.  Formulas
compile to a postfix program; `eval_formula` runs it over that axis, a
node's row one `bytes` whose byte w is w's tag | a mask, so that a
propositional node is a few `translate`s and int operations in C, and
keeps the formula on the model as a row of `Value`s.  `frames` runs it
on the same tables over byte lanes to check one frame, and over numpy
arrays built from these lists on the first sweep, so only the sweeps
load numpy.
"""

from __future__ import annotations

import json
from collections.abc import Collection, Hashable, Mapping
from os import PathLike
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from . import syntax
from .lattices import MASK
from .logics import LOGIC_IDS, LOGICS, MatrixLogic, apply
from .syntax import Bottom, Box, Diamond, Formula, Imp, Neg
from .values import Frozen, ManylogicError, Value, _set, parse_value, require_type

DIAMOND_VARIANTS = ("up", "down", "negbox", "cnegbox")


class ModelFormatError(ManylogicError):
    """Structurally malformed model or frame document."""


def _read_only(mapping, noun: str) -> Mapping:
    require_type(mapping, Mapping, noun)
    return MappingProxyType(dict(mapping))


class _Worlds(Frozen):
    """What a frame and a model share: worlds, relation, a read-only logic
    per world, and what validation and `_world_axis` work out once."""

    __slots__ = ("worlds", "relation", "logics", "_report", "_axis")
    _fields = __match_args__ = ("worlds", "relation", "logics")

    def __init__(self, worlds: tuple[str, ...], relation: frozenset[tuple[str, str]], logics: Mapping[str, str]):
        for value, noun in ((worlds, "worlds"), (relation, "pairs as the relation")):
            if not isinstance(value, Collection) or isinstance(value, (str, bytes)):  # not one per char
                raise TypeError(f"expected a collection of {noun}, got {type(value).__name__}")
        try:  # stored as a tuple and a frozenset, so that equal ones hash alike
            worlds, relation = tuple(worlds), frozenset(relation)
            hash(worlds)
        except TypeError as exc:
            raise TypeError(f"world names and relation entries must be hashable: {exc}") from None
        self._init(worlds, relation, _read_only(logics, "a mapping as the logics"))
        _set(self, "_report", None)
        _set(self, "_axis", None)

    def __hash__(self):  # equal frames and models share worlds and relation
        return hash((self.worlds, self.relation))

    def successors(self, w: str) -> tuple[str, ...]:
        """w's successors in ascending order; each call scans the relation."""
        return tuple(sorted([v for u, v in self.relation if u == w]))

    def logic(self, w: str) -> MatrixLogic:
        return LOGICS[self.logics[w]]


class Frame(_Worlds):
    __slots__ = ("diamond",)  # the variant every check on the frame uses
    _fields = __match_args__ = ("worlds", "relation", "logics", "diamond")

    def __init__(self, worlds, relation, logics, diamond: str = "up"):
        super().__init__(worlds, relation, logics)
        _set(self, "diamond", diamond)

    def __reduce__(self):  # read-only mappings do not pickle; their contents do
        return Frame, (self.worlds, self.relation, dict(self.logics), self.diamond)


class Model(_Worlds):
    """A Kripke model.  `logics` and every `valuation` row are read-only
    views of mappings no caller holds, so the world axis kept on the
    model, and the rows `eval_formula` keeps there, stay true to it."""

    __slots__ = ("valuation", "diamond", "_answers")
    _fields = __match_args__ = ("worlds", "relation", "logics", "valuation", "diamond")

    def __init__(self, worlds, relation, logics, valuation: Mapping[str, Mapping[str, Value]], diamond: str = "up"):
        super().__init__(worlds, relation, logics)
        require_type(valuation, Mapping, "a mapping as the valuation")
        rows = {w: _read_only(row, "a mapping as a world's valuation") for w, row in valuation.items()}
        self._init(self.worlds, self.relation, self.logics, MappingProxyType(rows), diamond)
        _set(self, "_answers", None)

    @property
    def frame(self) -> Frame:
        return Frame(self.worlds, self.relation, self.logics, self.diamond)

    def __reduce__(self):  # read-only mappings do not pickle; their contents do
        valuation = {w: dict(row) for w, row in self.valuation.items()}
        return Model, (self.worlds, self.relation, dict(self.logics), valuation, self.diamond)


def _world_axis(x: Frame | Model) -> tuple[dict[str, int], list[list[int]], bytes, dict[str, bytes]]:
    """x's world -> position map; by position its successors' positions in
    no set order and its tag (16 x its logic index); each atom's column, the
    tag | the atom's mask (its bottom's where missing): as loading or
    validating x laid them out.  ModelFormatError if x does not validate."""
    is_model = isinstance(x, Model)
    report = validate(x) if is_model else validate_frame(x)
    if not report.ok:
        raise ModelFormatError(report.refusal("model" if is_model else "frame"))
    return x._axis


class ValidationReport(NamedTuple):
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    def refusal(self, noun: str) -> str:
        """"invalid <noun>: " and the first 10 errors, then how many more:
        a large invalid model gives a short line, not every error."""
        more = len(self.errors) - 10
        tail = f"; … and {more} more" if more > 0 else ""
        return f"invalid {noun}: " + "; ".join(self.errors[:10]) + tail


def validate(model: Model) -> ValidationReport:
    """The model's errors and warnings, worked out once per model."""
    require_type(model, Model, "a Model")
    return _validate(model, model.valuation)


def validate_frame(frame: Frame) -> ValidationReport:
    """The frame's errors and warnings, worked out once per frame."""
    require_type(frame, Frame, "a Frame")
    return _validate(frame, {})


def _validate(model: Frame | Model, valuation) -> ValidationReport:
    """The passes over the relation, the worlds and the valuation lay out
    the world axis: successors, tags and atom codes, kept on a model that
    validates.  An unknown world or a non-pair fails a lookup in the first;
    a logic id that is no str, an unhashable one too, is unknown."""
    if model._report is not None:
        return model._report
    seen = {w: i for i, w in enumerate(model.worlds)}  # world -> position
    succs: list[list[int]] | None = [[] for _ in model.worlds]
    try:
        for u, v in model.relation:
            succs[seen[u]].append(seen[v])
    except (KeyError, TypeError, ValueError):  # an unknown world, or not a pair
        succs = None
    errors, warnings = [], []
    if not model.worlds:
        errors.append("empty world set")
    if len(seen) != len(model.worlds):
        errors.append("duplicate world names")
    if succs is None:
        pairs, others = [], []
        for entry in model.relation:
            (pairs if type(entry) is tuple and len(entry) == 2 else others).append(entry)
        for (u, v) in sorted(pairs, key=_pair_order):
            for w in (u, v):
                if w not in seen:
                    errors.append(f"relation names unknown world {w!r}")
        for entry in sorted(others, key=repr):
            errors.append(f"relation entry {entry!r} is not a pair of worlds")
    tags = bytearray(b"\xff") * len(model.worlds)  # 255 where the logic is unknown
    for i, w in enumerate(model.worlds):
        if w not in model.logics:
            errors.append(f"world {w!r} has no logic")
        elif not isinstance(lid := model.logics[w], str) or lid not in _LOGIC_INDEX:
            errors.append(f"world {w!r} has unknown logic {lid!r}")
        else:
            tags[i] = 16 * _LOGIC_INDEX[lid]
    for w in model.logics:
        if w not in seen:
            errors.append(f"logic assignment names unknown world {w!r}")
    if model.diamond not in DIAMOND_VARIANTS:
        errors.append(f"unknown diamond variant {model.diamond!r}")
    all_atoms, codes = set(), {}
    for w, row in valuation.items():
        if w not in seen:
            errors.append(f"valuation names unknown world {w!r}")
            continue
        for atom in row:
            if isinstance(atom, str):
                all_atoms.add(atom)
            else:
                errors.append(f"valuation({w!r},{atom!r}): {atom!r} is not an atom name")
        tag = tags[seen[w]]
        lat = _LATTICES[tag >> 4] if tag != 255 else None
        for atom, val in row.items():
            if not isinstance(val, Value):  # a bool or int would index the tables as a code
                errors.append(f"valuation({w!r},{atom!r}) = {val!r} is not a Value")
            elif lat is not None and val not in lat.members:
                errors.append(f"valuation({w!r},{atom!r}) = {val} not in {lat.id}")
            else:  # the atom's value codes by world position, 6 where it is missing
                if atom not in codes:
                    codes[atom] = bytearray(b"\x06") * len(model.worlds)
                codes[atom][seen[w]] = val
    for w in model.worlds:
        missing = all_atoms.difference(valuation.get(w, ()))
        if missing:
            warnings.append(
                f"world {w!r} has no value for {', '.join(sorted(missing))}; "
                "defaulting to lattice bottom"
            )
    if not errors:
        _lay_out(model, seen, succs, tags, codes)
    _set(model, "_report", ValidationReport(tuple(errors), tuple(warnings)))
    return model._report


def _lay_out(x: Frame | Model, seen, succs, tags, codes) -> None:
    """Keep x's world axis on x: the position map, the successors and the
    tags as given, and each atom's value codes by position (6 where it is
    missing) as its tagged column."""
    n, tag_bits = len(tags), _num(tags)
    columns = {a: (_num(c) | tag_bits).to_bytes(n, "little").translate(_ATOM_T) for a, c in codes.items()}
    _set(x, "_axis", (seen, succs, bytes(tags), columns))


def _pair_order(pair: tuple) -> tuple:
    """Pairs of strings first, in their own order; then any others by repr,
    which orders names of mixed types too."""
    return (0, pair) if all(isinstance(w, str) for w in pair) else (1, repr(pair))


# ---------------------------------------------------------------- tables
#
# A compiled program runs on the 4-bit masks of the values that
# `lattices.MASK` holds (F=0, F0=1, n=3, b=5, T0=7, T=15), on which the
# base meet is AND and the base join OR.  In every logic w the meet of a
# multiset is down_w of the AND of its masks and the join is up_w of the
# OR; down_w(15) is w's top and up_w(0) its bottom.  The tables are read
# off each logic at the value of every mask and laid out flat: a world's
# row starts at 16 x its logic index (imp's at 256 x), so row | mask reads
# a map.  Box and the up diamond need not interpret each successor first:
# down_w of the AND of the raw masks is the meet in w of their down_w,
# and up_w of the OR the join of their up_w.  The masks that name no
# value read T; a connective at a value outside a logic's lattice reads
# 0 (F) and is never looked up.

_LOGIC_INDEX = {lid: i for i, lid in enumerate(LOGIC_IDS)}
_LATTICES = [logic.lattice for logic in LOGICS.values()]  # by logic index
_CODE = [MASK.index(m) if m in MASK else int(Value.T) for m in range(16)]  # by mask; others read T
_VALUE_OF = [Value(c) for c in _CODE]  # by mask


def _at_masks(f, elements, outside=0) -> list:
    """f at the value of each mask, computed once per element; `outside`
    where the value is not an element."""
    at = {x: f(x) for x in elements}
    return [at.get(v, outside) for v in _VALUE_OF]


def _mask_tables():
    """_DOWN, _UP, _CIRC, _IMP and _DESIG, logic by logic."""
    down, up, circ, imp, desig = [], [], [], [], []
    for logic in LOGICS.values():  # in the order of LOGIC_IDS
        lat, elements = logic.lattice, logic.lattice.elements
        down += [MASK[lat.down(v)] for v in _VALUE_OF]
        up += [MASK[lat.up(v)] for v in _VALUE_OF]
        circ += _at_masks(lambda x: MASK[apply(logic, "circ", [x])], elements)
        imp += _at_masks(lambda x: _at_masks(lambda y: MASK[apply(logic, "imp", [x, y])], elements),
                         elements, [0] * 16)
        desig += [logic.is_designated(v) for v in _VALUE_OF]
    return down, up, circ, imp, desig


_DOWN, _UP, _CIRC, _IMP, _DESIG = _mask_tables()
_NEG = _at_masks(lambda x: MASK[apply(LOGICS["LETK"], "neg", [x])], Value)  # the same in every logic


# `eval_formula` runs on bytes along the world axis: byte w is w's tag,
# 16 x its logic index (so at most 16 logics), OR a mask.  The 256-byte
# translate tables below keep the tag; & and | need none: both rows carry
# one tag at each world.  imp depends on the implication family alone, so
# _IMP_T is indexed by 128 x family | 16 x x's code | y's mask (_IMP_X of
# the tagged x XOR the tagged y), filled from each family's largest lattice.

def _num(row: bytes) -> int:
    return int.from_bytes(row, "little")


_TAGS = _num(b"".join(bytes([16 * i]) * 16 for i in range(len(LOGIC_IDS))))  # by row | mask
_NEG_T, _CIRC_T, _DOWN_T, _UP_T, _ATOM_T = ((_num(bytes(t)) | _TAGS).to_bytes(256, "little") for t in (
    _NEG * len(LOGIC_IDS), _CIRC, _DOWN, _UP,  # _ATOM_T by value code, and 6 for the bottom
    b"".join(bytes([*MASK, _UP[r]]).ljust(16, b"\0") for r in range(0, len(_UP), 16))))
_MASKS = bytes(range(16)) * 16
_FAMILY = [logic.implication_family != "material" for logic in LOGICS.values()]
_IMP_X = bytes([(fam << 7 | c << 4) ^ 16 * i for i, fam in enumerate(_FAMILY) for c in _CODE]).ljust(256, b"\0")
_IMP_ROWS = {_FAMILY[i] << 7 | x << 4: bytes(_IMP[16 * i | MASK[x]])
             for i, logic in sorted(enumerate(LOGICS.values()), key=lambda e: len(e[1].lattice.elements))
             for x in logic.lattice.elements}
_IMP_T = b"".join(_IMP_ROWS.get(r, bytes(16)) for r in range(0, 256, 16))


# ------------------------------------------------------------- programs

_OPCODES = {
    Bottom: "bottom", Neg: "neg", syntax.Circ: "circ",
    syntax.And: "and", syntax.Or: "or", Imp: "imp", Box: "box",
}


# (formula, variant) -> (atom names, program), compiled once per process
# and kept as long as the interned formula (syntax._TABLE keeps them all)
_PROGRAMS: dict[tuple[Formula, str], tuple] = {}


def compile_program(f: Formula, variant: str, atom_names: tuple[str, ...]):
    """Postfix program over value codes, one node per distinct subformula,
    children before parents.  Under negbox a diamond <>x compiles as
    ![]!x, under cnegbox as [](x -> #) -> #; up and down fold it."""
    if variant not in DIAMOND_VARIANTS:
        raise ModelFormatError(f"unknown diamond variant {variant!r}")
    dia_kind = "dia_up" if variant != "down" else "dia_down"
    index: dict[Formula, int] = {}
    prog: dict[tuple, int] = {}  # node -> its position: equal nodes are one
    for g in syntax.postorder(syntax.desugar(f)):
        kind = type(g)
        if kind is syntax.Atom:
            node = ("atom", atom_names.index(g.name))
        elif kind is not Diamond:
            node = (_OPCODES[kind], *[index[c] for c in syntax.children(g)])
        elif variant == "negbox":
            x = prog.setdefault(("neg", index[g.child]), len(prog))
            node = ("neg", prog.setdefault(("box", x), len(prog)))
        elif variant == "cnegbox":
            bottom = prog.setdefault(("bottom",), len(prog))
            x = prog.setdefault(("imp", index[g.child], bottom), len(prog))
            node = ("imp", prog.setdefault(("box", x), len(prog)), bottom)
        else:
            node = (dia_kind, index[g.child])
        index[g] = prog.setdefault(node, len(prog))
    return list(prog)


# ------------------------------------------------------------ evaluation

def _run(model: Model, f: Formula) -> bytes:
    """f's row on a valid model's world axis, by position the tag | f's mask."""
    key = (f, model.diamond)
    entry = _PROGRAMS.get(key)
    if entry is None:  # setdefault: threads that compile f at once share one entry
        names = tuple(syntax.atoms(f))
        entry = _PROGRAMS.setdefault(key, (names, tuple(compile_program(f, model.diamond, names))))
    names, program = entry
    _, succs, lat, columns = model._axis
    tags, n, bot = _num(lat), len(lat), lat.translate(_UP_T)  # up_w(0): bottom
    slots: list[bytes] = []
    for node in program:
        kind = node[0]
        if kind == "atom":
            row = columns.get(names[node[1]], bot)
        elif kind == "bottom":
            row = bot
        elif kind == "neg":
            row = slots[node[1]].translate(_NEG_T)
        elif kind == "circ":
            row = slots[node[1]].translate(_CIRC_T)
        elif kind == "and":
            row = (_num(slots[node[1]]) & _num(slots[node[2]])).to_bytes(n, "little").translate(_DOWN_T)
        elif kind == "or":
            row = (_num(slots[node[1]]) | _num(slots[node[2]])).to_bytes(n, "little").translate(_UP_T)
        elif kind == "imp":
            at = (_num(slots[node[1]].translate(_IMP_X)) ^ _num(slots[node[2]])).to_bytes(n, "little")
            row = (_num(at.translate(_IMP_T)) | tags).to_bytes(n, "little")
        else:  # a fold over each world's successors, on the child's masks
            ch, row = list(slots[node[1]].translate(_MASKS)), []
            if kind == "box":  # down_w(AND of the successors' masks)
                for ss in succs:
                    acc = 15
                    for u in ss:
                        acc &= ch[u]
                    row.append(acc)
            elif kind == "dia_up":  # up_w(OR of the successors' masks)
                for ss in succs:
                    acc = 0
                    for u in ss:
                        acc |= ch[u]
                    row.append(acc)
            else:  # dia_down: up_w(OR of the successors' down_w)
                for l, ss in zip(lat, succs):
                    acc = 0
                    for u in ss:
                        acc |= _DOWN[l | ch[u]]
                    row.append(acc)
            row = (_num(bytes(row)) | tags).to_bytes(n, "little").translate(_DOWN_T if kind == "box" else _UP_T)
        slots.append(row)
    return slots[-1]


def eval_formula(model: Model, world: str, f: Formula) -> Value:
    """The value of f at a world, run on the model's world axis;
    ModelFormatError if `validate` reports errors.  The first query of a
    formula keeps its `Value` at every world on the model, a row read by
    world position, so later queries of it are two subscripts.  Its
    program is compiled once per process and variant (`_PROGRAMS`)."""
    try:
        return model._answers[f][model._axis[0][world]]
    except (AttributeError, KeyError, TypeError):  # a miss or bad input: the checks run below
        pass
    require_type(model, Model, "a Model")
    index = _world_axis(model)[0]
    answers = model._answers
    if answers is None:
        _set(model, "_answers", answers := {})
    require_type(world, Hashable, "a world name")
    i = index.get(world)
    if i is None:
        raise ModelFormatError(f"unknown world {world!r}")
    require_type(f, Formula, "a Formula")
    if f not in answers:
        answers[f] = [_VALUE_OF[x] for x in _run(model, f).translate(_MASKS)]
    return answers[f][i]


def holds(model: Model, world: str, f: Formula) -> bool:
    value = eval_formula(model, world, f)  # first, so bad input raises its typed error
    return model.logic(world).is_designated(value)


_MEMBERS = {Model: {"worlds", "logics", "relation", "valuation", "diamond"},
            Frame: {"worlds", "logics", "relation", "diamond"}}


def _from_dict(data: dict, kind: type, diamond: str | None = None) -> Frame | Model:
    """The `kind` a document describes, under `diamond` if one is given
    once the document's own is checked; ModelFormatError for the first
    malformed member.  The checks lay out the world axis as they go.  A
    document with no validation error or warning keeps its report and
    axis; any anomaly leaves both to `_validate`, which words it."""
    if not isinstance(data, dict):
        raise ModelFormatError(f"{kind.__name__.lower()} document must be a JSON object")
    unknown = set(data) - _MEMBERS[kind]
    if unknown:
        raise ModelFormatError(f"unknown members: {', '.join(sorted(unknown))}")
    worlds, logics, relation = data.get("worlds"), data.get("logics"), data.get("relation")
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise ModelFormatError("worlds must be an array of strings")
    if not isinstance(logics, dict) or not all(isinstance(k, str) and isinstance(v, str) for k, v in logics.items()):
        raise ModelFormatError("logics must map world to logic token")
    seen, n = {w: i for i, w in enumerate(worlds)}, len(worlds)  # world -> position
    succs, clean = [[] for _ in worlds], len(seen) == n > 0
    for p in relation if isinstance(relation, list) else [None]:  # [None] is refused
        if not isinstance(p, list) or len(p) != 2 or not (isinstance(p[0], str) and isinstance(p[1], str)):
            raise ModelFormatError("relation must be an array of 2-element arrays")
        try:
            succs[seen[p[0]]].append(seen[p[1]])
        except KeyError:  # an unknown world
            clean = False
    pairs = frozenset(map(tuple, relation))  # shorter than relation if a pair is repeated
    if (own := data.get("diamond", "up")) not in DIAMOND_VARIANTS:
        raise ModelFormatError(f"diamond must be one of {', '.join(DIAMOND_VARIANTS)}")
    try:  # a world with no logic, or an unknown one, fails a lookup
        tags = bytes([16 * _LOGIC_INDEX[logics[w]] for w in worlds])
    except KeyError:
        tags, clean = b"", False
    clean = clean and len(pairs) == len(relation) and len(logics) == n  # no pair twice, no stray logic
    raw, rows, codes, entries = data.get("valuation") if kind is Model else {}, {}, {}, 0
    if not isinstance(raw, dict) or not all(isinstance(v, dict) for v in raw.values()):
        raise ModelFormatError("valuation must map world to an atom/value object")
    for w, row in raw.items():
        clean = clean and (i := seen.get(w)) is not None
        members, parsed = _LATTICES[tags[i] >> 4].members if clean else (), {}
        for atom, token in row.items():
            if (column := codes.get(atom)) is None:  # each atom name is checked once
                if not syntax.ATOM_RE.fullmatch(atom):
                    raise ModelFormatError(f"valuation({w!r},{atom!r}): {atom!r} is not an atom name")
                column = codes[atom] = bytearray(b"\x06") * n
            if not isinstance(token, str):
                raise ModelFormatError(f"valuation({w!r},{atom!r}) must be a value token")
            try:
                parsed[atom] = value = parse_value(token)
            except ManylogicError as exc:
                raise ModelFormatError(str(exc)) from None
            if value in members:
                column[i] = value
            else:  # outside w's lattice
                clean = False
        rows[w], entries = MappingProxyType(parsed), entries + len(parsed)
    if kind is Model:
        x = Model(worlds, pairs, logics, {}, diamond or own)
        _set(x, "valuation", MappingProxyType(rows))  # built here, so not copied again
    else:
        x = Frame(worlds, pairs, logics, diamond or own)
    if clean and entries == len(codes) * n:  # and no atom is missing at a world
        _lay_out(x, seen, succs, tags, codes)
        _set(x, "_report", ValidationReport((), ()))
    return x


def model_from_dict(data: dict) -> Model:
    return _from_dict(data, Model)


def frame_from_dict(data: dict) -> Frame:
    return _from_dict(data, Frame)


def _members(pairs: list) -> dict:
    """A JSON object's members; one named twice is refused, not overwritten."""
    members = dict(pairs)
    if len(members) < len(pairs):
        twice = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ModelFormatError(f"member {twice!r} appears twice in one object")
    return members


def _read_json(path):
    """The JSON document in a UTF-8 file, whatever the locale's encoding;
    ModelFormatError for bytes that do not decode, malformed JSON, nesting
    the decoder cannot follow or a member named twice."""
    require_type(path, (str, PathLike), "a str or PathLike as the path")
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_members)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(str(exc)) from None


def load_model(path) -> Model:
    return model_from_dict(_read_json(path))


def load_frame(path) -> Frame:
    return frame_from_dict(_read_json(path))


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
