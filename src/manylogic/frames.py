"""Frame properties, axiom-schema checking by valuation sweep, and the
collected frame-correspondence results.

Schema checks enumerate every valuation of every (relation, logic
assignment) frame at a given world count.  The sweep is vectorised with
numpy over a joint (assignment, valuation) axis, on the 4-bit mask
tables of `models`; counterexamples are handed back as ordinary models
that replay through the normal evaluator.  Every sweep goes through one
relation loop (`_sweep`), which evaluates each row once per what it
depends on, and every sweep picks the lanes it reports by one
failing-lane rule (`_failures`).  Sampled checks take a sample count and
a seed and draw as `Random(seed)` draws.  A check of one given frame
(`axiom_valid_on_frame`) reads the diamond off the frame, as an
evaluation reads it off the model, runs on byte lanes without numpy
(`_run_lanes`) and picks its own first undesignated lane; `_choose`
decodes its draws in bulk, as many words as picks are missing.

This module owns the numpy and byte forms of the mask tables `models`
keeps as lists (`DOWN_M`, ...), and the code tables (`MEET_T`, ...) that
no runner reads, gathered from them; the sweeps' lanes are byte rows
that numpy views.  Importing it does not import numpy: the first sweep
imports numpy and builds the arrays (`_load`), readable as attributes.
"""

from __future__ import annotations

import json
import threading
from functools import reduce
from itertools import compress, product
from math import prod
from operator import and_, attrgetter, or_
from random import Random
from typing import Callable, NamedTuple

from . import models, syntax
from .lattices import MASK, transitive_closure
from .logics import LOGIC_IDS, LOGICS
from .models import (  # the value tables, as lists, and the compiler live in models
    _LOGIC_INDEX,
    _VALUE_OF,
    Frame,
    Model,
    ModelFormatError,
    _is_pair,
    _num,
    _world_axis,
    compile_program,
    model_to_dict,
)
from .syntax import Box, Diamond, Formula, Imp, Neg, parse
from .values import ManylogicError, Value, require_ids, require_int, require_type

DEFAULT_SEED = 0
FIVE_C_LOGIC_IDS = ("FDE", "K3", "LP", "LJ4", "CLW")  # the mixed subset whose 5c sweep AC11 and the suite run

# The value tables as numpy arrays: the mask tables of `models`, which
# the batched runner reads, and the code tables read off them.
_NUMPY_NAMES = frozenset(("DOWN_M", "UP_M", "CIRC_M", "IMP_M", "DESIG_M", "NEG_M", "MEET_T", "JOIN_T", "IMP_T",
                          "CIRC_T", "NEG_T", "DOWN_T", "UP_T", "TOP_T", "BOT_T"))
_NUMPY_LOCK = threading.Lock()
_CLASSICAL_WINDOW = None  # by mask: which values lie in {T, T0, F0, F}; bound by _load


def _numpy_tables() -> dict:
    """numpy and the numpy tables by name: the mask lists of `models`, and
    the code tables gathered from them at each value's mask, by logic and
    codes (-1 outside its lattice)."""
    import numpy as np

    out = {f"{name}_M": np.array(getattr(models, f"_{name}"), dtype=bool if name == "DESIG" else np.uint8).ravel()
           for name in ("DOWN", "UP", "CIRC", "IMP", "DESIG", "NEG")}
    mask, code = np.array(MASK, dtype=np.uint8), np.array(models._CODE, dtype=np.int8)  # by code; by mask
    down, up, circ = (out[f"{name}_M"].reshape(-1, 16) for name in ("DOWN", "UP", "CIRC"))
    inside = down[:, mask] == mask  # by logic and code: an element is its own down
    pairs = inside[:, :, None] & inside[:, None, :]
    for name, table, where in (("MEET_T", down[:, mask[:, None] & mask], pairs),
                               ("JOIN_T", up[:, mask[:, None] | mask], pairs),
                               ("IMP_T", out["IMP_M"].reshape(-1, 16, 16)[:, mask][:, :, mask], pairs),
                               ("CIRC_T", circ[:, mask], inside)):
        out[name] = np.where(where, code[table], np.int8(-1))
    out["NEG_T"], out["DOWN_T"], out["UP_T"] = code[out["NEG_M"][mask]], code[down[:, mask]], code[up[:, mask]]
    out["TOP_T"], out["BOT_T"] = code[down[:, 15]], code[up[:, 0]]
    out["np"] = np
    window = np.zeros(16, dtype=bool)
    window[[MASK[v] for v in (Value.T, Value.T0, Value.F0, Value.F)]] = True
    out["_CLASSICAL_WINDOW"] = window
    return out


def _load() -> None:
    """Bind numpy and the numpy tables here, once, under the lock; every
    sweep calls this first."""
    with _NUMPY_LOCK:
        if _CLASSICAL_WINDOW is None:
            globals().update(_numpy_tables())


def __getattr__(name: str):
    # the name is checked first: the import system probes names such as
    # __path__ here, and those must not load numpy
    if name not in _NUMPY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    return globals()[name]


class BudgetError(ManylogicError):
    """A frame check asked for what it cannot check: a world, sample or
    counterexample count out of range, a logic set that is empty, names an
    unknown logic or names a logic twice."""


class FrameProperties(NamedTuple):
    reflexive: bool
    transitive: bool
    euclidean: bool
    symmetric: bool
    serial: bool


def _properties(worlds, rel) -> FrameProperties:
    """The properties of a relation, a collection of (source, target)
    pairs, over `worlds`, read off each source's successor set: for each
    edge a -> b, transitivity asks succ(b) <= succ(a) and euclideanness
    succ(a) <= succ(b)."""
    succ: dict = {}
    for a, b in rel:
        succ.setdefault(a, set()).add(b)
    none, known = frozenset(), frozenset(worlds)
    return FrameProperties(
        reflexive=all(w in succ.get(w, none) for w in worlds),
        transitive=all(succ.get(b, none) <= out for out in succ.values() for b in out),
        euclidean=all(out <= succ.get(b, none) for out in succ.values() for b in out),
        symmetric=all(a in succ.get(b, none) for a, b in rel),
        serial=all(not succ.get(w, none).isdisjoint(known) for w in worlds),
    )


def frame_properties(frame: Frame) -> FrameProperties:
    """The frame's properties; ModelFormatError for a relation entry that
    is not a pair, as `models.validate_frame` reports it."""
    require_type(frame, Frame, "a Frame")
    if others := sorted((e for e in frame.relation if not _is_pair(e)), key=repr):
        raise ModelFormatError(f"relation entry {others[0]!r} is not a pair of worlds")
    return _properties(frame.worlds, frame.relation)


class AxiomSchema(NamedTuple):
    id: str
    template: Formula

    @property
    def atoms(self) -> tuple[str, ...]:
        """The template's atoms in name order: the valuation axis's order."""
        return tuple(sorted(syntax.atoms(self.template)))


SCHEMAS: dict[str, AxiomSchema] = {
    "K": AxiomSchema("K", parse("[](p -> q) -> ([]p -> []q)")),
    "T": AxiomSchema("T", parse("[]p -> p")),
    "4": AxiomSchema("4", parse("[]p -> [][]p")),
    "5": AxiomSchema("5", parse("<>p -> []<>p")),
    "5c": AxiomSchema("5c", parse("<>~p -> []<>~p")),
    "B": AxiomSchema("B", parse("p -> []<>p")),
    "D": AxiomSchema("D", parse("[]p -> <>p")),
}


class Counterexample(NamedTuple):
    model: Model
    world: str
    value: Value


class CheckResult(NamedTuple):
    valid: bool
    counterexample: Counterexample | None
    frames_checked: int
    models_checked: int


# ------------------------------------------------------------- programs

def _eval_slots(prog, edges, lat, vals, given=()):
    """Evaluate a program over mask arrays along one batch axis: lat[w]
    holds the table row of world w's logic, vals[a][w] the masks of atom
    a, and edges[w] lists w's successors as (u, present, absent), with
    present and absent None for an edge in every lane and otherwise uint8
    arrays, 15 and 0 where the edge is there and 0 and 15 where not, so
    an absent edge adds the unit of the fold.  Returns one row per program
    node, one array per world, taking as they are the rows `given` holds
    by node (None where a row is to be evaluated)."""
    slots = list(given) or [None] * len(prog)
    for i, node in enumerate(prog):
        kind = node[0]
        if slots[i] is not None:
            continue
        if kind == "atom":
            row = vals[node[1]]
        elif kind == "bottom":
            row = [UP_M.take(l) for l in lat]
        elif kind == "neg":
            row = [NEG_M.take(x) for x in slots[node[1]]]
        elif kind == "circ":
            row = [CIRC_M.take(l | x) for l, x in zip(lat, slots[node[1]])]
        elif kind == "and":
            row = [DOWN_M.take(l | x & y) for l, x, y in zip(lat, slots[node[1]], slots[node[2]])]
        elif kind == "or":
            row = [UP_M.take(l | x | y) for l, x, y in zip(lat, slots[node[1]], slots[node[2]])]
        elif kind == "imp":
            row = [IMP_M.take((l | x) << 4 | y) for l, x, y in zip(lat, slots[node[1]], slots[node[2]])]
        elif kind == "box":  # down_w(AND of the successors' masks)
            ch = slots[node[1]]
            row = []
            for l, es in zip(lat, edges):
                acc = 15
                for u, _, absent in es:
                    acc = acc & (ch[u] if absent is None else ch[u] | absent)
                row.append(DOWN_M.take(l | acc))
        else:  # dia_up: up_w(OR of the masks); dia_down: up_w(OR of their down_w)
            ch = slots[node[1]]
            row = []
            for l, es in zip(lat, edges):
                acc = 0
                for u, present, _ in es:
                    x = ch[u] if kind == "dia_up" else DOWN_M.take(l | ch[u])
                    acc = acc | (x if present is None else x & present)
                row.append(UP_M.take(l | acc))
        slots[i] = row
    return slots


# ----------------------------------------------------------------- axes

class _Axis(NamedTuple):
    interps: tuple  # per block: the logic index of every world
    bounds: np.ndarray  # block b covers positions bounds[b]:bounds[b + 1]
    lat: tuple  # per world: its table rows over the axis
    vals: tuple  # vals[a][w]: masks over the axis


def _grid(dims) -> tuple[int, list[bytes]]:
    """Every combination of one byte from each of dims, the first dimension
    varying slowest: their count, and one row a dimension holding its byte
    in each combination."""
    count, rows, outer = prod(map(len, dims)), [], 1
    for d in dims:
        outer *= len(d)
        rows.append(b"".join(bytes([e]) * (count // outer) for e in d) * (outer // len(d)))
    return count, rows


def _build_axis(n_worlds: int, interps, atoms: int) -> _Axis:
    """One block per logic assignment in interps, holding every valuation
    of `atoms` atoms under that assignment.  Each block's lanes are byte
    rows, joined across blocks and viewed by numpy; the table rows are
    int16, since 16-bit lanes index the tables faster than 64-bit ones."""
    interps, blocks = tuple(interps), []
    for interp in interps:
        count, rows = _grid([_B_ELEMENTS[interp[w]] for _ in range(atoms) for w in range(n_worlds)])
        blocks.append([bytes([16 * l]) * count for l in interp] + rows)
    lanes = [np.frombuffer(b"".join(col), np.uint8) for col in zip(*blocks)]
    lat = tuple(x.astype(np.int16) for x in lanes[:n_worlds])
    vals = tuple(tuple(lanes[k:k + n_worlds]) for k in range(n_worlds, len(lanes), n_worlds))
    return _Axis(interps, np.cumsum([0] + [len(b[0]) for b in blocks]), lat, vals)


def _world_names(n: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n))


def _relations(n: int):
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for mask in range(1 << len(pairs)):
        rel = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        yield rel


def _names(rel, worlds) -> frozenset:
    return frozenset((worlds[i], worlds[j]) for i, j in rel)


def _rel_props(rel, n: int) -> FrameProperties:
    return _properties(range(n), rel)


def _sweep(prog, n: int, axis: _Axis, relation_pred=None):
    """(relation, the program's rows on it over the axis) for each relation
    on n worlds in `_relations` order whose properties relation_pred
    accepts: the one loop over the 2**(n*n) relations.

    Each row is evaluated once per what it depends on: a node with no box
    or diamond at or below it (depth 0) once, and a node with at most one
    on any path down from it (depth 1) once per world w and successor set
    of w, which alone fix its row at w.  Callers only read the rows: they
    are shared between relations."""
    depth = []
    for kind, *args in prog:
        below = 0 if kind == "atom" else max((depth[c] for c in args), default=0)
        depth.append(below + (kind in ("box", "dia_up", "dia_down")))
    shallow = [i for i, d in enumerate(depth) if d == 1]
    given, memo = [None] * len(prog), {}  # memo: (world, its successors) -> the depth-1 rows there
    for rel in _relations(n):
        if relation_pred is not None and not relation_pred(_rel_props(rel, n)):
            continue
        keys = [(i, tuple(j for j in range(n) if (i, j) in rel)) for i in range(n)]
        known = [memo.get(key) for key in keys]
        for k, i in enumerate(shallow):
            given[i] = None if None in known else [at[k] for at in known]
        edges = [[(j, None, None) for j in succ] for _, succ in keys]
        slots = _eval_slots(prog, edges, axis.lat, axis.vals, given)
        if None in known:  # as on the first relation, after which every depth-0 row is known
            given = [row if d == 0 else None for row, d in zip(slots, depth)]
            for w, key in enumerate(keys):
                memo.setdefault(key, [slots[i][w] for i in shallow])
        yield rel, slots


def _failures(root, lat, bounds, limit: int):
    """(ok, block_ok, first): whether the root row is designated at every
    world, by position and by block bounds[b]:bounds[b + 1], and the first
    failing position of each of the first `limit` failing blocks.  The one
    rule that picks the failing lanes a check reports."""
    ok = DESIG_M.take(lat[0] | root[0])
    for w in range(1, len(lat)):
        ok &= DESIG_M.take(lat[w] | root[w])
    block_ok = np.logical_and.reduceat(ok, bounds[:-1])
    failing = np.flatnonzero(~block_ok)[:limit]
    return ok, block_ok, [int(bounds[b] + np.argmin(ok[bounds[b]:bounds[b + 1]])) for b in failing]


def _witness(j, root, lat, vals, worlds, relation, atom_names, variant) -> Counterexample:
    """The model at axis position j over the named worlds and relation,
    failing at its first world with an undesignated root."""
    n = len(worlds)
    model = Model(
        worlds,
        relation,
        {worlds[w]: LOGIC_IDS[lat[w][j] >> 4] for w in range(n)},
        {worlds[w]: {atom: _VALUE_OF[vals[a][w][j]] for a, atom in enumerate(atom_names)} for w in range(n)},
        variant,
    )
    w = next(w for w in range(n) if not _B_DESIG[lat[w][j] >> 4][root[w][j]])
    return Counterexample(model, worlds[w], _VALUE_OF[root[w][j]])


# Most samples one sampled check draws.  Every draw is held in memory
# until the batch is evaluated (about 0.4 kB a sample of two atoms on
# three worlds, at the peak), so the cap keeps a check under about 40 MB;
# the checklist draws at most 10,000 and the CLI defaults to that.
MAX_SAMPLES = 100_000


def _logic_indices(logic_ids) -> list[int]:
    """Each logic's index into the value tables, refusing an empty logic
    set, an unknown logic or one named twice (which would count its
    frames twice, and draw it twice as often) before anything is built
    or drawn.  An id that is no str, an unhashable one too, is unknown."""
    require_ids(logic_ids, "an iterable of logic ids")
    indices = []
    for lid in logic_ids:
        if not isinstance(lid, str) or lid not in _LOGIC_INDEX:
            raise BudgetError(f"unknown logic {lid!r}; expected one of {', '.join(LOGIC_IDS)}")
        if _LOGIC_INDEX[lid] in indices:
            raise BudgetError(f"logic {lid!r} is named twice")
        indices.append(_LOGIC_INDEX[lid])
    if not indices:
        raise BudgetError("a frame check needs at least one logic")
    return indices


def _require_worlds(n_worlds: int, most: int | None = None) -> None:
    require_int(n_worlds, "a world count")
    if n_worlds < 1:
        raise BudgetError(f"a frame check needs at least one world, got {n_worlds}")
    if most is not None and n_worlds > most:
        raise BudgetError(f"exhaustive sweeps are limited to {most} worlds")


def _require_counterexamples(limit: int) -> None:  # below one a failing schema would pass
    require_int(limit, "a counterexample limit")
    if limit < 1:
        raise BudgetError(f"a frame check reports at least one counterexample, got {limit}")


def _require_samples(samples: int) -> None:
    require_int(samples, "a sample count")
    if samples < 1:
        raise BudgetError(f"sampled checks need at least one sample, got {samples}")
    if samples > MAX_SAMPLES:
        raise BudgetError(f"sampled checks draw at most {MAX_SAMPLES} samples, got {samples}")


def _require_schema(schema) -> tuple[str, ...]:
    """The schema's atoms, once its template is a Formula."""
    require_type(schema, AxiomSchema, "an AxiomSchema")
    require_type(schema.template, Formula, "a Formula")
    return schema.atoms


class SweepOutcome(NamedTuple):
    frames_checked: int
    models_checked: int
    counterexamples: tuple[Counterexample, ...]


def _merge(outcomes) -> SweepOutcome:
    outcomes = tuple(outcomes)
    return SweepOutcome(
        sum(o.frames_checked for o in outcomes),
        sum(o.models_checked for o in outcomes),
        sum((o.counterexamples for o in outcomes), ()),
    )


def sweep_schema(
    schema: AxiomSchema,
    n_worlds: int,
    logic_ids,
    variant: str = "up",
    relation_pred=None,
    max_counterexamples: int = 1,
) -> SweepOutcome:
    """Exhaustively check a schema over every (relation, logic assignment,
    valuation) at a fixed world count; deterministic order, first
    counterexamples are minimal in that order."""
    atoms = _require_schema(schema)
    _require_worlds(n_worlds, most=3)
    _require_counterexamples(max_counterexamples)
    logic_indices = _logic_indices(logic_ids)
    _load()
    axis = _build_axis(n_worlds, product(logic_indices, repeat=n_worlds), len(atoms))
    prog = compile_program(schema.template, variant, atoms)
    worlds = _world_names(n_worlds)
    frames = models = 0
    bad: list[Counterexample] = []
    for rel, slots in _sweep(prog, n_worlds, axis, relation_pred):
        root = slots[-1]
        ok, _, first = _failures(root, axis.lat, axis.bounds, max_counterexamples - len(bad))
        frames += len(axis.interps)
        models += ok.size
        for j in first:
            bad.append(_witness(
                j, root, axis.lat, axis.vals, worlds, _names(rel, worlds), atoms, variant,
            ))
    return SweepOutcome(frames, models, tuple(bad))


def _sample_draws(rng: Random, samples: int, n_worlds: int, logic_indices, n_atoms: int):
    """What `samples` successive samples draw from rng.  Each draws a
    relation bit per world pair, in row-major order, with `random() < 0.5`;
    then for every world a `choice` among the table rows of the logics in
    logic_indices; then for every atom and world a `choice` among the masks
    of the world's logic.  Returns the relation bit patterns, each world's
    table rows over the samples, and each atom's masks at each world, the
    rows and masks as bytes."""
    random, choice = rng.random, rng.choice
    rows = [16 * li for li in logic_indices]
    elements = {16 * li: _B_ELEMENTS[li] for li in logic_indices}
    patterns, picks = [], []
    for _ in range(samples):
        patterns.append(sum(1 << t for t in range(n_worlds * n_worlds) if random() < 0.5))
        row = [choice(rows) for _ in range(n_worlds)]
        picks += row
        for _ in range(n_atoms):
            picks += [choice(elements[r]) for r in row]
    stride = (1 + n_atoms) * n_worlds  # the picks of one sample
    lanes = [bytes(picks[k::stride]) for k in range(stride)]
    return patterns, lanes[:n_worlds], [lanes[k:k + n_worlds] for k in range(n_worlds, stride, n_worlds)]


def sample_schema(
    schema: AxiomSchema,
    n_worlds: int,
    logic_ids,
    variant: str = "up",
    samples: int = 10000,
    seed: int = DEFAULT_SEED,
    relation_transform=None,
    max_counterexamples: int = 1,
) -> SweepOutcome:
    """Randomised schema check: each sample draws a relation (optionally
    closed by relation_transform), a logic per world, and a valuation,
    as `Random(seed)` would.  All samples are evaluated in one batch;
    counterexamples are the first failing samples in draw order."""
    atoms = _require_schema(schema)
    _require_samples(samples)
    require_int(seed, "a seed")
    _require_worlds(n_worlds)
    _require_counterexamples(max_counterexamples)
    logic_indices = _logic_indices(logic_ids)
    _load()
    prog = compile_program(schema.template, variant, atoms)
    patterns, rows, masks = _sample_draws(Random(seed), samples, n_worlds, logic_indices, len(atoms))
    # each distinct drawn relation closed once, in draw order; bit i*n+j of a pattern is i->j
    pairs = [(i, j) for i in range(n_worlds) for j in range(n_worlds)]
    drawn: dict = {}
    which = np.array([drawn.setdefault(pat, len(drawn)) for pat in patterns])
    rels = [frozenset(p for t, p in enumerate(pairs) if pat >> t & 1) for pat in drawn]
    if relation_transform is not None:
        rels = [relation_transform(rel, n_worlds) for rel in rels]
    edges = [[] for _ in range(n_worlds)]
    for i, j in pairs:
        present = np.array([15 * ((i, j) in rel) for rel in rels], dtype=np.uint8)[which]
        if present.all():
            edges[i].append((j, None, None))
        elif present.any():
            edges[i].append((j, present, present ^ 15))
    lat = tuple(np.frombuffer(r, np.uint8).astype(np.int16) for r in rows)
    vals = tuple(tuple(np.frombuffer(m, np.uint8) for m in at) for at in masks)
    root = _eval_slots(prog, edges, lat, vals)[-1]
    worlds = _world_names(n_worlds)
    bad = tuple(
        _witness(j, root, lat, vals, worlds, _names(rels[which[j]], worlds), atoms, variant)
        for j in _failures(root, lat, np.arange(samples + 1), max_counterexamples)[2]  # a block a sample
    )
    return SweepOutcome(samples, samples, bad)


def reflexive_closure(rel, n):
    return frozenset(rel) | frozenset((i, i) for i in range(n))


# ---------------------------------------------------------- byte lanes

# By logic index, 256-byte translate tables: the mask tables of `models`, tiled
_B_DOWN, _B_UP, _B_CIRC, _B_DESIG = ([bytes(t[r:r + 16]) * 16 for r in range(0, len(t), 16)]
                                     for t in (models._DOWN, models._UP, models._CIRC, models._DESIG))
_B_IMP = [b"".join(map(bytes, models._IMP[r:r + 16])) for r in range(0, len(models._IMP), 16)]
_B_ELEMENTS = [bytes(MASK[v] for v in LOGICS[lid].lattice.elements) for lid in LOGIC_IDS]
_UNARY = {"neg": [bytes(models._NEG) * 16] * len(LOGIC_IDS), "circ": _B_CIRC}
_BINARY = {"and": (and_, _B_DOWN), "or": (or_, _B_UP), "imp": (lambda x, y: x << 4 | y, _B_IMP)}  # imp's at x << 4 | y


def _choose(rng: Random, items: bytes, count: int) -> bytes:
    """What `count` successive `rng.choice(items)` calls pick among n <= 255
    items, decoded from the top bytes of rng's 32-bit words: a call reads
    words until one's top byte t has t >> s < n, s = 8 - n.bit_length().  A
    word makes at most one pick, so a round draws as many words as picks
    are missing, and the last ends on the word `choice` itself stops on."""
    s = 8 - len(items).bit_length()
    table = b"".join(bytes([v]) * (1 << s) for v in items).ljust(256, b"\xff")  # 255: rejected
    out = b""
    while len(out) < count:
        need = count - len(out)
        out += rng.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4].translate(table).translate(None, b"\xff")
    return out


def _run_lanes(prog, succs, lat, vals, size: int):
    """The root row of a program on one frame over `size` byte lanes, one
    bytes object a world: lat[w] is world w's logic index, succs[w] its
    successors and vals[a][w] atom a's masks there.  A world's logic is the
    same in every lane, so each lookup is one translate; & and | run on
    the rows read as ints, where masks below 16 carry no bit between bytes."""
    def look(x: int, table: bytes) -> bytes:
        return x.to_bytes(size, "little").translate(table)

    top, slots = _num(b"\x0f" * size), []
    for kind, *args in prog:
        ch = [slots[c] for c in args] if kind != "atom" else None
        if kind == "atom":
            row = vals[args[0]]
        elif kind == "bottom":
            row = [_B_UP[l][:1] * size for l in lat]
        elif kind in _UNARY:
            row = [x.translate(_UNARY[kind][l]) for l, x in zip(lat, ch[0])]
        elif kind in _BINARY:
            op, tables = _BINARY[kind]
            row = [look(op(_num(x), _num(y)), tables[l]) for l, x, y in zip(lat, *ch)]
        elif kind == "box":  # down_w(AND of the successors' masks)
            row = [look(reduce(and_, [_num(ch[0][u]) for u in ss], top), _B_DOWN[l]) for l, ss in zip(lat, succs)]
        else:  # dia_up: up_w(OR of the masks); dia_down: up_w(OR of their down_w)
            row = [look(reduce(or_, [_num(ch[0][u] if kind == "dia_up" else ch[0][u].translate(_B_DOWN[l]))
                                     for u in ss], 0), _B_UP[l]) for l, ss in zip(lat, succs)]
        slots.append(row)
    return slots[-1]


def axiom_valid_on_frame(
    frame: Frame, schema: AxiomSchema, samples: int | None = None, seed: int = DEFAULT_SEED
) -> CheckResult:
    """Check one schema on one concrete frame under the frame's diamond:
    on every valuation of the schema's atoms (at most 3 worlds) when
    samples is None, otherwise on `samples` valuations drawn as
    `Random(seed)` draws them.  Runs on byte lanes, without numpy."""
    require_type(frame, Frame, "a Frame")
    atoms = _require_schema(schema)
    _, succs, tags, _ = _world_axis(frame)  # ModelFormatError if the frame does not validate
    worlds, lat = frame.worlds, [t >> 4 for t in tags]
    prog = compile_program(schema.template, frame.diamond, atoms)
    if samples is None:
        if len(worlds) > 3:
            raise BudgetError("exhaustive mode is limited to 3 worlds")
        size, flat = _grid([_B_ELEMENTS[l] for _ in atoms for l in lat])
        vals = [flat[k:k + len(lat)] for k in range(0, len(flat), len(lat))]
    else:
        _require_samples(samples)
        require_int(seed, "a seed")
        rng, size = Random(seed), samples
        vals = [[_choose(rng, _B_ELEMENTS[l], samples) for l in lat] for _ in atoms]
    root = _run_lanes(prog, succs, lat, vals, size)
    ok = reduce(and_, [_num(x.translate(_B_DESIG[l])) for l, x in zip(lat, root)])
    j = ok.to_bytes(size, "little").find(0)  # the first failing lane
    if j < 0:
        return CheckResult(True, None, 1, size)
    rows = [bytes([t]) * size for t in tags]  # each world's table row, as `_witness` reads it
    ce = _witness(j, root, rows, vals, worlds, frame.relation, atoms, frame.diamond)
    return CheckResult(False, ce, 1, size)


# ------------------------------------------------- characterisation runs

class FiveCReport(NamedTuple):
    logic_ids: tuple[str, ...]
    frames_checked: int
    models_checked: int
    euclidean_failures: tuple[Counterexample, ...]  # euclidean frame, schema fails
    non_euclidean_valid: tuple[str, ...]  # non-euclidean frame, no countermodel
    window_violations: int  # modal ~A stacks that left {T,T0,F0,F}

    @property
    def characterization_holds(self) -> bool:
        return not (self.euclidean_failures or self.non_euclidean_valid)


def five_c_characterization(
    logic_ids, max_worlds: int = 3, max_counterexamples: int = 3
) -> FiveCReport:
    """Both directions of "frame satisfies 5c iff relation is Euclidean",
    exhaustively over every frame with 1 to max_worlds (at most 3) worlds.

    The modal stack values over ~p are also checked against the classical
    window {T, T0, F0, F}; over lattices whose interpretation maps leave
    that window the count comes back nonzero and the characterization is
    expected to fail (see the ledger).
    """
    _require_worlds(max_worlds, most=3)
    _require_counterexamples(max_counterexamples)
    schema = SCHEMAS["5c"]
    atoms = schema.atoms
    require_ids(logic_ids, "an iterable of logic ids")
    logic_ids = tuple(logic_ids)  # read twice: for the sweep and for the report
    logic_indices = _logic_indices(logic_ids)
    _load()
    frames = models = 0
    failures: list[Counterexample] = []
    silently_valid: list[str] = []
    window_violations = 0
    prog = compile_program(schema.template, "up", atoms)
    modal_nodes = [i for i, node in enumerate(prog) if node[0] in ("box", "dia_up")]
    for n in range(1, max_worlds + 1):
        axis = _build_axis(n, product(logic_indices, repeat=n), len(atoms))
        worlds = _world_names(n)
        for rel, slots in _sweep(prog, n, axis):
            root = slots[-1]
            inside = _CLASSICAL_WINDOW.take([slots[i] for i in modal_nodes])  # (node, world, lane)
            window_violations += inside.size - int(np.count_nonzero(inside))
            euclidean = _rel_props(rel, n).euclidean
            limit = max_counterexamples - len(failures) if euclidean else 0
            ok, block_ok, first = _failures(root, axis.lat, axis.bounds, limit)
            frames += len(axis.interps)
            models += ok.size
            if euclidean:
                for j in first:
                    failures.append(_witness(
                        j, root, axis.lat, axis.vals, worlds, _names(rel, worlds), atoms, "up",
                    ))
                continue
            rel_text = ",".join(f"w{i+1}->w{j+1}" for i, j in sorted(rel))
            for interp in compress(axis.interps, block_ok):
                logic_text = ",".join(LOGIC_IDS[i] for i in interp)
                silently_valid.append(f"[{rel_text or 'empty'}] logics {logic_text}")
    return FiveCReport(
        logic_ids,
        frames,
        models,
        tuple(failures),
        tuple(silently_valid),
        window_violations,
    )


class DualityReport(NamedTuple):
    mismatches: tuple[str, ...]
    models_checked: int

    @property
    def holds(self) -> bool:
        return not self.mismatches


DUALITY_CORPUS = (
    "p", "!p", "@p", "~p", "Np", "#",
    "p & !p", "p | ~p", "p -> !p", "!@p", "[]p", "<>p",
)


def duality_check(logic_ids=LOGIC_IDS) -> DualityReport:
    """Value-level identity diamond A == !box!A under the up variant, on
    every two-world model, for every corpus formula; at most five
    mismatches are reported."""
    n_worlds, max_mismatches = 2, 5
    logic_indices = _logic_indices(logic_ids)
    _load()
    axis = _build_axis(n_worlds, product(logic_indices, repeat=n_worlds), 1)
    mismatches: list[str] = []
    models = 0
    for text in DUALITY_CORPUS:
        body = parse(text)  # both sides in one program: the root's children are <>A and !box!A
        prog = compile_program(Imp(Diamond(body), Neg(Box(Neg(body)))), "up", ("p",))
        _, lhs, rhs = prog[-1]
        for rel, slots in _sweep(prog, n_worlds, axis):
            a, c = slots[lhs], slots[rhs]
            models += axis.lat[0].size
            for w in range(n_worlds):
                same = a[w] == c[w]
                if not same.all():
                    if len(mismatches) < max_mismatches:
                        j = int(np.argmin(same))
                        mismatches.append(
                            f"A={text} rel={sorted(rel)} world=w{w + 1} "
                            f"<>A={_VALUE_OF[a[w][j]]} !box!A={_VALUE_OF[c[w][j]]}"
                        )
    return DualityReport(tuple(mismatches), models)


# -------------------------------------------------------------- the suite

class SuiteItem(NamedTuple):
    name: str
    description: str
    frames_checked: int
    models_checked: int
    counterexamples: tuple
    passed: bool
    note: str = ""


class SuiteReport(NamedTuple):
    items: tuple[SuiteItem, ...]
    seed: int

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items)


def describe_counterexample(ce: Counterexample) -> str:
    return f"world={ce.world} value={ce.value} model={json.dumps(model_to_dict(ce.model))}"


class Theorem(NamedTuple):
    """A frame theorem and how it is checked: exhaustively at each world
    count in exhaustive_worlds over the frames frame_pred accepts, then on
    sampled models with sampled_worlds worlds whose drawn relation is
    closed by closure.  A row that is not asserted only reports what it
    observes."""

    schema: AxiomSchema
    description: str
    frame_pred: Callable[[FrameProperties], bool] | None
    closure: Callable | None
    exhaustive_worlds: tuple[int, ...]
    sampled_worlds: int | None
    asserted: bool = True
    note: str = ""


THEOREMS: dict[str, Theorem] = {
    "K": Theorem(SCHEMAS["K"], "valid on every frame", None, None, (1, 2), 3),
    "T": Theorem(
        SCHEMAS["T"], "valid on reflexive frames",
        attrgetter("reflexive"), reflexive_closure, (1, 2), 3,
    ),
    "4": Theorem(
        SCHEMAS["4"], "valid on transitive frames",
        attrgetter("transitive"), transitive_closure, (1, 2), 3,
        note="fails when an intermediate world's lattice forgets a designated value",
    ),
    "B": Theorem(SCHEMAS["B"], "observation only", None, None, (2,), None, asserted=False),
    "D": Theorem(SCHEMAS["D"], "observation only", None, None, (2,), None, asserted=False),
}


def run_theorem(
    theorem: Theorem, logic_ids, samples: int, seed: int = DEFAULT_SEED
) -> tuple[SweepOutcome, SweepOutcome]:
    """The exhaustive and the sampled outcome of one theorem row; the
    sampled outcome is empty when the row samples nothing."""
    require_ids(logic_ids, "an iterable of logic ids")
    logic_ids = tuple(logic_ids)  # each sweep below reads it
    if theorem.sampled_worlds is not None:
        _require_samples(samples)  # before the sweeps, not after them
        require_int(seed, "a seed")
    exhaustive = _merge(
        sweep_schema(theorem.schema, n, logic_ids, relation_pred=theorem.frame_pred)
        for n in theorem.exhaustive_worlds
    )
    if theorem.sampled_worlds is None:
        return exhaustive, SweepOutcome(0, 0, ())
    sampled = sample_schema(
        theorem.schema, theorem.sampled_worlds, logic_ids, samples=samples, seed=seed,
        relation_transform=theorem.closure,
    )
    return exhaustive, sampled


def theorem_suite(
    logic_ids=LOGIC_IDS,
    five_c_logic_ids=FIVE_C_LOGIC_IDS,
    samples: int = 2000,
    seed: int = DEFAULT_SEED,
) -> SuiteReport:
    """The collected frame results: K everywhere, T on reflexive frames,
    4 on transitive frames, the Euclidean characterisation of 5c, duality,
    and observation-only runs for B and D."""
    require_ids(logic_ids, "an iterable of logic ids")
    require_ids(five_c_logic_ids, "an iterable of logic ids")
    logic_ids, five_c_logic_ids = tuple(logic_ids), tuple(five_c_logic_ids)  # each read more than once
    _logic_indices(logic_ids)  # both sets refused before the first sweep
    _logic_indices(five_c_logic_ids)

    def item(sid: str) -> SuiteItem:
        thm = THEOREMS[sid]
        out = _merge(run_theorem(thm, logic_ids, samples, seed))
        ces = out.counterexamples
        note = thm.note if thm.asserted else (
            f"{len(ces)} counterexample(s) observed; no theorem asserted"
        )
        return SuiteItem(
            sid, thm.description, out.frames_checked, out.models_checked, ces,
            not (thm.asserted and ces), note,
        )

    items = [item("K"), item("T"), item("4")]

    fc = five_c_characterization(five_c_logic_ids)
    items.append(
        SuiteItem(
            "5c-euclidean",
            f"5c valid iff frame euclidean over {','.join(five_c_logic_ids)}",
            fc.frames_checked,
            fc.models_checked,
            fc.euclidean_failures + tuple(fc.non_euclidean_valid),
            fc.characterization_holds,
        )
    )

    du = duality_check(logic_ids)
    items.append(
        SuiteItem(
            "duality", "diamond = !box! under the up variant", 0, du.models_checked,
            du.mismatches, du.holds,
        )
    )

    items += [item("B"), item("D")]
    return SuiteReport(tuple(items), seed)
