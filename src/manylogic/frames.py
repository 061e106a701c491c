"""Frame properties, axiom-schema checking by valuation sweep, and the
collected frame-correspondence results.

Schema checks enumerate every valuation of every (relation, logic
assignment) frame at a given world count.  The sweep is vectorised with
numpy over a joint (assignment, valuation) axis, on the 4-bit mask
tables of `models`, so that exhaustive runs over all three-world
frames stay well under a second; counterexamples are handed back as
ordinary models that replay through the normal evaluator.  Sampled
checks take a sample count and a seed, and draw what `Random(seed)`
draws, decoded from its words in bulk.  A check of one given frame
(`axiom_valid_on_frame`) reads the diamond off the frame, as an
evaluation reads it off the model.
Every sweep goes through one relation loop (`_sweep`), and every check
picks the lanes it reports by one failing-lane rule (`_failures`).

This module owns the numpy forms of the value tables, which `models`
keeps as lists (`MEET_T`, `MASK_OF`, `DOWN_M`, ...).  Importing it does
not import numpy: the first frame check imports numpy and builds the
arrays (`_load`).  Their names stay readable here as module attributes.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from itertools import compress, product
from math import isqrt
from operator import attrgetter
from random import Random
from typing import Callable

from . import models, syntax
from .lattices import transitive_closure
from .logics import LOGIC_IDS, LOGICS
from .models import (  # the value tables, as lists, and the compiler live in models
    _LOGIC_INDEX,
    Frame,
    Model,
    ModelFormatError,
    _world_axis,
    compile_program,
    model_to_dict,
)
from .syntax import Box, Diamond, Formula, Imp, Neg, parse
from .values import ManylogicError, Value, require_int, require_type

DEFAULT_SEED = 0

# The value tables as numpy arrays, for the batched runner.  ROW_OF maps
# a logic index to its row in the flat tables; 16-bit lanes index the
# tables faster than 64-bit ones, and every index fits.
_NUMPY_NAMES = frozenset(models._CODE_TABLES) | {
    "MASK_OF", "CODE_OF", "DOWN_M", "UP_M", "CIRC_M", "IMP_M", "DESIG_M", "NEG_M",
    "ROW_OF", "ELEMENT_MASKS",
}
_NUMPY_LOCK = threading.Lock()
_CLASSICAL_WINDOW = None  # by mask: which values lie in {T, T0, F0, F}; bound by _load


def _numpy_tables() -> dict:
    """numpy and the numpy tables by name, built from the lists in
    `models`, with `_CLASSICAL_WINDOW` last."""
    import numpy as np

    tables, code = models._CODE_TABLES, models._CODE
    out = {name: np.array(t, dtype=bool if name == "DESIG_T" else np.int8) for name, t in tables.items()}
    mask_of = out["MASK_OF"] = np.array(models._MASK, dtype=np.uint8)
    out["CODE_OF"] = np.array(code, dtype=np.int8)
    for name, flat in (("DOWN_M", models._DOWN), ("UP_M", models._UP),
                       ("CIRC_M", models._CIRC), ("NEG_M", models._NEG)):
        out[name] = np.array(flat, dtype=np.uint8)
    out["IMP_M"] = np.array(models._IMP, dtype=np.uint8).ravel()
    out["DESIG_M"] = np.array([row[c] for row in tables["DESIG_T"] for c in code], dtype=bool)
    out["ROW_OF"] = 16 * np.arange(len(LOGIC_IDS), dtype=np.int16)
    out["ELEMENT_MASKS"] = [mask_of[[int(v) for v in LOGICS[lid].lattice.elements]] for lid in LOGIC_IDS]
    out["np"] = np
    window = np.zeros(16, dtype=bool)
    window[mask_of[[Value.T, Value.T0, Value.F0, Value.F]]] = True
    out["_CLASSICAL_WINDOW"] = window  # bound last: a thread that sees it sees the rest
    return out


def _load() -> None:
    """Bind numpy and the numpy tables here, once; every frame check calls
    this first, and after the first one it returns at once."""
    if _CLASSICAL_WINDOW is None:
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
    counterexample count out of range, or a logic set that is empty,
    names an unknown logic or names a logic twice."""


@dataclass(frozen=True)
class FrameProperties:
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
    others = sorted((e for e in frame.relation if type(e) is not tuple or len(e) != 2), key=repr)
    if others:
        raise ModelFormatError(f"relation entry {others[0]!r} is not a pair of worlds")
    return _properties(frame.worlds, frame.relation)


@dataclass(frozen=True)
class AxiomSchema:
    id: str
    template: Formula
    atoms: tuple[str, ...]


def _schema(sid: str, text: str) -> AxiomSchema:
    f = parse(text)
    return AxiomSchema(sid, f, tuple(sorted(syntax.atoms(f))))


SCHEMAS: dict[str, AxiomSchema] = {
    "K": _schema("K", "[](p -> q) -> ([]p -> []q)"),
    "T": _schema("T", "[]p -> p"),
    "4": _schema("4", "[]p -> [][]p"),
    "5": _schema("5", "<>p -> []<>p"),
    "5c": _schema("5c", "<>~p -> []<>~p"),
    "B": _schema("B", "p -> []<>p"),
    "D": _schema("D", "[]p -> <>p"),
}


@dataclass(frozen=True)
class Counterexample:
    model: Model
    world: str
    value: Value


@dataclass(frozen=True)
class CheckResult:
    valid: bool
    counterexample: Counterexample | None
    frames_checked: int
    models_checked: int


# ---------------------------------------------------------------- draws

class _Words:
    """The 32-bit words `Random(seed)` produces, in order, read in bulk
    through getrandbits, and the draws `Random` makes of them, draw for
    draw.  `choice` among n items reads words until one is below
    n << (32 - k), k = n.bit_length(), and picks that word >> (32 - k);
    `random() < 0.5` reads two words and holds when the first is below
    2**31."""

    def __init__(self, seed: int):
        _load()
        self._rng = Random(seed)
        self._buf = np.empty(0, dtype=np.uint32)
        self._pos = 0

    @staticmethod
    def choice_rule(n: int) -> tuple[int, int]:
        """The words `choice` among n items accepts are those below the
        first number; it picks them shifted right by the second."""
        shift = 32 - n.bit_length()
        return n << shift, shift

    def peek(self, count: int) -> np.ndarray:
        """The next `count` words, drawing only those not yet drawn."""
        short = self._pos + count - self._buf.size
        if short > 0:
            fresh = self._rng.getrandbits(32 * short).to_bytes(4 * short, "little")
            self._buf = np.concatenate([self._buf[self._pos:], np.frombuffer(fresh, "<u4")])
            self._pos = 0
        return self._buf[self._pos:self._pos + count]

    def below(self, n: int, count: int) -> np.ndarray:
        """The indices `count` successive `choice` calls on n items pick."""
        limit, shift = self.choice_rule(n)
        parts = []
        while count:  # enough words for all of them, as a rule
            w = self.peek(count * (1 << n.bit_length()) // n + 4 * isqrt(count) + 8)
            hits = np.flatnonzero(w < limit)[:count]
            parts.append(w[hits] >> shift)
            self._pos += int(hits[-1]) + 1 if hits.size == count else w.size
            count -= hits.size
        return np.concatenate(parts)


# ------------------------------------------------------------- programs

def _eval_slots(prog, edges, lat, vals):
    """Evaluate a program over mask arrays along one batch axis: lat[w]
    holds the table row of world w's logic, vals[a][w] the masks of atom
    a, and edges[w] lists w's successors as (u, present, absent), with
    present and absent None for an edge in every lane and otherwise uint8
    arrays, 15 and 0 where the edge is there and 0 and 15 where not, so
    an absent edge adds the unit of the fold.  Returns one row per program
    node, one array per world."""
    slots = []
    for node in prog:
        kind = node[0]
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
        slots.append(row)
    return slots


# ----------------------------------------------------------------- axes

@dataclass(frozen=True)
class _Axis:
    interps: tuple  # per block: the logic index of every world
    bounds: np.ndarray  # block b covers positions bounds[b]:bounds[b + 1]
    lat: tuple  # per world: its table rows over the axis
    vals: tuple  # vals[a][w]: masks over the axis


def _build_axis(n_worlds: int, interps, atoms: int) -> _Axis:
    """One block per logic assignment in interps, holding every valuation
    of `atoms` atoms under that assignment."""
    interps = tuple(interps)
    lat_parts = [[] for _ in range(n_worlds)]
    val_parts = [[[] for _ in range(n_worlds)] for _ in range(atoms)]
    bounds = [0]
    for interp in interps:
        dims = [ELEMENT_MASKS[interp[w]] for _ in range(atoms) for w in range(n_worlds)]
        count = int(np.prod([d.size for d in dims]))
        grids = np.meshgrid(*dims, indexing="ij") if dims else []
        flat = [g.reshape(-1) for g in grids]
        k = 0
        for a in range(atoms):
            for w in range(n_worlds):
                val_parts[a][w].append(flat[k])
                k += 1
        for w in range(n_worlds):
            lat_parts[w].append(np.full(count, ROW_OF[interp[w]]))
        bounds.append(bounds[-1] + count)
    lat = tuple(np.concatenate(parts) for parts in lat_parts)
    vals = tuple(
        tuple(np.concatenate(val_parts[a][w]) for w in range(n_worlds))
        for a in range(atoms)
    )
    return _Axis(interps, np.array(bounds), lat, vals)


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
    accepts: the one loop over the 2**(n*n) relations."""
    for rel in _relations(n):
        if relation_pred is None or relation_pred(_rel_props(rel, n)):
            edges = [[(j, None, None) for j in range(n) if (i, j) in rel] for i in range(n)]
            yield rel, _eval_slots(prog, edges, axis.lat, axis.vals)


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
        {
            worlds[w]: {atom: Value(int(CODE_OF[vals[a][w][j]])) for a, atom in enumerate(atom_names)}
            for w in range(n)
        },
        variant,
    )
    w = next(w for w in range(n) if not DESIG_M[lat[w][j] | root[w][j]])
    return Counterexample(model, worlds[w], Value(int(CODE_OF[root[w][j]])))


# Most samples one sampled check draws.  Every draw is held in memory
# until the batch is evaluated (about 0.4 kB a sample of two atoms on
# three worlds, at the peak), so the cap keeps a check under about 40 MB;
# the checklist draws at most 10,000 and the CLI defaults to that.
MAX_SAMPLES = 100_000


def _logic_indices(logic_ids) -> list[int]:
    """Each logic's index into the value tables, refusing an empty logic
    set, an unknown logic or one named twice (which would count its
    frames twice, and draw it twice as often) before anything is built
    or drawn."""
    indices = []
    for lid in logic_ids:
        if lid not in _LOGIC_INDEX:
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


@dataclass(frozen=True)
class SweepOutcome:
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
    require_type(schema, AxiomSchema, "an AxiomSchema")
    _require_worlds(n_worlds, most=3)
    _require_counterexamples(max_counterexamples)
    logic_indices = _logic_indices(logic_ids)
    _load()
    axis = _build_axis(n_worlds, product(logic_indices, repeat=n_worlds), len(schema.atoms))
    prog = compile_program(schema.template, variant, schema.atoms)
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
                j, root, axis.lat, axis.vals, worlds, _names(rel, worlds), schema.atoms, variant,
            ))
    return SweepOutcome(frames, models, tuple(bad))


_CHUNK = 1 << 16  # words _sample_draws holds as Python ints at a time


def _sample_draws(words: _Words, samples: int, n_worlds: int, sizes, n_atoms: int):
    """What `samples` successive samples draw.  Each draws n_worlds**2
    relation bits with `random() < 0.5`, one per world pair in row-major
    order; then for every world a `choice` among len(sizes) logics; then
    for every atom and world a `choice` among the sizes[c] elements of
    that world's logic c.  Returns the relation bit patterns, the logic
    choices (sample, world) and the element choices (sample, atom, world)."""
    nn, n_logics = n_worlds * n_worlds, len(sizes)
    logic_limit, logic_shift = _Words.choice_rule(n_logics)
    rules = [_Words.choice_rule(m) for m in sizes]
    # more words than a sample takes on average: a choice takes under two
    per = 2 * (nn + n_worlds * (1 + n_atoms))
    buf = words.peek(samples * per + 64)
    off, seq = 0, buf[:_CHUNK].tolist()  # seq[i] is word off + i, as a Python int
    starts, picks = [], []
    q = 0
    while len(starts) < samples:
        p, q = q, q + 2 * nn
        try:
            row = []
            for _ in range(n_worlds):
                while seq[q] >= logic_limit:
                    q += 1
                row.append(seq[q] >> logic_shift)
                q += 1
            world_rules = [rules[c] for c in row]
            for _ in range(n_atoms):
                for limit, shift in world_rules:
                    while seq[q] >= limit:
                        q += 1
                    row.append(seq[q] >> shift)
                    q += 1
        except IndexError:  # past the words in hand: take the next ones, redo the sample
            end = off + len(seq)
            if end == buf.size:
                buf = words.peek(end + (samples - len(starts)) * per + 64)
            off, seq, q = off + p, seq[p:] + buf[end:end + _CHUNK].tolist(), 0
            continue
        starts.append(off + p)
        picks.extend(row)
    bits = buf[np.array(starts)[:, None] + 2 * np.arange(nn)] < (1 << 31)
    picks = np.array(picks, dtype=np.intp).reshape(samples, 1 + n_atoms, n_worlds)
    return bits @ (1 << np.arange(nn)), picks[:, 0], picks[:, 1:]


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
    require_type(schema, AxiomSchema, "an AxiomSchema")
    _require_samples(samples)
    require_int(seed, "a seed")
    _require_worlds(n_worlds)
    _require_counterexamples(max_counterexamples)
    logic_indices = _logic_indices(logic_ids)
    _load()
    prog = compile_program(schema.template, variant, schema.atoms)
    n_atoms = len(schema.atoms)
    sizes = [ELEMENT_MASKS[li].size for li in logic_indices]
    patterns, choices, picks = _sample_draws(_Words(seed), samples, n_worlds, sizes, n_atoms)
    # each distinct drawn relation closed once; bit i*n+j of a pattern is i->j
    pairs = [(i, j) for i in range(n_worlds) for j in range(n_worlds)]
    drawn, which = np.unique(patterns, return_inverse=True)
    rels = [frozenset(p for t, p in enumerate(pairs) if pat >> t & 1) for pat in drawn.tolist()]
    if relation_transform is not None:
        rels = [relation_transform(rel, n_worlds) for rel in rels]
    closed = np.array([sum(1 << (i * n_worlds + j) for i, j in rel) for rel in rels])[which]
    edges = [[] for _ in range(n_worlds)]
    for t, (i, j) in enumerate(pairs):
        present = (closed >> t & 1).astype(np.uint8) * 15
        if present.all():
            edges[i].append((j, None, None))
        elif present.any():
            edges[i].append((j, present, present ^ 15))
    masks = np.zeros((len(sizes), max(sizes)), dtype=np.uint8)
    for c, li in enumerate(logic_indices):
        masks[c, :sizes[c]] = ELEMENT_MASKS[li]
    lat = tuple(ROW_OF[logic_indices][choices[:, w]] for w in range(n_worlds))
    vals = tuple(
        tuple(masks[choices[:, w], picks[:, a, w]] for w in range(n_worlds))
        for a in range(n_atoms)
    )
    root = _eval_slots(prog, edges, lat, vals)[-1]
    worlds = _world_names(n_worlds)
    bad = tuple(
        _witness(j, root, lat, vals, worlds, _names(rels[which[j]], worlds), schema.atoms, variant)
        for j in _failures(root, lat, np.arange(samples + 1), max_counterexamples)[2]  # a block a sample
    )
    return SweepOutcome(samples, samples, bad)


def reflexive_closure(rel, n):
    return frozenset(rel) | frozenset((i, i) for i in range(n))


def axiom_valid_on_frame(
    frame: Frame, schema: AxiomSchema, samples: int | None = None, seed: int = DEFAULT_SEED
) -> CheckResult:
    """Check one schema on one concrete frame under the frame's diamond:
    on every valuation of the schema's atoms (at most 3 worlds) when
    samples is None, otherwise on `samples` valuations drawn as
    `Random(seed)` draws them."""
    require_type(frame, Frame, "a Frame")
    require_type(schema, AxiomSchema, "an AxiomSchema")
    succs = _world_axis(frame)[1]  # ModelFormatError if the frame does not validate
    _load()
    n = len(frame.worlds)
    edges = [[(u, None, None) for u in succ] for succ in succs]
    interp = [_LOGIC_INDEX[frame.logics[w]] for w in frame.worlds]
    prog = compile_program(schema.template, frame.diamond, schema.atoms)
    if samples is None:
        if n > 3:
            raise BudgetError("exhaustive mode is limited to 3 worlds")
        axis = _build_axis(n, [interp], len(schema.atoms))
        lat, vals = axis.lat, axis.vals
    else:
        _require_samples(samples)
        require_int(seed, "a seed")
        words = _Words(seed)
        vals = tuple(
            tuple(ELEMENT_MASKS[li][words.below(ELEMENT_MASKS[li].size, samples)] for li in interp)
            for _ in schema.atoms
        )
        lat = tuple(np.full(samples, ROW_OF[li]) for li in interp)
    root = _eval_slots(prog, edges, lat, vals)[-1]
    ok, _, first = _failures(root, lat, np.array([0, lat[0].size]), 1)  # one block
    bad = [_witness(j, root, lat, vals, frame.worlds, frame.relation, schema.atoms, frame.diamond) for j in first]
    return CheckResult(not bad, bad[0] if bad else None, 1, ok.size)


# ------------------------------------------------- characterisation runs

@dataclass(frozen=True)
class FiveCReport:
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
    logic_indices = _logic_indices(logic_ids)
    _load()
    frames = models = 0
    failures: list[Counterexample] = []
    silently_valid: list[str] = []
    window_violations = 0
    prog = compile_program(schema.template, "up", schema.atoms)
    modal_nodes = [i for i, node in enumerate(prog) if node[0] in ("box", "dia_up")]
    for n in range(1, max_worlds + 1):
        axis = _build_axis(n, product(logic_indices, repeat=n), 1)
        worlds = _world_names(n)
        for rel, slots in _sweep(prog, n, axis):
            root = slots[-1]
            for i in modal_nodes:
                for w in range(n):
                    window_violations += int((~_CLASSICAL_WINDOW.take(slots[i][w])).sum())
            euclidean = _rel_props(rel, n).euclidean
            limit = max_counterexamples - len(failures) if euclidean else 0
            ok, block_ok, first = _failures(root, axis.lat, axis.bounds, limit)
            frames += len(axis.interps)
            models += ok.size
            if euclidean:
                for j in first:
                    failures.append(_witness(
                        j, root, axis.lat, axis.vals, worlds, _names(rel, worlds), schema.atoms, "up",
                    ))
                continue
            rel_text = ",".join(f"w{i+1}->w{j+1}" for i, j in sorted(rel))
            for interp in compress(axis.interps, block_ok):
                logic_text = ",".join(LOGIC_IDS[i] for i in interp)
                silently_valid.append(f"[{rel_text or 'empty'}] logics {logic_text}")
    return FiveCReport(
        tuple(logic_ids),
        frames,
        models,
        tuple(failures),
        tuple(silently_valid),
        window_violations,
    )


@dataclass(frozen=True)
class DualityReport:
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
                            f"<>A={Value(int(CODE_OF[a[w][j]]))} "
                            f"!box!A={Value(int(CODE_OF[c[w][j]]))}"
                        )
    return DualityReport(tuple(mismatches), models)


# -------------------------------------------------------------- the suite

@dataclass(frozen=True)
class SuiteItem:
    name: str
    description: str
    frames_checked: int
    models_checked: int
    counterexamples: tuple
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class SuiteReport:
    items: tuple[SuiteItem, ...]
    seed: int

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items)


def describe_counterexample(ce: Counterexample) -> str:
    return f"world={ce.world} value={ce.value} model={json.dumps(model_to_dict(ce.model))}"


@dataclass(frozen=True)
class Theorem:
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
    five_c_logic_ids=("FDE", "K3", "LP", "LJ4", "CLW"),
    samples: int = 2000,
    seed: int = DEFAULT_SEED,
) -> SuiteReport:
    """The collected frame results: K everywhere, T on reflexive frames,
    4 on transitive frames, the Euclidean characterisation of 5c, duality,
    and observation-only runs for B and D."""
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
