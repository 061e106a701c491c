"""Frame properties, axiom-schema checking by valuation sweep, and the
collected frame-correspondence results.

Schema checks enumerate every valuation of every (relation, logic
assignment) frame at a given world count.  The sweep is vectorised with
numpy over a joint (assignment, valuation) axis so that exhaustive runs
over all three-world frames stay in seconds; counterexamples are handed
back as ordinary models that replay through the normal evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from operator import attrgetter
from random import Random
from typing import Callable

import numpy as np

from . import syntax
from .logics import LOGIC_IDS, LOGICS
from .models import (  # the value tables and the compiler live in models
    _LOGIC_INDEX,
    BOT_T, CIRC_T, DESIG_T, DOWN_T, IMP_T, JOIN_T, MEET_T, NEG_T, TOP_T, UP_T,
    Frame,
    Model,
    compile_program,
)
from .syntax import Box, Diamond, Formula, Neg, parse
from .values import Value

DEFAULT_SEED = 0


class BudgetError(ValueError):
    pass


@dataclass(frozen=True)
class FrameProperties:
    reflexive: bool
    transitive: bool
    euclidean: bool
    symmetric: bool
    serial: bool


def frame_properties(frame: Frame) -> FrameProperties:
    worlds, rel = frame.worlds, frame.relation
    reflexive = all((w, w) in rel for w in worlds)
    transitive = all(
        (a, d) in rel for a, b in rel for c, d in rel if b == c
    )
    euclidean = all(
        (b, d) in rel for a, b in rel for c, d in rel if a == c
    )
    symmetric = all((b, a) in rel for a, b in rel)
    serial = all(any((w, u) in rel for u in worlds) for w in worlds)
    return FrameProperties(reflexive, transitive, euclidean, symmetric, serial)


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
class CheckBudget:
    mode: str = "exhaustive"  # "exhaustive" | "sampled"
    sample_count: int = 10000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise BudgetError(f"unknown check mode {self.mode!r}; expected 'exhaustive' or 'sampled'")


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


# ---------------------------------------------------------------- tables

ELEMENT_CODES = [
    np.array([int(v) for v in LOGICS[lid].lattice.elements], dtype=np.int8)
    for lid in LOGIC_IDS
]


# ------------------------------------------------------------- programs

def _eval_slots(prog, succs, lat, vals):
    """Evaluate a program over value-code arrays: lat[w] and vals[a][w]
    run along one batch axis, succs[w] lists the successors of w for the
    whole batch.  Returns one row per program node, one array per world."""
    n = len(lat)
    slots = []
    for node in prog:
        kind = node[0]
        if kind == "atom":
            row = [vals[node[1]][w] for w in range(n)]
        elif kind == "bottom":
            row = [BOT_T[lat[w]] for w in range(n)]
        elif kind == "neg":
            ch = slots[node[1]]
            row = [NEG_T[ch[w]] for w in range(n)]
        elif kind == "circ":
            ch = slots[node[1]]
            row = [CIRC_T[lat[w], ch[w]] for w in range(n)]
        elif kind in ("and", "or", "imp"):
            tbl = {"and": MEET_T, "or": JOIN_T, "imp": IMP_T}[kind]
            l, r = slots[node[1]], slots[node[2]]
            row = [tbl[lat[w], l[w], r[w]] for w in range(n)]
        elif kind == "box":
            ch = slots[node[1]]
            row = []
            for w in range(n):
                ss = succs[w]
                if not ss:
                    row.append(TOP_T[lat[w]])
                    continue
                acc = DOWN_T[lat[w], ch[ss[0]]]
                for u in ss[1:]:
                    acc = MEET_T[lat[w], acc, DOWN_T[lat[w], ch[u]]]
                row.append(acc)
        else:  # dia_up / dia_down
            interp = UP_T if kind == "dia_up" else DOWN_T
            ch = slots[node[1]]
            row = []
            for w in range(n):
                ss = succs[w]
                if not ss:
                    row.append(BOT_T[lat[w]])
                    continue
                acc = interp[lat[w], ch[ss[0]]]
                for u in ss[1:]:
                    acc = JOIN_T[lat[w], acc, interp[lat[w], ch[u]]]
                row.append(acc)
        slots.append(row)
    return slots


# ----------------------------------------------------------------- axes

@dataclass(frozen=True)
class _Axis:
    interps: tuple  # per block: the logic index of every world
    bounds: np.ndarray  # block b covers positions bounds[b]:bounds[b + 1]
    lat: tuple  # per world: int8 array over the axis
    vals: tuple  # vals[a][w]: int8 array over the axis


def _build_axis(n_worlds: int, interps, atoms: int) -> _Axis:
    """One block per logic assignment in interps, holding every valuation
    of `atoms` atoms under that assignment."""
    interps = tuple(interps)
    lat_parts = [[] for _ in range(n_worlds)]
    val_parts = [[[] for _ in range(n_worlds)] for _ in range(atoms)]
    bounds = [0]
    for interp in interps:
        dims = [ELEMENT_CODES[interp[w]] for _ in range(atoms) for w in range(n_worlds)]
        count = int(np.prod([d.size for d in dims]))
        grids = np.meshgrid(*dims, indexing="ij") if dims else []
        flat = [g.reshape(-1).astype(np.int8) for g in grids]
        k = 0
        for a in range(atoms):
            for w in range(n_worlds):
                val_parts[a][w].append(flat[k])
                k += 1
        for w in range(n_worlds):
            lat_parts[w].append(np.full(count, interp[w], dtype=np.int8))
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


def _succs(rel, n: int):
    return [tuple(j for j in range(n) if (i, j) in rel) for i in range(n)]


def _rel_props(rel, n: int) -> FrameProperties:
    worlds = _world_names(n)
    return frame_properties(
        Frame(worlds, frozenset((worlds[i], worlds[j]) for i, j in rel), {})
    )


def _designated_all_worlds(root, lat):
    ok = DESIG_T[lat[0], root[0]]
    for w in range(1, len(lat)):
        ok = ok & DESIG_T[lat[w], root[w]]
    return ok


def _first_failures(ok, bounds, limit: int) -> list[int]:
    """The first failing position of each block that fails, for the first
    `limit` such blocks in block order."""
    block_ok = np.logical_and.reduceat(ok, bounds[:-1])
    return [
        int(bounds[b] + np.argmin(ok[bounds[b]:bounds[b + 1]]))
        for b in np.flatnonzero(~block_ok)[:limit]
    ]


def _witness(j, root, lat, vals, worlds, rel, atom_names, variant) -> Counterexample:
    """The model at axis position j, over the named worlds and the index
    relation rel, failing at its first world with an undesignated root."""
    n = len(worlds)
    model = Model(
        worlds,
        frozenset((worlds[u], worlds[v]) for u, v in rel),
        {worlds[w]: LOGIC_IDS[lat[w][j]] for w in range(n)},
        {
            worlds[w]: {atom: Value(int(vals[a][w][j])) for a, atom in enumerate(atom_names)}
            for w in range(n)
        },
        variant,
    )
    w = next(w for w in range(n) if not DESIG_T[lat[w][j], root[w][j]])
    return Counterexample(model, worlds[w], Value(int(root[w][j])))


# Most samples one sampled check draws.  Every draw is held in memory
# until the batch is evaluated (about 1 kB a sample on three worlds), so
# the cap keeps a check under about 100 MB; the checklist draws at most
# 10,000 and the CLI defaults to that.
MAX_SAMPLES = 100_000


def _require_samples(samples: int) -> None:
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
    if n_worlds > 3:
        raise BudgetError("exhaustive sweeps are limited to 3 worlds")
    logic_indices = [_LOGIC_INDEX[lid] for lid in logic_ids]
    axis = _build_axis(n_worlds, product(logic_indices, repeat=n_worlds), len(schema.atoms))
    prog = compile_program(schema.template, variant, schema.atoms)
    worlds = _world_names(n_worlds)
    frames = models = 0
    bad: list[Counterexample] = []
    for rel in _relations(n_worlds):
        if relation_pred is not None and not relation_pred(_rel_props(rel, n_worlds)):
            continue
        root = _eval_slots(prog, _succs(rel, n_worlds), axis.lat, axis.vals)[-1]
        ok = _designated_all_worlds(root, axis.lat)
        frames += len(axis.interps)
        models += ok.size
        for j in _first_failures(ok, axis.bounds, max_counterexamples - len(bad)):
            bad.append(
                _witness(j, root, axis.lat, axis.vals, worlds, rel, schema.atoms, variant)
            )
    return SweepOutcome(frames, models, tuple(bad))


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
    closed by relation_transform), a logic per world, and a valuation.
    Samples that share a relation are evaluated together; counterexamples
    are the first failing samples in draw order."""
    _require_samples(samples)
    rng = Random(seed)
    logic_indices = [_LOGIC_INDEX[lid] for lid in logic_ids]
    prog = compile_program(schema.template, variant, schema.atoms)
    n_atoms = len(schema.atoms)
    pairs = [(i, j) for i in range(n_worlds) for j in range(n_worlds)]
    rels, draws = [], []
    for _ in range(samples):
        rel = frozenset(p for p in pairs if rng.random() < 0.5)
        if relation_transform is not None:
            rel = relation_transform(rel, n_worlds)
        rels.append(rel)
        interp = [rng.choice(logic_indices) for _ in range(n_worlds)]
        draws.append(interp + [
            rng.choice(ELEMENT_CODES[interp[w]]) for _ in range(n_atoms) for w in range(n_worlds)
        ])
    table = np.array(draws, dtype=np.int8).T
    lat = table[:n_worlds]
    vals = table[n_worlds:].reshape(n_atoms, n_worlds, samples)
    groups: dict[frozenset, list[int]] = {}
    for s, rel in enumerate(rels):
        groups.setdefault(rel, []).append(s)
    root = np.empty((n_worlds, samples), dtype=np.int8)
    for rel, idx in groups.items():
        root[:, idx] = _eval_slots(prog, _succs(rel, n_worlds), lat[:, idx], vals[:, :, idx])[-1]
    ok = _designated_all_worlds(root, lat)
    worlds = _world_names(n_worlds)
    bad = tuple(  # each sample is a block of its own
        _witness(j, root, lat, vals, worlds, rels[j], schema.atoms, variant)
        for j in _first_failures(ok, np.arange(samples + 1), max_counterexamples)
    )
    return SweepOutcome(samples, samples, bad)


def reflexive_closure(rel, n):
    return frozenset(rel) | frozenset((i, i) for i in range(n))


def transitive_closure(rel, n):
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


def axiom_valid_on_frame(
    frame: Frame, schema: AxiomSchema, variant: str = "up", budget: CheckBudget | None = None
) -> CheckResult:
    """Check one schema on one concrete frame; exhaustive (<= 3 worlds) or
    sampled valuations of the schema's atoms."""
    budget = budget or CheckBudget()
    n = len(frame.worlds)
    windex = {w: i for i, w in enumerate(frame.worlds)}
    rel = frozenset((windex[u], windex[v]) for u, v in frame.relation)
    interp = tuple(_LOGIC_INDEX[frame.logics[w]] for w in frame.worlds)
    prog = compile_program(schema.template, variant, schema.atoms)
    if budget.mode == "exhaustive":
        if n > 3:
            raise BudgetError("exhaustive mode is limited to 3 worlds")
        axis = _build_axis(n, [interp], len(schema.atoms))
        lat, vals = axis.lat, axis.vals
    else:
        _require_samples(budget.sample_count)
        rng = Random(budget.seed)
        k = budget.sample_count
        vals = tuple(
            tuple(
                np.array([rng.choice(ELEMENT_CODES[interp[w]]) for _ in range(k)], dtype=np.int8)
                for w in range(n)
            )
            for _ in range(len(schema.atoms))
        )
        lat = tuple(np.full(k, interp[w], dtype=np.int8) for w in range(n))
    root = _eval_slots(prog, _succs(rel, n), lat, vals)[-1]
    ok = _designated_all_worlds(root, lat)
    bad = [
        _witness(j, root, lat, vals, frame.worlds, rel, schema.atoms, variant)
        for j in _first_failures(ok, np.array([0, ok.size]), 1)
    ]
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


_CLASSICAL_WINDOW = np.zeros(6, dtype=bool)
for _v in (Value.T, Value.T0, Value.F0, Value.F):
    _CLASSICAL_WINDOW[int(_v)] = True


def five_c_characterization(
    logic_ids, max_worlds: int = 3, max_counterexamples: int = 3
) -> FiveCReport:
    """Both directions of "frame satisfies 5c iff relation is Euclidean",
    exhaustively over every frame with up to max_worlds worlds.

    The modal stack values over ~p are also checked against the classical
    window {T, T0, F0, F}; over lattices whose interpretation maps leave
    that window the count comes back nonzero and the characterization is
    expected to fail (see the ledger).
    """
    schema = SCHEMAS["5c"]
    logic_indices = [_LOGIC_INDEX[lid] for lid in logic_ids]
    frames = models = 0
    failures: list[Counterexample] = []
    silently_valid: list[str] = []
    window_violations = 0
    prog = compile_program(schema.template, "up", schema.atoms)
    modal_nodes = [i for i, node in enumerate(prog) if node[0] in ("box", "dia_up")]
    for n in range(1, max_worlds + 1):
        axis = _build_axis(n, product(logic_indices, repeat=n), 1)
        worlds = _world_names(n)
        for rel in _relations(n):
            slots = _eval_slots(prog, _succs(rel, n), axis.lat, axis.vals)
            root = slots[-1]
            for i in modal_nodes:
                for w in range(n):
                    window_violations += int((~_CLASSICAL_WINDOW[slots[i][w]]).sum())
            ok = _designated_all_worlds(root, axis.lat)
            frames += len(axis.interps)
            models += ok.size
            if _rel_props(rel, n).euclidean:
                for j in _first_failures(ok, axis.bounds, max_counterexamples - len(failures)):
                    failures.append(
                        _witness(j, root, axis.lat, axis.vals, worlds, rel, schema.atoms, "up")
                    )
                continue
            rel_text = ",".join(f"w{i+1}->w{j+1}" for i, j in sorted(rel))
            block_ok = np.logical_and.reduceat(ok, axis.bounds[:-1])
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


def duality_check(
    logic_ids=LOGIC_IDS,
    n_worlds: int = 2,
    corpus=DUALITY_CORPUS,
    variant: str = "up",
    max_mismatches: int = 5,
) -> DualityReport:
    """Value-level identity diamond A == !box!A on every model at the given
    world count, for every corpus formula."""
    logic_indices = [_LOGIC_INDEX[lid] for lid in logic_ids]
    axis = _build_axis(n_worlds, product(logic_indices, repeat=n_worlds), 1)
    mismatches: list[str] = []
    models = 0
    for text in corpus:
        body = parse(text)
        lhs = compile_program(Diamond(body), variant, ("p",))
        rhs = compile_program(Neg(Box(Neg(body))), variant, ("p",))
        for rel in _relations(n_worlds):
            succs = _succs(rel, n_worlds)
            a = _eval_slots(lhs, succs, axis.lat, axis.vals)[-1]
            c = _eval_slots(rhs, succs, axis.lat, axis.vals)[-1]
            models += axis.lat[0].size
            for w in range(n_worlds):
                same = a[w] == c[w]
                if not same.all():
                    if len(mismatches) < max_mismatches:
                        j = int(np.argmin(same))
                        mismatches.append(
                            f"A={text} rel={sorted(rel)} world=w{w + 1} "
                            f"<>A={Value(int(a[w][j]))} !box!A={Value(int(c[w][j]))}"
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
    from .models import model_to_dict
    import json

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
