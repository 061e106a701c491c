"""The result records are NamedTuples; they were frozen dataclasses.  The
dataclass definitions are kept here, word for word but for AxiomSchema's,
which follows the record to an id and a template with its atoms read off
the template.  Every record the package builds is checked against its
dataclass twin built from the same field values: fields, order and
defaults, repr text, equality and hash, methods and properties, refusal
of assignment, and a pickle round trip."""

from __future__ import annotations

import pickle
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from manylogic import bivaluations, frames, lattices, logics, models, verify
from manylogic.lattices import Lattice
from manylogic.logics import CONNECTIVES, LOGICS
from manylogic.models import Model
from manylogic.syntax import Formula, atoms, parse, subformula_closure
from manylogic.values import Value

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "manylogic" / "fixtures"

# ------------------------------------------------ the dataclass definitions


@dataclass(frozen=True)
class ClauseReport:
    ok: bool
    violations: tuple[str, ...]


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


@dataclass(frozen=True)
class FrameProperties:
    reflexive: bool
    transitive: bool
    euclidean: bool
    symmetric: bool
    serial: bool


@dataclass(frozen=True)
class AxiomSchema:
    id: str
    template: Formula

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(sorted(atoms(self.template)))


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


@dataclass(frozen=True)
class _Axis:
    interps: tuple  # per block: the logic index of every world
    bounds: np.ndarray  # block b covers positions bounds[b]:bounds[b + 1]
    lat: tuple  # per world: its table rows over the axis
    vals: tuple  # vals[a][w]: masks over the axis


@dataclass(frozen=True)
class SweepOutcome:
    frames_checked: int
    models_checked: int
    counterexamples: tuple[Counterexample, ...]


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


@dataclass(frozen=True)
class DualityReport:
    mismatches: tuple[str, ...]
    models_checked: int

    @property
    def holds(self) -> bool:
        return not self.mismatches


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


@dataclass(frozen=True)
class LawResult:
    law: str
    holds: bool
    witness: str | None = None


@dataclass(frozen=True)
class LawReport:
    lattice_id: str
    results: tuple[LawResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.holds for r in self.results)


@dataclass(frozen=True)
class MatrixLogic:
    id: str
    lattice: Lattice
    designated: frozenset[Value]
    implication_family: str  # "material" | "lukasiewicz-family"
    circ_third_coordinate: int  # 1 | 0

    def is_designated(self, x: Value) -> bool:
        return x in self.designated


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


@dataclass(frozen=True)
class Verdict:
    valid: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class ValidationReport:
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


@dataclass(frozen=True)
class CheckOutcome:
    cid: str
    title: str
    passed: bool
    details: tuple[str, ...] = ()
    findings: tuple[str, ...] = ()


DATACLASSES = {cls.__name__: cls for cls in (
    ClauseReport, CorrespondenceReport, FrameProperties, AxiomSchema, Counterexample, CheckResult,
    _Axis, SweepOutcome, FiveCReport, DualityReport, SuiteItem, SuiteReport, Theorem, LawResult,
    LawReport, MatrixLogic, TruthTable, Verdict, ValidationReport, CheckOutcome,
)}
RECORDS = {name: getattr(module, name) for module in (bivaluations, frames, lattices, logics, models, verify)
           for name in DATACLASSES if name in vars(module)}

# What each record computes, read off a record and its twin alike.
BEHAVIOUR: dict[str, Callable] = {
    "AxiomSchema": lambda r: r.atoms,
    "CorrespondenceReport": lambda r: r.clean,
    "FiveCReport": lambda r: r.characterization_holds,
    "DualityReport": lambda r: r.holds,
    "SuiteReport": lambda r: r.all_pass,
    "LawReport": lambda r: r.all_pass,
    "MatrixLogic": lambda r: [r.is_designated(x) for x in Value],
    "TruthTable": lambda r: r.render(),
    "Verdict": bool,
    "ValidationReport": lambda r: (r.ok, r.refusal("model")),
}


# ---------------------------------------------------- records the package builds


def _samples() -> list:
    """At least one record of every kind, each built by the package."""
    k3, letk = LOGICS["K3"], LOGICS["LETK"]
    closure = subformula_closure([parse("p")])
    euclid3 = models.load_frame(FIXTURES / "euclid3.json")
    invalid = models.Model(("w1",), [("w1", "w2")], {"w1": "K3"}, {"w1": {"p": Value.b}})
    frames._load()  # binds numpy for _build_axis
    suite = frames.theorem_suite(logic_ids=("K3",), five_c_logic_ids=("K3",), samples=50)
    refuted = frames.axiom_valid_on_frame(euclid3._replace(diamond="down"), frames.SCHEMAS["5"])
    return [
        bivaluations.check_clauses(k3, dict.fromkeys(closure, 0)),
        bivaluations.check_clauses(k3, dict.fromkeys(closure, 1)),
        *(bivaluations.correspondence_check(LOGICS["CLW"], r) for r in bivaluations.V14_READINGS),
        frames.frame_properties(euclid3),
        *frames.SCHEMAS.values(),
        frames.axiom_valid_on_frame(euclid3, frames.SCHEMAS["K"]),
        refuted,
        refuted.counterexample,
        frames._build_axis(2, [(0, 3), (3, 0)], 1),
        frames.sweep_schema(frames.SCHEMAS["T"], 2, ("K3", "LP")),
        frames.five_c_characterization(("LETK",), max_worlds=2),
        frames.duality_check(("K3",)),
        suite,
        *suite.items,
        *frames.THEOREMS.values(),
        *lattices.verify_lattice_laws(lattices.LATTICES["L4s"]).results,
        lattices.verify_lattice_laws(lattices.LATTICES["L4s"]),
        lattices.LawResult("idempotence", False, "x"),
        *LOGICS.values(),
        logics.truth_table(k3, "and"),
        logics.truth_table(letk, "neg"),
        logics.matrix_consequence(k3, [], parse("p | !p")),
        logics.matrix_consequence(letk, [parse("p")], parse("p")),
        models.validate(invalid),
        models.validate(models.load_model(FIXTURES / "ex1.json")),
        *verify.run_all({"AC3", "AC4"}),
    ]


@pytest.fixture(scope="module")
def samples():
    return _samples()


def test_every_record_is_a_namedtuple_with_its_dataclass_fields():
    assert RECORDS.keys() == DATACLASSES.keys()
    for name, record in RECORDS.items():
        parent = DATACLASSES[name]
        assert issubclass(record, tuple) and record.__qualname__ == name
        assert record._fields == tuple(f.name for f in fields(parent)), name
        assert record._field_defaults == {f.name: f.default for f in fields(parent) if f.default is not MISSING}
        if not parent.__doc__.startswith(f"{name}("):  # a written docstring, not the generated one
            assert record.__doc__ == parent.__doc__, name


def test_the_samples_cover_every_record(samples):
    assert {type(r).__name__ for r in samples} == DATACLASSES.keys()


def _hash(x):
    try:
        return hash(x)
    except TypeError as exc:  # a dict or an array field: neither kind hashes
        return type(exc)


def test_records_read_as_their_dataclass_twins(samples):
    for record in samples:
        name = type(record).__name__
        twin = DATACLASSES[name](*record)
        assert repr(record) == repr(twin), name
        assert _hash(record) == _hash(twin), name
        assert BEHAVIOUR.get(name, repr)(record) == BEHAVIOUR.get(name, repr)(twin), name


def test_records_compare_and_hash_by_value(samples):
    for record in samples:
        name = type(record).__name__
        again = type(record)(*record)
        assert again is not record and repr(again) == repr(record)
        if name != "_Axis":  # its numpy arrays compare elementwise
            assert again == record and _hash(again) == _hash(record), name
            first = record._fields[0]
            assert record._replace(**{first: object()}) != record, name
            assert DATACLASSES[name](*again) == DATACLASSES[name](*record), name


def test_records_refuse_assignment(samples):
    for record in samples:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_records_survive_a_pickle_round_trip(samples):
    for record in samples:
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        if type(record).__name__ in ("_Axis", "Theorem"):  # arrays compare elementwise, attrgetters by identity
            assert repr(back) == repr(record)
        else:
            assert back == record
