"""`Lattice`, frames and models are slotted classes on `values.Frozen`;
they were frozen dataclasses.  The dataclass definitions are kept here,
their fields and the methods that set or read them word for word
(docstrings and the unchanged query methods left out), and every class
is checked against its dataclass twin built from the same field values:
constructor, repr text, `__match_args__`, equality, hash, refusal of
assignment and deletion, pickle and copy round trips, `_replace`
against `dataclasses.replace`, and the TypeError texts of bad input."""

from __future__ import annotations

import copy
import inspect
import pickle
from collections.abc import Collection, Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import pytest

from manylogic import lattices, models
from manylogic.logics import LOGICS
from manylogic.models import _read_only
from manylogic.values import Frozen, Value, require_type

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "manylogic" / "fixtures"

# ------------------------------------------------ the dataclass definitions


@dataclass(frozen=True)
class Lattice:
    id: str
    elements: tuple[Value, ...]
    members: frozenset[Value]
    _meet: dict[tuple[Value, Value], Value] = field(repr=False)
    _join: dict[tuple[Value, Value], Value] = field(repr=False)
    top: Value = field()
    bottom: Value = field()
    _down: dict[Value, Value] = field(repr=False)
    _up: dict[Value, Value] = field(repr=False)


@dataclass(frozen=True)
class _Worlds:
    worlds: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    logics: Mapping[str, str]  # world -> logic id, read-only
    _report: ValidationReport | None = field(default=None, init=False, repr=False, compare=False)
    _axis: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for value, noun in ((self.worlds, "worlds"), (self.relation, "pairs as the relation")):
            if not isinstance(value, Collection) or isinstance(value, (str, bytes)):  # not one per char
                raise TypeError(f"expected a collection of {noun}, got {type(value).__name__}")
        try:  # stored as a tuple and a frozenset, so that equal ones hash alike
            worlds, relation = tuple(self.worlds), frozenset(self.relation)
            hash(worlds)
        except TypeError as exc:
            raise TypeError(f"world names and relation entries must be hashable: {exc}") from None
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "logics", _read_only(self.logics, "a mapping as the logics"))

    def __hash__(self):  # equal frames and models share worlds and relation
        return hash((self.worlds, self.relation))


@dataclass(frozen=True)
class Frame(_Worlds):
    diamond: str = "up"  # the variant every check on the frame uses
    __hash__ = _Worlds.__hash__

    def __reduce__(self):  # read-only mappings do not pickle; their contents do
        return Frame, (self.worlds, self.relation, dict(self.logics), self.diamond)


@dataclass(frozen=True)
class Model(_Worlds):
    valuation: Mapping[str, Mapping[str, Value]]
    diamond: str = "up"
    _answers: dict | None = field(default=None, init=False, repr=False, compare=False)
    _fanout: tuple | None = field(default=None, init=False, repr=False, compare=False)
    __hash__ = _Worlds.__hash__

    def __post_init__(self):
        super().__post_init__()
        require_type(self.valuation, Mapping, "a mapping as the valuation")
        object.__setattr__(self, "valuation", MappingProxyType(
            {w: _read_only(row, "a mapping as a world's valuation") for w, row in self.valuation.items()}
        ))

    def __reduce__(self):  # read-only mappings do not pickle; their contents do
        valuation = {w: dict(row) for w, row in self.valuation.items()}
        return Model, (self.worlds, self.relation, dict(self.logics), valuation, self.diamond)


NEW = {"Lattice": lattices.Lattice, "_Worlds": models._Worlds, "Frame": models.Frame, "Model": models.Model}
OLD = {"Lattice": Lattice, "_Worlds": _Worlds, "Frame": Frame, "Model": Model}


def _samples() -> list:
    """Instances of each class the package builds, some validated and
    evaluated, so that their caches are set."""
    euclid3 = models.load_frame(FIXTURES / "euclid3.json")
    ex1, compare = (models.load_model(FIXTURES / name) for name in ("ex1.json", "diamond-compare.json"))
    models.validate_frame(euclid3)
    models.eval_formula(ex1, "w1", models.syntax.parse("[]p"))
    w1 = models.Model(("w1",), frozenset({("w1", "w1")}), {"w1": "K3"}, {"w1": {"p": Value.n}}, "down")
    return [
        *lattices.LATTICES.values(),
        models._Worlds(euclid3.worlds, euclid3.relation, euclid3.logics),
        euclid3,
        euclid3._replace(diamond="cnegbox"),
        ex1.frame,  # ex1's worlds and relation: it and ex1 hash alike, and compare unequal
        models.Frame(["w1"], [("w1", "w1")], {"w1": "K3"}),
        ex1,
        compare,
        w1,
        models.Model(("w1",), frozenset(), {}, {}),
    ]


def _twin(x):
    return OLD[type(x).__name__](*x._values())


@pytest.fixture(scope="module")
def samples():
    return _samples()


def _hash(x):
    try:
        return hash(x)
    except TypeError as exc:  # a dataclass lattice hashes its dict tables
        return type(exc)


def test_constructors_take_the_dataclass_parameters():
    for name, cls in NEW.items():
        got, want = (
            [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()] for c in (cls, OLD[name])
        )
        assert got == want, name
        assert issubclass(cls, Frozen) and cls.__qualname__ == name
        assert cls.__match_args__ == OLD[name].__match_args__, name
        assert not hasattr(cls, "__dataclass_fields__") and not hasattr(cls(*_field_values(name)), "__dict__"), name


def _field_values(name):
    """Field values of one instance of the class `name`."""
    return {
        "Lattice": tuple(lattices.L6._values()),
        "_Worlds": (("w1",), (), {"w1": "K3"}),
        "Frame": (("w1",), (), {"w1": "K3"}, "down"),
        "Model": (("w1",), (), {"w1": "K3"}, {"w1": {"p": Value.n}}),
    }[name]


def test_keyword_construction_and_defaults_agree(samples):
    for x in samples:
        name = type(x).__name__
        kwargs = dict(zip(x._fields, x._values()))
        assert repr(type(x)(**kwargs)) == repr(OLD[name](**kwargs)) == repr(x), name
    assert models.Frame(("w1",), (), {}).diamond == Frame(("w1",), (), {}).diamond == "up"
    assert models.Model(("w1",), (), {}, {}).diamond == Model(("w1",), (), {}, {}).diamond == "up"


def test_repr_and_match_args_are_the_dataclass_ones(samples):
    for x in samples:
        twin = _twin(x)
        assert repr(x) == repr(twin)
        assert [getattr(x, n) for n in type(x).__match_args__] == [getattr(twin, n) for n in type(twin).__match_args__]
    match samples[-2]:
        case models.Model(worlds, relation, logics, valuation, diamond):
            assert (worlds, diamond, dict(valuation["w1"])) == (("w1",), "down", {"p": Value.n})
        case _:
            pytest.fail("a Model matches by position")


def test_equality_is_the_dataclass_equality(samples):
    twins = [_twin(x) for x in samples]
    others = [(), tuple(samples[0]._values()), None, "L6"]
    got = [[a == b for b in samples + others] for a in samples]
    want = [[a == b for b in twins + others] for a in twins]
    assert got == want
    for x, twin in zip(samples, twins):
        assert x == type(x)(*x._values()) and not x != type(x)(*x._values())
        assert (x == twin) is False  # a dataclass twin is of another class
        sub, twin_sub = (type("Sub", (type(y),), {"__slots__": ()})(*x._values()) for y in (x, twin))
        assert (sub == x) is (twin_sub == twin) is (x == sub) is False  # and so is a subclass
    ex1 = next(x for x in samples if getattr(x, "_answers", None) is not None)
    assert ex1.frame != ex1 and ex1 != ex1.frame  # Frame against Model
    assert ex1._answers is not None and ex1._fanout is not None  # caches are not compared
    assert ex1 == models.load_model(FIXTURES / "ex1.json") == models.Model(*ex1._values())


def test_frames_and_models_hash_as_before_and_lattices_by_id_and_elements(samples):
    for x in samples:
        if isinstance(x, lattices.Lattice):
            assert _hash(_twin(x)) is TypeError  # the one intended difference
            assert hash(x) == hash((x.id, x.elements))
        else:
            assert hash(x) == hash(_twin(x)) == hash((x.worlds, x.relation))
    assert len(set(lattices.LATTICES.values())) == len({*LOGICS.values()}) == 9
    assert len({LOGICS["K3"], LOGICS["K3"]._replace()}) == 1


def test_assignment_and_deletion_raise_attribute_error(samples):
    for x in samples:
        for obj in (x, _twin(x)):
            for name in (*type(x).__match_args__, "_report", "extra"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
    assert repr(samples) == repr(_samples())  # nothing changed


@pytest.mark.parametrize("how", ("pickle", "copy", "deepcopy"))
def test_pickle_and_copies_round_trip(samples, how):
    trip = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "copy": copy.copy, "deepcopy": copy.deepcopy}[how]
    def outcome(x):  # by field values: a frozenset built anew may print in another order
        try:
            back = trip(x)
        except TypeError as exc:
            return str(exc)
        return type(back).__name__, [getattr(back, n) for n in type(back).__match_args__]

    for x in samples:
        assert outcome(x) == outcome(_twin(x))
        if type(x) is models._Worlds:  # never built by the package: its read-only logics do not pickle
            assert how == "copy" or outcome(x) == "cannot pickle 'mappingproxy' object"
            continue
        back = trip(x)
        assert type(back) is type(x) and back == x and hash(back) == hash(x)
        if isinstance(x, models.Model) and models.validate(x).ok:  # it lays out its own caches
            assert back._fanout is back._answers is None and models.validate(back).ok
            for f in map(models.syntax.parse, ("[]p", "<>p", "[]<>p -> <>[]p", "<>(p & ~[]p)")):
                assert models._run(back, f) == models._run(x, f)  # every world's tag and mask
            assert back._fanout is not None


def test_replace_is_dataclasses_replace(samples):
    for x in samples:
        twin = _twin(x)
        changes = [{}]
        if isinstance(x, lattices.Lattice):
            changes += [{"id": "X"}, {"top": x.bottom, "bottom": x.top}]
        else:
            changes += [{"worlds": ("w9",)}, {"relation": [("w1", "w1")]}, {"logics": {"w1": "LP"}}]
        if isinstance(x, (models.Frame, models.Model)):
            changes += [{"diamond": "negbox"}]
        if isinstance(x, models.Model):
            changes += [{"valuation": {"w1": {"p": Value.b}}}, {"valuation": {}, "diamond": "down"}]
        for change in changes:
            got, want = x._replace(**change), replace(twin, **change)
            assert type(got) is type(x) and repr(got) == repr(want), change
            assert got is not x and (got == x) == (want == twin), change
            for cache in ("_report", "_axis", "_answers", "_fanout"):
                assert getattr(got, cache, None) is None
        with pytest.raises(TypeError):
            x._replace(nonesuch=1)


@pytest.mark.parametrize("args", [
    ("w1", (), {}),
    (b"w1", (), {}),
    (None, (), {}),
    (("w1",), "w1", {}),
    (("w1",), None, {}),
    (("w1",), (), None),
    (([],), (), {}),
    (("w1",), [("w1", ["w1"])], {}),
    (("w1",), [["w1", "w1"]], {}),
], ids=repr)
def test_bad_worlds_relation_or_logics_raise_the_same_type_errors(args):
    for name in ("_Worlds", "Frame", "Model"):
        extra = ({"w1": {}},) if name == "Model" else ()
        with pytest.raises(TypeError) as got:
            NEW[name](*args, *extra)
        with pytest.raises(TypeError) as want:
            OLD[name](*args, *extra)
        assert str(got.value) == str(want.value), name
    for valuation in (None, {"w1": "p"}, {"w1": None}):
        with pytest.raises(TypeError) as got:
            models.Model(("w1",), (), {}, valuation)
        with pytest.raises(TypeError) as want:
            Model(("w1",), (), {}, valuation)
        assert str(got.value) == str(want.value)
