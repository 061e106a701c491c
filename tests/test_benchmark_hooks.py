"""The names the benchmark in perfbench/ reaches into: the traced mode
patches module attributes by name, and the reference recorder reads the
code tables and the compiler through `frames`.  A refactor that drops one
of them fails here rather than only under `perfbench/run.py --trace 1`."""

import importlib
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        run = importlib.import_module("run")
        record = importlib.import_module("record")
        tracer = importlib.import_module("tracer")
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    ml = types.SimpleNamespace(**{m: importlib.import_module(f"manylogic.{m}") for m in run.MODULES})
    return types.SimpleNamespace(record=record, tracer=tracer, workloads=workloads, ml=ml)


def _attributes(ml) -> dict:
    """Every module attribute and Lattice method, by identity."""
    out = {(m, name): id(value) for m, mod in vars(ml).items() for name, value in vars(mod).items()}
    out.update((("Lattice", name), id(value)) for name, value in vars(ml.lattices.Lattice).items())
    return out


def test_tracer_installs_and_uninstalls_on_the_package(bench):
    ml = bench.ml
    before = _attributes(ml)
    tracer = bench.tracer.Tracer()
    try:
        tracer.install(ml)
        assert _attributes(ml) != before
        model = ml.models.model_from_dict(bench.workloads.kripke_model(3, 12) | {"diamond": "up"})
        ml.models.eval_formula(model, model.worlds[0], ml.syntax.parse("[]<>p => ~q"))
        ml.logics.matrix_consequence(ml.logics.LOGICS["K3"], [], ml.syntax.parse("p -> p"))
        names = {span[0] for span in tracer.spans}
        assert {"models.eval_formula", "syntax.parse", "logics.matrix_consequence"} <= names
    finally:
        tracer.uninstall()
    assert _attributes(ml) == before


@pytest.mark.parametrize("variant", ("up", "down", "negbox", "cnegbox"))
def test_recorded_compiled_path_matches_eval_formula(bench, variant):
    ml, workloads = bench.ml, bench.workloads
    doc = workloads.kripke_model(7, workloads.KRIPKE_WORLDS) | {"diamond": variant}
    got = bench.record.compiled_values(ml, doc, workloads.KRIPKE_FORMULAS)
    model = ml.models.model_from_dict(doc)
    for f in workloads.KRIPKE_FORMULAS:
        g = ml.syntax.parse(workloads.render(f))
        for w in model.worlds:
            assert got[w, f] == ml.models.eval_formula(model, w, g), (variant, w, workloads.render(f))
