"""The mutation catalogue in tests/mutants.py stays plantable: each
entry's old text occurs exactly once in its file, so an entry fails here
when the code moves under it, not silently in a later catalogue run."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("mutants", Path(__file__).resolve().parent / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.id)
def test_each_mutant_old_text_occurs_once_in_its_file(mutant):
    text = (mutants.ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.breaks


def test_mutant_ids_are_distinct():
    ids = [m.id for m in mutants.MUTANTS]
    assert len(set(ids)) == len(ids)
