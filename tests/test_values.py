import re

import pytest

from manylogic.values import (
    ILLEGAL_SNAPSHOTS,
    SNAPSHOTS,
    SnapshotError,
    Value,
    from_snapshot,
    parse_value,
)


def test_snapshot_table_is_exactly_the_expected_one():
    assert SNAPSHOTS == {
        Value.T: (1, 0, 1),
        Value.T0: (1, 0, 0),
        Value.b: (1, 1, 0),
        Value.n: (0, 0, 0),
        Value.F0: (0, 1, 0),
        Value.F: (0, 1, 1),
    }


def test_snapshot_roundtrip():
    for v in Value:
        assert from_snapshot(v.snapshot) is v


@pytest.mark.parametrize("triple", sorted(ILLEGAL_SNAPSHOTS))
def test_illegal_snapshots_rejected(triple):
    with pytest.raises(SnapshotError):
        from_snapshot(triple)


def test_every_other_triple_is_a_value():
    legal = {v.snapshot for v in Value}
    assert len(legal) == 6
    all_triples = {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    assert all_triples - legal == ILLEGAL_SNAPSHOTS


def test_parse_value():
    assert parse_value("T0") is Value.T0
    assert parse_value("b") is Value.b
    with pytest.raises(ValueError):
        parse_value("B")


def test_parse_value_reads_member_names_only():
    for v in Value:
        assert parse_value(v.name) is v
    for token in ("name", "value", "_value_", "snapshot", "t", "", " T", 0, None):
        with pytest.raises(ValueError, match=f"^unknown value token {re.escape(repr(token))}$"):
            parse_value(token)
