"""The six semantic values and their snapshot coordinates.

Every value is a triple over {0,1}: (truth, falsity, reliability).  The
triples (0,0,1) and (1,1,1) name no value: an atom cannot be certified
while carrying no, or contradictory, information.
"""

from __future__ import annotations

import enum


class Value(enum.IntEnum):
    """One of the six values, in canonical display order."""

    T = 0
    T0 = 1
    b = 2
    n = 3
    F0 = 4
    F = 5

    @property
    def snapshot(self) -> tuple[int, int, int]:
        return SNAPSHOTS[self]

    def __str__(self) -> str:
        return self.name


SNAPSHOTS: dict[Value, tuple[int, int, int]] = {
    Value.T: (1, 0, 1),
    Value.T0: (1, 0, 0),
    Value.b: (1, 1, 0),
    Value.n: (0, 0, 0),
    Value.F0: (0, 1, 0),
    Value.F: (0, 1, 1),
}

ILLEGAL_SNAPSHOTS = {(0, 0, 1), (1, 1, 1)}

_BY_SNAPSHOT = {snap: val for val, snap in SNAPSHOTS.items()}


class ManylogicError(ValueError):
    """The package's refusal of bad input: every typed error subclasses it.
    A wrong argument type is a TypeError instead (see `require_type`)."""


def require_type(value, kind, noun: str) -> None:
    """Refuse a `value` that is not a `kind`, naming what was expected."""
    if not isinstance(value, kind):
        raise TypeError(f"expected {noun}, got {type(value).__name__}")


def require_int(value, noun: str) -> None:
    """Refuse a `value` that is not an int, naming what was expected.  A
    bool is an int to Python, not here; a None seed would seed `Random`
    from the OS, unrepeatably."""
    if type(value) is bool or not isinstance(value, int):
        raise TypeError(f"expected an int as {noun}, got {type(value).__name__}")


class SnapshotError(ManylogicError):
    """A triple that names no semantic value."""


def from_snapshot(triple: tuple[int, int, int]) -> Value:
    try:
        return _BY_SNAPSHOT[triple]
    except KeyError:
        raise SnapshotError(f"{triple} is not a legal snapshot") from None


_BY_NAME = {val.name: val for val in Value}


def parse_value(token: str) -> Value:
    try:
        return _BY_NAME[token]
    except KeyError:
        raise ManylogicError(f"unknown value token {token!r}") from None
