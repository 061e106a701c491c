"""Formula syntax: AST, an ASCII grammar with parser and printer, and
desugaring of the derived connectives.

Concrete syntax (one token per operator, no unicode):

    !  negation        @  reliability mark      ~  classical negation
    N  "definitely"    #  bottom constant       &  and   |  or
    -> implication     => chain implication     [] box   <> diamond

Precedence: unary > & > | > ->/=> (implications associate right).
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class ParseError(ValueError):
    """Bad token or structure; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ModalFormulaError(ValueError):
    """A box or diamond where only propositional formulas are allowed."""


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Neg(Formula):
    child: Formula


@dataclass(frozen=True)
class Circ(Formula):
    child: Formula


@dataclass(frozen=True)
class CNeg(Formula):
    child: Formula


@dataclass(frozen=True)
class Nabla(Formula):
    child: Formula


@dataclass(frozen=True)
class Box(Formula):
    child: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ImpL(Formula):
    left: Formula
    right: Formula


_UNARY = {"!": Neg, "@": Circ, "~": CNeg, "N": Nabla, "[]": Box, "<>": Diamond}
_UNARY_SYMBOL = {cls: sym for sym, cls in _UNARY.items()}
_BINARY_SYMBOL = {And: "&", Or: "|", Imp: "->", ImpL: "=>"}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op>\[\]|<>|->|=>|[!@~N#&|()])|(?P<ident>[a-z][a-zA-Z0-9_]*))"
)


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unknown token {stripped[0]!r}", len(text) - len(stripped))
        tokens.append((m.group("op") or m.group("ident"), m.start()))
        pos = m.end()
    return tokens


# Deepest formula `parse` accepts, counted in nested operators and
# parentheses.  The recursive walkers (parse itself, desugar, to_text, the
# model and frame evaluators, and dataclass hashing) then stay well inside
# Python's default recursion limit; parse's parenthesis rule is the
# costliest, at five frames a level.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; every rule returns a node with its height, and a
    formula deeper than MAX_DEPTH is refused before it is built."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text) + [(None, len(text))]  # end sentinel
        self.i = 0
        self.level = 0  # rules entered through a unary, '(' or right-hand implication

    def peek(self) -> str | None:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        self.i += 1
        return tok

    def too_deep(self) -> ParseError:
        return ParseError(f"formula nested deeper than {MAX_DEPTH} levels", self.pos())

    def enter(self) -> None:
        self.level += 1
        if self.level > MAX_DEPTH:
            raise self.too_deep()

    def build(self, cls, kids: tuple, height: int) -> tuple[Formula, int]:
        if height >= MAX_DEPTH:
            raise self.too_deep()
        return cls(*kids), height + 1

    def formula(self) -> tuple[Formula, int]:
        left, lh = self.disj()
        if self.peek() in ("->", "=>"):
            op = self.take()
            self.enter()
            right, rh = self.formula()
            self.level -= 1
            return self.build(Imp if op == "->" else ImpL, (left, right), max(lh, rh))
        return left, lh

    def disj(self) -> tuple[Formula, int]:
        node, h = self.conj()
        while self.peek() == "|":
            self.take()
            right, rh = self.conj()
            node, h = self.build(Or, (node, right), max(h, rh))
        return node, h

    def conj(self) -> tuple[Formula, int]:
        node, h = self.unary()
        while self.peek() == "&":
            self.take()
            right, rh = self.unary()
            node, h = self.build(And, (node, right), max(h, rh))
        return node, h

    def unary(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok in _UNARY:
            self.take()
            self.enter()
            child, h = self.unary()
            self.level -= 1
            return self.build(_UNARY[tok], (child,), h)
        return self.atom()

    def atom(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        if tok == "#":
            self.take()
            return Bottom(), 1
        if tok == "(":
            self.take()
            self.enter()
            inner = self.formula()
            self.level -= 1
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos())
            self.take()
            return inner
        if re.fullmatch(r"[a-z][a-zA-Z0-9_]*", tok):
            self.take()
            return Atom(tok), 1
        raise ParseError(f"unexpected token {tok!r}", self.pos())


def parse(text: str) -> Formula:
    """Parse one formula; ParseError on bad input, including a formula
    nested deeper than MAX_DEPTH."""
    p = _Parser(text)
    node, _ = p.formula()
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r}", p.pos())
    return node


def _prec(f: Formula) -> int:
    if isinstance(f, (Imp, ImpL)):
        return 1
    if isinstance(f, Or):
        return 2
    if isinstance(f, And):
        return 3
    return 4


def to_text(f: Formula) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bottom):
        return "#"
    if isinstance(f, (Neg, Circ, CNeg, Nabla, Box, Diamond)):
        inner = to_text(f.child)
        if _prec(f.child) < 4:
            inner = f"({inner})"
        return _UNARY_SYMBOL[type(f)] + inner
    sym = _BINARY_SYMBOL[type(f)]
    lprec, rprec = _prec(f.left), _prec(f.right)
    here = _prec(f)
    left = to_text(f.left)
    right = to_text(f.right)
    # implications associate right, & and | left
    if lprec < here or (lprec == here and here == 1):
        left = f"({left})"
    if rprec < here or (rprec == here and here > 1):
        right = f"({right})"
    return f"{left} {sym} {right}"


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Atom, Bottom)):
        return ()
    if isinstance(f, (Neg, Circ, CNeg, Nabla, Box, Diamond)):
        return (f.child,)
    return (f.left, f.right)


def subformulas(f: Formula) -> frozenset[Formula]:
    out = {f}
    for c in children(f):
        out |= subformulas(c)
    return frozenset(out)


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def modal_depth(f: Formula) -> int:
    if isinstance(f, (Atom, Bottom)):
        return 0
    inner = max(modal_depth(c) for c in children(f))
    return inner + 1 if isinstance(f, (Box, Diamond)) else inner


def size(f: Formula) -> int:
    return 1 + sum(size(c) for c in children(f))


def is_modal_free(f: Formula) -> bool:
    return not any(isinstance(g, (Box, Diamond)) for g in subformulas(f))


def _require_modal_free(fs) -> None:
    for f in fs:
        if not is_modal_free(f):
            raise ModalFormulaError(f"modal operator in {to_text(f)}")


def _nabla(x: Formula) -> Formula:
    return Or(x, Neg(Circ(x)))


def desugar(f: Formula) -> Formula:
    """Rewrite ~, N and => into the core signature; # stays a constant.

    The expansions are the same in every logic: the reliability mark
    inside them is interpreted per logic at evaluation time.
    """
    if isinstance(f, (Atom, Bottom)):
        return f
    if isinstance(f, CNeg):
        return Imp(desugar(f.child), Bottom())
    if isinstance(f, Nabla):
        return _nabla(desugar(f.child))
    if isinstance(f, ImpL):
        a, c = desugar(f.left), desugar(f.right)
        return And(Or(_nabla(Neg(a)), c), Or(_nabla(c), Neg(a)))
    kids = tuple(desugar(c) for c in children(f))
    return type(f)(*kids)


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    if isinstance(f, Atom):
        return mapping.get(f.name, f)
    kids = tuple(substitute(c, mapping) for c in children(f))
    return type(f)(*kids) if kids else f


def subformula_closure(fs) -> frozenset[Formula]:
    """Subformula set of `fs` plus one layer of the shapes the two-valued
    clauses mention: !B, @B, !@B, !!B for every subformula B."""
    fs = list(fs)
    _require_modal_free(fs)
    base: set[Formula] = set()
    for f in fs:
        base |= subformulas(f)
    extra: set[Formula] = set()
    for g in base:
        extra |= {Neg(g), Circ(g), Neg(Circ(g)), Neg(Neg(g))}
    return frozenset(base | extra)
