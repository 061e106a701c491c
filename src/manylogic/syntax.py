"""Formula syntax: AST, an ASCII grammar with parser and printer, and
desugaring of the derived connectives.

Concrete syntax (one token per operator, no unicode):

    !  negation        @  reliability mark      ~  classical negation
    N  "definitely"    #  bottom constant       &  and   |  or
    -> implication     => chain implication     [] box   <> diamond

Precedence: unary > & > | > ->/=> (implications associate right).

Formulas are hash-consed: constructing one returns the existing node with
the same class and fields, if there is one.  Structurally equal formulas
are therefore one object, `==` and `hash` are identity, and each node
caches its size, whether it holds a box or diamond, its text, its
desugared form and the clause layer built on it (see `layer`).  All but
the text and layer are set from the children's when a node is built, so
only `to_text`, `repr` and `pickle` recurse.  Every full walk is `postorder`.
"""

from __future__ import annotations

import re
from itertools import islice

from .values import ManylogicError, require_type


class ParseError(ManylogicError):
    """Bad token or structure; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ModalFormulaError(ManylogicError):
    """A box or diamond where only propositional formulas are allowed."""


# Every formula ever built, keyed by (class, *fields).  The children in a
# key are interned already, so the key hashes in constant time.  A plain
# dict keeps parsed formulas, and their cached text, alive between calls
# that parse the same text again.
_TABLE: dict[tuple, Formula] = {}

_set = object.__setattr__


class Formula:
    """An immutable, interned formula node.  Subclasses name their fields
    in `_fields`, in constructor order."""

    __slots__ = ("_kids", "_size", "_modal", "_text", "_core", "_layer")
    _fields: tuple[str, ...] = ()

    def __new__(cls, *args):
        key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            if len(args) != len(cls._fields):
                raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}, got {len(args)} values")
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                _set(node, name, value)
            kids = () if cls is Atom else args
            for k in kids:
                require_type(k, Formula, "a Formula")
            _set(node, "_kids", kids)
            _set(node, "_size", 1 + sum(k._size for k in kids))
            _set(node, "_modal", cls is Box or cls is Diamond or any(k._modal for k in kids))
            _set(node, "_text", None)
            _set(node, "_layer", None)
            # The desugared form, from the children's, which are set already:
            # a node is its own unless it or a node below it is ~, N or =>.
            core = None if cls in _EXPAND else node
            for k in kids:
                if k._core is not k:
                    core = None
            if core is None:
                core = _EXPAND.get(cls, cls)(*[k._core for k in kids])
            _set(node, "_core", core)
            # setdefault is one step under the GIL: threads that build the
            # same formula at once all get the node stored first.
            node = _TABLE.setdefault(key, node)
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an interned formula")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an interned formula")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __deepcopy__(self, memo=None):  # interned and immutable: a copy is the node itself
        return self

    __copy__ = __deepcopy__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Atom(Formula):
    __slots__ = ("name",)
    _fields = __match_args__ = ("name",)


class Bottom(Formula):
    __slots__ = ()


class _Unary(Formula):
    __slots__ = ("child",)
    _fields = __match_args__ = ("child",)


class _Binary(Formula):
    __slots__ = ("left", "right")
    _fields = __match_args__ = ("left", "right")


class Neg(_Unary):
    __slots__ = ()


class Circ(_Unary):
    __slots__ = ()


class CNeg(_Unary):
    __slots__ = ()


class Nabla(_Unary):
    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


class Diamond(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class ImpL(_Binary):
    __slots__ = ()


_UNARY = {"!": Neg, "@": Circ, "~": CNeg, "N": Nabla, "[]": Box, "<>": Diamond}
_UNARY_SYMBOL = {cls: sym for sym, cls in _UNARY.items()}
_BINARY_SYMBOL = {And: "&", Or: "|", Imp: "->", ImpL: "=>"}

# An atom name; model files are held to the same pattern.
ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")

# One token per match: an operator, an atom name, or any other visible
# character, which is an unknown token.  Whitespace between tokens matches
# nothing and is skipped.
_TOKEN_RE = re.compile(rf"\[\]|<>|->|=>|{ATOM_RE.pattern}|\S")

# Deepest formula `parse` accepts, counted in nested operators and
# parentheses.  The one walker that still recurses, to_text, then stays
# well inside Python's default recursion limit.
MAX_DEPTH = 100

# What a token does where an operand is expected: a prefix operator or an
# open parenthesis, as its entry on the operator stack (binding strength,
# class).  Strength 4 is a unary operator, 0 a parenthesis.
_PREFIX = {**{tok: (4, cls) for tok, cls in _UNARY.items()}, "(": (0, None)}
# What a token does where an operator is expected: the strength it pushes,
# its class, and the least strength it reduces first.  & and | associate
# left and reduce their own kind; implications associate right.  Any
# other token ends the operand list, reducing everything down to the
# innermost open parenthesis.
_INFIX = {"&": (3, And, 3), "|": (2, Or, 2), "->": (1, Imp, 2), "=>": (1, ImpL, 2)}
_END = (0, None, 1)
_KNOWN = {*_PREFIX, *_INFIX, ")", "#"}
_TOO_DEEP = f"formula nested deeper than {MAX_DEPTH} levels"


def _error(text: str, tokens: list, i: int, message: str) -> ParseError:
    """The ParseError for `message` at token i (None: the end of input),
    unless text holds an unknown character anywhere: the first one is the
    error then.  Token positions are found here, on failure only."""
    for j, tok in enumerate(tokens):
        if tok is not None and tok not in _KNOWN and not "a" <= tok[0] <= "z":
            i, message = j, f"unknown token {tok!r}"
            break
    if tokens[i] is None:
        return ParseError(message, len(text))
    return ParseError(message, next(islice(_TOKEN_RE.finditer(text), i, None)).start())


# Every text `parse` has accepted, mapped to its formula: a text parsed
# again is one lookup.  Kept as long as the formulas (`_TABLE`); a text
# that fails to parse is not kept, so it fails again the same way.
_PARSED: dict[str, Formula] = {}


def parse(text: str) -> Formula:
    """Parse one formula; ParseError on bad input, including a formula
    nested deeper than MAX_DEPTH.  Each text is parsed once per process
    (`_PARSED`)."""
    require_type(text, str, "a str")
    node = _PARSED.get(text)
    if node is None:  # setdefault: threads that parse one text at once share one entry
        node = _PARSED.setdefault(text, _parse(text))
    return node


def _parse(text: str) -> Formula:
    """`parse` without the table.

    One scan splits the text into tokens; one operator-precedence loop
    builds the formula bottom-up.  A formula is too deep when it enters
    more than MAX_DEPTH unary operators, parentheses and right-hand sides
    of implications at once, or when a node would stand more than
    MAX_DEPTH levels tall; each check fails at the token where nesting
    into the rest of the formula would have failed.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append(None)  # end of input
    ops: list = []  # pending (strength, class); (0, None) is an open '('
    operands: list = []  # left operands of pending binary operators, with heights
    level = 0  # pending unary operators, open parentheses and implications
    i = 0
    while True:
        tok = tokens[i]
        entry = _PREFIX.get(tok)
        while entry is not None:
            ops.append(entry)
            level += 1
            i += 1
            if level > MAX_DEPTH:
                raise _error(text, tokens, i, _TOO_DEEP)
            tok = tokens[i]
            entry = _PREFIX.get(tok)
        if tok is None:
            raise _error(text, tokens, i, "unexpected end of input")
        if tok == "#":
            node = Bottom()
        elif "a" <= tok[0] <= "z":
            node = Atom(tok)
        else:
            raise _error(text, tokens, i, f"unexpected token {tok!r}")
        height = 1
        i += 1
        while True:
            tok = tokens[i]
            strength, cls, least = _INFIX.get(tok, _END)
            while ops and ops[-1][0] >= least:
                top, kind = ops.pop()
                if top == 4:
                    level -= 1
                    if height >= MAX_DEPTH:
                        raise _error(text, tokens, i, _TOO_DEEP)
                    node = kind(node)
                else:
                    left, lh = operands.pop()
                    if top == 1:
                        level -= 1
                    if lh > height:
                        height = lh
                    if height >= MAX_DEPTH:
                        raise _error(text, tokens, i, _TOO_DEEP)
                    node = kind(left, node)
                height += 1
            if cls is not None:
                operands.append((node, height))
                ops.append((strength, cls))
                i += 1
                if strength == 1:
                    level += 1
                    if level > MAX_DEPTH:
                        raise _error(text, tokens, i, _TOO_DEEP)
                break
            if ops:  # the innermost open '(' is on top
                if tok != ")":
                    raise _error(text, tokens, i, "expected ')'")
                ops.pop()
                level -= 1
                i += 1
            elif tok is None:
                return node
            else:
                raise _error(text, tokens, i, f"trailing input {tok!r}")


_PREC = {Imp: 1, ImpL: 1, Or: 2, And: 3}  # every other node binds tightest, at 4


def to_text(f: Formula) -> str:
    """The formula in concrete syntax, with the fewest parentheses that
    parse back to it; cached on the node."""
    text = f._text
    if text is None:
        text = _render(f)
        _set(f, "_text", text)
    return text


def _render(f: Formula) -> str:
    kind = type(f)
    if kind is Atom:
        return f.name
    if kind is Bottom:
        return "#"
    if kind in _UNARY_SYMBOL:
        inner = to_text(f.child)
        if _PREC.get(type(f.child), 4) < 4:
            inner = f"({inner})"
        return _UNARY_SYMBOL[kind] + inner
    here = _PREC[kind]
    lprec, rprec = _PREC.get(type(f.left), 4), _PREC.get(type(f.right), 4)
    left, right = to_text(f.left), to_text(f.right)
    # implications associate right, & and | left
    if lprec < here or (lprec == here and here == 1):
        left = f"({left})"
    if rprec < here or (rprec == here and here > 1):
        right = f"({right})"
    return f"{left} {_BINARY_SYMBOL[kind]} {right}"


def children(f: Formula) -> tuple[Formula, ...]:
    return f._kids


def postorder(*fs: Formula) -> list[Formula]:
    """The distinct subformulas of the roots fs, each once, children before
    parents, in the order a left-to-right depth-first walk finishes them.
    The roots are walked in turn and share one set of the nodes reached.
    This is the one full walk over a formula."""
    out: list[Formula] = []
    seen: set[Formula] = set()
    stack: list = list(reversed(fs))
    while stack:
        g = stack.pop()
        if type(g) is tuple:  # (node,): its children are done
            out.append(g[0])
        elif g not in seen:
            seen.add(g)
            stack.append((g,))
            stack.extend(reversed(g._kids))
    return out


def subformulas(f: Formula) -> frozenset[Formula]:
    return frozenset(postorder(f))


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in postorder(f) if type(g) is Atom)


def modal_depth(f: Formula) -> int:
    depth: dict[Formula, int] = {}
    for g in postorder(f):
        inner = max((depth[c] for c in g._kids), default=0)
        depth[g] = inner + 1 if isinstance(g, (Box, Diamond)) else inner
    return depth[f]


def size(f: Formula) -> int:
    """Node count of f as a tree, shared subformulas counted at every
    occurrence."""
    return f._size


def is_modal_free(f: Formula) -> bool:
    return not f._modal


def _nabla(x: Formula) -> Formula:
    return Or(x, Neg(Circ(x)))


def _implies(a: Formula, c: Formula) -> Formula:
    return And(Or(_nabla(Neg(a)), c), Or(_nabla(c), Neg(a)))


# ~, N and => in the core signature, one level deep on core arguments
_EXPAND = {CNeg: lambda a: Imp(a, Bottom()), Nabla: _nabla, ImpL: _implies}


def desugar(f: Formula) -> Formula:
    """Rewrite ~, N and => into the core signature; # stays a constant.

    The expansions are the same in every logic: the reliability mark
    inside them is interpreted per logic at evaluation time.  The result
    is cached on f, and the result's own desugaring is itself.
    """
    return f._core


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    out: dict[Formula, Formula] = {}
    for g in postorder(f):
        if type(g) is Atom:
            out[g] = mapping.get(g.name, g)
        else:
            out[g] = type(g)(*[out[c] for c in g._kids]) if g._kids else g
    return out[f]


def layer(g: Formula) -> tuple[Formula, ...]:
    """(!g, @g, !@g, !!g), the shapes the two-valued clauses mention on top
    of g; built once and cached on g."""
    if g._layer is None:
        _set(g, "_layer", (Neg(g), Circ(g), Neg(Circ(g)), Neg(Neg(g))))
    return g._layer


def require_propositional(fs) -> None:
    """Refuse, in order, a non-Formula (TypeError) or a modal formula, named
    as given: desugaring nested => repeats text exponentially."""
    for f in fs:
        require_type(f, Formula, "a Formula")
        if f._modal:
            raise ModalFormulaError(f"modal operator in {to_text(f)}")


def subformula_closure(fs) -> frozenset[Formula]:
    """Subformula set of `fs` plus one layer of the shapes the two-valued
    clauses mention: !B, @B, !@B, !!B for every subformula B."""
    roots = tuple(fs)
    require_propositional(roots)
    base = postorder(*roots)
    return frozenset().union(base, *[g._layer or layer(g) for g in base])
