"""Concrete syntaxes: Peano-Russell, Peirce, Schroeder, and Polish.

ASCII surrogates stand in for the period glyphs:

  Peano-Russell   ~a   a>b    a&b   a|b        prefix negation, tight operators
  Peirce          -a   a -< b juxtaposition/*  a + b
  Schroeder       a'   a =< b juxtaposition/*  a + b   postfix negation
  Polish          Na   Cab    Kab   Aab  Eab   capitals, no parentheses

Constants are spelled #t and #f in the algebraic notations (so the letters
v and f stay usable as variables); Polish has no constant literals.
Precedence everywhere: negation > product > sum > claw; the claw associates
to the right.  Whitespace is insignificant in the algebraic notations and
forbidden inside Polish strings.  Tokenization is maximal-munch, so -< is
the claw and a lone - is negation.
"""

from __future__ import annotations

import enum
import re
from functools import partial
from typing import Iterator, Optional

from ._record import record
from .formulas import (
    _VAR_NAME,
    SUBFORMULAS,
    Claw,
    Conn16,
    Const,
    Neg,
    Prod,
    PropFormula,
    Sum,
    Var,
    from_prefix,
)
from .truth import EQUIVALENCE_INDEX, expanded


class Notation(enum.Enum):
    PEANO_RUSSELL = "peano-russell"
    PEIRCE = "peirce"
    SCHROEDER = "schroeder"
    POLISH = "polish"

    @classmethod
    def from_name(cls, name: str) -> "Notation":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown notation: {name!r}")


class ParseError(Exception):
    """Syntax error with a byte offset and the token set expected there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = (),
                 found: str = ""):
        super().__init__(message)
        self.message = message
        self.offset = offset
        self.expected = expected
        self.found = found

    def __str__(self) -> str:
        parts = [f"{self.message} at offset {self.offset}"]
        if self.found:
            parts.append(f"found {self.found}")
        if self.expected:
            parts.append("expected one of: " + ", ".join(self.expected))
        return "; ".join(parts)


class PrintError(ValueError):
    """The formula is not expressible in the requested notation."""


@record(frozen=True)
class _Token:
    # NAME CONST LPAREN RPAREN NEG POSTNEG PROD SUM CLAW EOF; the relational
    # tokenizer also emits COMMA DOT PI SIGMA
    kind: str
    text: str
    offset: int


@record(frozen=True)
class _Style:
    claw: str
    prod: str
    sum: str
    neg_prefix: Optional[str]
    neg_postfix: Optional[str]
    juxtaposition: bool


_STYLES = {
    Notation.PEANO_RUSSELL: _Style(">", "&", "|", "~", None, False),
    Notation.PEIRCE: _Style("-<", "*", "+", "-", None, True),
    Notation.SCHROEDER: _Style("=<", "*", "+", None, "'", True),
}


def _operator_table(style: _Style) -> list[tuple[str, str]]:
    ops = [(style.claw, "CLAW"), (style.prod, "PROD"), (style.sum, "SUM")]
    if style.neg_prefix:
        ops.append((style.neg_prefix, "NEG"))
    if style.neg_postfix:
        ops.append((style.neg_postfix, "POSTNEG"))
    ops.sort(key=lambda pair: len(pair[0]), reverse=True)  # maximal munch
    return ops


def _tokenize_algebraic(text: str, style: _Style) -> list[_Token]:
    ops = _operator_table(style)
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            tokens.append(_Token("LPAREN", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(_Token("RPAREN", c, i))
            i += 1
            continue
        if text.startswith("#t", i) or text.startswith("#f", i):
            tokens.append(_Token("CONST", text[i : i + 2], i))
            i += 2
            continue
        for literal, kind in ops:
            if text.startswith(literal, i):
                tokens.append(_Token(kind, literal, i))
                i += len(literal)
                break
        else:
            if "a" <= c <= "z":
                # longest valid name wins: l_0_1 is one variable, ab is two
                j = i + 1
                while j < len(text) and (text[j] == "_" or text[j].isascii() and text[j].isalnum() and not text[j].isupper()):
                    j += 1
                while j > i and not _VAR_NAME.fullmatch(text[i:j]):
                    j -= 1
                tokens.append(_Token("NAME", text[i:j], i))
                i = j
            else:
                lexicon = tuple(lit for lit, _ in ops) + ("variable", "'('", "')'", "'#t'", "'#f'")
                raise ParseError("unexpected character", i, lexicon, repr(c))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _AlgebraicParser:
    def __init__(self, tokens: list[_Token], style: _Style):
        self.tokens = tokens
        self.style = style
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        token = self.peek()
        found = "end of input" if token.kind == "EOF" else repr(token.text)
        return ParseError("syntax error", token.offset, expected, found)

    def atom_first(self) -> tuple[str, ...]:
        kinds = ["NAME", "CONST", "LPAREN"]
        if self.style.neg_prefix:
            kinds.append("NEG")
        return tuple(kinds)

    def parse(self) -> PropFormula:
        formula = self.formula()
        if self.peek().kind != "EOF":
            raise self.fail(("end of input",))
        return formula

    def claw(self) -> PropFormula:
        left = self.sum()
        if self.peek().kind == "CLAW":
            self.advance()
            return Claw(left, self.formula())
        return left

    # Where a whole formula starts: at the top, after a claw, inside
    # parentheses.  The relational parser puts its quantifier prefix here.
    formula = claw

    def sum(self) -> PropFormula:
        left = self.prod()
        while self.peek().kind == "SUM":
            self.advance()
            left = Sum(left, self.prod())
        return left

    def prod(self) -> PropFormula:
        left = self.unary()
        while True:
            kind = self.peek().kind
            if kind == "PROD":
                self.advance()
                left = Prod(left, self.unary())
            elif self.style.juxtaposition and kind in self.atom_first():
                left = Prod(left, self.unary())
            else:
                return left

    def unary(self) -> PropFormula:
        if self.style.neg_prefix and self.peek().kind == "NEG":
            self.advance()
            return Neg(self.unary())
        node = self.atomic()
        while self.style.neg_postfix and self.peek().kind == "POSTNEG":
            self.advance()
            node = Neg(node)
        return node

    def atomic(self) -> PropFormula:
        if self.peek().kind == "LPAREN":
            self.advance()
            inner = self.formula()
            if self.peek().kind != "RPAREN":
                raise self.fail(("')'",))
            self.advance()
            return inner
        return self.leaf()

    # A leaf, not a bracket: the relational parser reads predicate atoms here.
    def leaf(self) -> PropFormula:
        token = self.peek()
        if token.kind == "NAME":
            self.advance()
            return Var(token.text)
        if token.kind == "CONST":
            self.advance()
            return Const(token.text == "#t")
        expected = ["variable", "'#t'", "'#f'", "'('"]
        if self.style.neg_prefix:
            expected.append(repr(self.style.neg_prefix))
        raise self.fail(tuple(expected))


_POLISH_EXPECTED = ("'C'", "'N'", "'K'", "'A'", "'E'", "variable")

_POLISH = {"C": Claw, "N": Neg, "K": Prod, "A": Sum, "E": partial(Conn16, EQUIVALENCE_INDEX)}
_POLISH_LETTER = {Claw: "C", Neg: "N", Prod: "K", Sum: "A"}


def _parse_polish(text: str) -> PropFormula:
    stripped = text.strip()
    base = len(text) - len(text.lstrip())
    for i, c in enumerate(stripped):
        if c.isspace():
            raise ParseError(
                "whitespace is not allowed inside Polish formulas", base + i
            )
        if c == "#":
            raise ParseError(
                "Polish notation has no constant literals", base + i, _POLISH_EXPECTED
            )
    # A counted stack: `need` is the number of formulas still owed, so each
    # operator adds its arity less the one it fills, and a variable fills one.
    need = 1
    for pos, c in enumerate(stripped):
        if not need:
            raise ParseError("syntax error", base + pos, ("end of input",), repr(c))
        if c in _POLISH:
            need += c != "N"
        elif "a" <= c <= "z":
            need -= 1
        else:
            raise ParseError("syntax error", base + pos, _POLISH_EXPECTED, repr(c))
    if need:
        raise ParseError(
            "syntax error", base + len(stripped), _POLISH_EXPECTED, "end of input"
        )
    return from_prefix([_POLISH[c] if c in _POLISH else Var(c) for c in stripped])


def parse(text: str, notation: Notation) -> PropFormula:
    if notation is Notation.POLISH:
        return _parse_polish(text)
    style = _STYLES[notation]
    return _AlgebraicParser(_tokenize_algebraic(text, style), style).parse()


# --- printing ---------------------------------------------------------------

_CLAW_LEVEL, _SUM_LEVEL, _PROD_LEVEL, _NEG_LEVEL, _ATOM_LEVEL = 1, 2, 3, 4, 5

_LEVEL = {Var: _ATOM_LEVEL, Const: _ATOM_LEVEL, Neg: _NEG_LEVEL, Prod: _PROD_LEVEL,
          Sum: _SUM_LEVEL, Claw: _CLAW_LEVEL}
# A side is bracketed when its level is below the lowest its place allows:
# the right side of a product or sum binds tighter than the node, and nested
# claws are bracketed on BOTH sides, the way the period sources set them,
# even though the parser is right-associative.
_LOWEST = {Neg: (_NEG_LEVEL,), Prod: (_PROD_LEVEL, _NEG_LEVEL),
           Sum: (_SUM_LEVEL, _PROD_LEVEL), Claw: (_SUM_LEVEL, _SUM_LEVEL)}


class _Text(str):
    """Text on a printer's stack; its own class, so no subformula is taken for it."""


_JOINT = "\0"  # between juxtaposed factors; no formula text contains it
_SPACED_JOINT = re.compile(r"(?<=[a-z0-9_])\0(?=[a-z0-9_])")


def _layout(notation: Notation) -> dict:
    """How `notation` writes each connective, as the pieces a printer's
    stack takes, last first: text, or a side as (its position, the lowest
    level it may have unbracketed)."""
    if notation is Notation.POLISH:  # the letter, then sides that need no brackets
        return {cls: [(1, 0), (0, 0), _Text(letter)] if cls is not Neg else [(0, 0), _Text("N")]
                for cls, letter in _POLISH_LETTER.items()}
    style = _STYLES[notation]
    spaced = " {} " if style.juxtaposition else "{}"
    pieces = {
        Neg: (style.neg_prefix, 0) if style.neg_prefix else (0, style.neg_postfix),
        Prod: (0, _JOINT if style.juxtaposition else style.prod, 1),
        Sum: (0, spaced.format(style.sum), 1),
        Claw: (0, spaced.format(style.claw), 1),
    }
    return {cls: [(p, _LOWEST[cls][p]) if type(p) is int else _Text(p) for p in reversed(ps)]
            for cls, ps in pieces.items()}


# The printer is a generator: CPython 3.11 specializes a function's
# bytecode only once it has been entered a few times, and a generator is
# entered again at every yield, so a long walk runs specialized.


def _fragments(f: PropFormula, notation: Notation) -> Iterator[str]:
    """The text in order, with the fewest brackets."""
    layout = _layout(notation)
    opened, closed = _Text("("), _Text(")")
    todo: list = [expanded(f)]
    pop, push = todo.pop, todo.append
    while todo:
        f = pop()
        cls = type(f)
        if cls is Var:
            yield f.name
        elif cls is _Text:
            yield f
        elif cls in layout:
            sides = SUBFORMULAS[cls](f)
            for piece in layout[cls]:
                if type(piece) is _Text:
                    push(piece)
                    continue
                position, lowest = piece
                side = sides[position]
                if type(side) is Conn16:
                    side = expanded(side)
                if lowest and _LEVEL.get(type(side), _ATOM_LEVEL) < lowest:
                    todo += (closed, side, opened)
                else:
                    push(side)
        elif cls is Const and notation is not Notation.POLISH:
            yield "#t" if f.value else "#f"
        elif cls is Const:
            raise PrintError("Polish notation has no constant literals")
        else:
            raise TypeError(f"not a propositional formula: {f!r}")


def print_formula(f: PropFormula, notation: Notation) -> str:
    text = "".join(_fragments(f, notation))
    # between juxtaposed factors, a space only where two names would run together
    return _SPACED_JOINT.sub(" ", text).replace(_JOINT, "")
