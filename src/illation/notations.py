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
from typing import Optional

from ._record import record
from .formulas import _VAR_NAME, Claw, Conn16, Const, Neg, Prod, PropFormula, Sum, Var
from .truth import EQUIVALENCE_INDEX, sop_expansion


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
                while j > i and not _VAR_NAME.match(text[i:j]):
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
    pos = 0

    def rec() -> PropFormula:
        nonlocal pos
        if pos >= len(stripped):
            raise ParseError(
                "syntax error", base + pos, _POLISH_EXPECTED, "end of input"
            )
        c = stripped[pos]
        pos += 1
        if c == "C":
            return Claw(rec(), rec())
        if c == "N":
            return Neg(rec())
        if c == "K":
            return Prod(rec(), rec())
        if c == "A":
            return Sum(rec(), rec())
        if c == "E":
            return Conn16(EQUIVALENCE_INDEX, rec(), rec())
        if "a" <= c <= "z":
            return Var(c)
        raise ParseError("syntax error", base + pos - 1, _POLISH_EXPECTED, repr(c))

    formula = rec()
    if pos != len(stripped):
        raise ParseError(
            "syntax error", base + pos, ("end of input",), repr(stripped[pos])
        )
    return formula


def parse(text: str, notation: Notation) -> PropFormula:
    if notation is Notation.POLISH:
        return _parse_polish(text)
    style = _STYLES[notation]
    return _AlgebraicParser(_tokenize_algebraic(text, style), style).parse()


# --- printing ---------------------------------------------------------------

_CLAW_LEVEL, _SUM_LEVEL, _PROD_LEVEL, _NEG_LEVEL, _ATOM_LEVEL = 1, 2, 3, 4, 5

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def _juxtapose(left: str, right: str) -> str:
    if left and right and left[-1] in _NAME_CHARS and right[0] in _NAME_CHARS:
        return f"{left} {right}"
    return left + right


def _print_algebraic(f: PropFormula, style: _Style) -> tuple[str, int]:
    if isinstance(f, Var):
        return f.name, _ATOM_LEVEL
    if isinstance(f, Const):
        return ("#t" if f.value else "#f"), _ATOM_LEVEL
    if isinstance(f, Neg):
        text, level = _print_algebraic(f.inner, style)
        if level < _NEG_LEVEL:
            text = f"({text})"
        if style.neg_prefix:
            return style.neg_prefix + text, _NEG_LEVEL
        return text + style.neg_postfix, _NEG_LEVEL
    if isinstance(f, Prod):
        lt, ll = _print_algebraic(f.left, style)
        rt, rl = _print_algebraic(f.right, style)
        if ll < _PROD_LEVEL:
            lt = f"({lt})"
        if rl <= _PROD_LEVEL:
            rt = f"({rt})"
        if style.juxtaposition:
            return _juxtapose(lt, rt), _PROD_LEVEL
        return lt + style.prod + rt, _PROD_LEVEL
    if isinstance(f, Sum):
        lt, ll = _print_algebraic(f.left, style)
        rt, rl = _print_algebraic(f.right, style)
        if ll < _SUM_LEVEL:
            lt = f"({lt})"
        if rl <= _SUM_LEVEL:
            rt = f"({rt})"
        if style.juxtaposition:
            return f"{lt} {style.sum} {rt}", _SUM_LEVEL
        return lt + style.sum + rt, _SUM_LEVEL
    if isinstance(f, Claw):
        lt, ll = _print_algebraic(f.antecedent, style)
        rt, rl = _print_algebraic(f.consequent, style)
        # nested claws are bracketed on BOTH sides, the way the period
        # sources set them, even though the parser is right-associative
        if ll <= _CLAW_LEVEL:
            lt = f"({lt})"
        if rl <= _CLAW_LEVEL:
            rt = f"({rt})"
        if style.juxtaposition:
            return f"{lt} {style.claw} {rt}", _CLAW_LEVEL
        return lt + style.claw + rt, _CLAW_LEVEL
    if isinstance(f, Conn16):
        return _print_algebraic(sop_expansion(f.index, f.left, f.right), style)
    raise TypeError(f"not a propositional formula: {f!r}")


def _print_polish(f: PropFormula) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const):
        raise PrintError("Polish notation has no constant literals")
    if isinstance(f, Neg):
        return "N" + _print_polish(f.inner)
    if isinstance(f, Claw):
        return "C" + _print_polish(f.antecedent) + _print_polish(f.consequent)
    if isinstance(f, Prod):
        return "K" + _print_polish(f.left) + _print_polish(f.right)
    if isinstance(f, Sum):
        return "A" + _print_polish(f.left) + _print_polish(f.right)
    if isinstance(f, Conn16):
        return _print_polish(sop_expansion(f.index, f.left, f.right))
    raise TypeError(f"not a propositional formula: {f!r}")


def print_formula(f: PropFormula, notation: Notation) -> str:
    if notation is Notation.POLISH:
        return _print_polish(f)
    text, _ = _print_algebraic(f, _STYLES[notation])
    return text
