"""Concrete syntax for relational formulas.

    Pi i . Sum j . l(i,j) > p(i) & ~q(j)

Quantifiers (`Pi v .` / `Sum v .`) scope as far right as possible; the
propositional connectives reuse the Peano-Russell spellings (~ > & |) with
the usual precedence, and the claw associates right.  Predicate and index
names are lowercase identifiers; parentheses group subformulas.
"""

from __future__ import annotations

from ._record import record
from .formulas import (
    PI,
    SIGMA,
    Quant,
    RAtom,
    RClaw,
    RelFormula,
    RNeg,
    RProd,
    RSum,
)
from .notations import ParseError

_SYMBOLS = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT",
            "~": "NEG", ">": "CLAW", "&": "PROD", "|": "SUM"}


@record(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append(_Token(_SYMBOLS[c], c, i))
            i += 1
            continue
        if c.isalpha():
            j = i + 1
            while j < len(text) and (text[j].isalnum()):
                j += 1
            word = text[i:j]
            if word == "Pi":
                tokens.append(_Token("PI", word, i))
            elif word == "Sum":
                tokens.append(_Token("SIGMA", word, i))
            elif word.islower():
                tokens.append(_Token("NAME", word, i))
            else:
                raise ParseError(
                    "unexpected word", i, ("'Pi'", "'Sum'", "lowercase name"), repr(word)
                )
            i = j
            continue
        raise ParseError(
            "unexpected character", i,
            ("'Pi'", "'Sum'", "name", "'('", "')'", "','", "'.'", "'~'", "'>'", "'&'", "'|'"),
            repr(c),
        )
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _RelParser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, label: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail((label,))
        return self.advance()

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        token = self.peek()
        found = "end of input" if token.kind == "EOF" else repr(token.text)
        return ParseError("syntax error", token.offset, expected, found)

    def parse(self) -> RelFormula:
        formula = self.formula()
        if self.peek().kind != "EOF":
            raise self.fail(("end of input",))
        return formula

    def formula(self) -> RelFormula:
        kind = self.peek().kind
        if kind in ("PI", "SIGMA"):
            self.advance()
            var = self.expect("NAME", "index variable").text
            self.expect("DOT", "'.'")
            return Quant(PI if kind == "PI" else SIGMA, var, self.formula())
        return self.claw()

    def claw(self) -> RelFormula:
        left = self.sum()
        if self.peek().kind == "CLAW":
            self.advance()
            return RClaw(left, self.formula())
        return left

    def sum(self) -> RelFormula:
        left = self.prod()
        while self.peek().kind == "SUM":
            self.advance()
            left = RSum(left, self.prod())
        return left

    def prod(self) -> RelFormula:
        left = self.unary()
        while self.peek().kind == "PROD":
            self.advance()
            left = RProd(left, self.unary())
        return left

    def unary(self) -> RelFormula:
        if self.peek().kind == "NEG":
            self.advance()
            return RNeg(self.unary())
        return self.atomic()

    def atomic(self) -> RelFormula:
        token = self.peek()
        if token.kind == "NAME":
            self.advance()
            self.expect("LPAREN", "'('")
            indices = [self.expect("NAME", "index variable").text]
            while self.peek().kind == "COMMA":
                self.advance()
                indices.append(self.expect("NAME", "index variable").text)
            self.expect("RPAREN", "')'")
            return RAtom(token.text, tuple(indices))
        if token.kind == "LPAREN":
            self.advance()
            inner = self.formula()
            self.expect("RPAREN", "')'")
            return inner
        raise self.fail(("predicate atom", "'('"))


def parse_relational(text: str) -> RelFormula:
    return _RelParser(_tokenize(text)).parse()
