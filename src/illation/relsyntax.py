"""Concrete syntax for relational formulas.

    Pi i . Sum j . l(i,j) > p(i) & ~q(j)

Quantifiers (`Pi v .` / `Sum v .`) scope as far right as possible; the
propositional connectives reuse the Peano-Russell spellings (~ > & |) with
the usual precedence, and the claw associates right.  Predicate and index
names are lowercase identifiers; parentheses group subformulas.

The parser is the Peano-Russell precedence core of `notations` with two
rules of its own: the quantifier prefix where a formula starts, and
predicate atoms where a variable would stand.
"""

from __future__ import annotations

from .formulas import PI, SIGMA, Quant, RAtom, RelFormula
from .notations import _STYLES, Notation, ParseError, _AlgebraicParser, _Token

_SYMBOLS = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT",
            "~": "NEG", ">": "CLAW", "&": "PROD", "|": "SUM"}


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


class _RelParser(_AlgebraicParser):
    def expect(self, kind: str, label: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail((label,))
        return self.advance()

    def formula(self) -> RelFormula:
        kind = self.peek().kind
        if kind in ("PI", "SIGMA"):
            self.advance()
            var = self.expect("NAME", "index variable").text
            self.expect("DOT", "'.'")
            return Quant(PI if kind == "PI" else SIGMA, var, self.formula())
        return self.claw()

    def leaf(self) -> RAtom:
        token = self.peek()
        if token.kind != "NAME":
            raise self.fail(("predicate atom", "'('"))
        self.advance()
        self.expect("LPAREN", "'('")
        indices = [self.expect("NAME", "index variable").text]
        while self.peek().kind == "COMMA":
            self.advance()
            indices.append(self.expect("NAME", "index variable").text)
        self.expect("RPAREN", "')'")
        return RAtom(token.text, tuple(indices))


def parse_relational(text: str) -> RelFormula:
    return _RelParser(_tokenize(text), _STYLES[Notation.PEANO_RUSSELL]).parse()
