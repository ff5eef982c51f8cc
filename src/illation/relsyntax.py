"""Concrete syntax for relational formulas.

    Pi i . Sum j . l(i,j) > p(i) & ~q(j)

Quantifiers (`Pi v .` / `Sum v .`) scope as far right as possible; the
propositional connectives reuse the Peano-Russell spellings (~ > & |) with
the usual precedence, and the claw associates right.  Predicate and index
names are lowercase ASCII identifiers; parentheses group subformulas.

The reading loop is the one of `notations`; this lexer's words and
punctuation give it its two rules of its own: the quantifier prefix where a
formula starts, and predicate atoms where a variable would stand.
"""

from __future__ import annotations

import re
from functools import cache

from .formulas import RelFormula
from .notations import _read

_LEXICON = ("'Pi'", "'Sum'", "name", "'('", "')'", "','", "'.'", "'~'", "'>'", "'&'", "'|'")


@cache
def _lexer() -> re.Pattern:
    # a word is a run of ASCII letters and digits (no other letter starts a
    # token); the reader rejects one that starts with a digit or is not lowercase
    return re.compile(
        r"\s*(?:(?P<PI>Pi(?![A-Za-z0-9]))|(?P<SIGMA>Sum(?![A-Za-z0-9]))|(?P<WORD>[A-Za-z0-9]+)"
        r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<COMMA>,)|(?P<DOT>\.)"
        r"|(?P<NEG>~)|(?P<CLAW>>)|(?P<PROD>&)|(?P<SUM>\|)|(?P<BAD>\S))"
    )


def parse_relational(text: str) -> RelFormula:
    return _read(text, _lexer(), _LEXICON, ("predicate atom", "'('"), set())
