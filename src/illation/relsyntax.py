"""Concrete syntax for relational formulas.

    Pi i . Sum j . l(i,j) > p(i) & ~q(j)

Quantifiers (`Pi v .` / `Sum v .`) scope as far right as possible; the
propositional connectives are Peano-Russell's with the usual precedence,
and the claw associates right.  Predicate and index
names are lowercase ASCII identifiers; parentheses group subformulas.

The reading loop is the one of `notations`.  This grammar's tokens are
words (runs of ASCII letters and digits, `Pi` and `Sum` among them) and
single characters, and its table of kinds gives the loop its two rules of
its own: the quantifier prefix where a formula starts, and predicate atoms
where a variable would stand.
"""

from __future__ import annotations

import re
from functools import cache

from .formulas import RelFormula
from .notations import _STYLES, Notation, _read

_STYLE = _STYLES[Notation.PEANO_RUSSELL]
_OPS = {_STYLE.neg_prefix: "NEG", _STYLE.claw: "CLAW", _STYLE.prod: "PROD", _STYLE.sum: "SUM"}
_LEXICON = ("'Pi'", "'Sum'", "name", "'('", "')'", "','", "'.'", *map(repr, _OPS))
_KINDS = {"Pi": "PI", "Sum": "SIGMA", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT"} | _OPS


@cache
def _patterns() -> tuple[re.Pattern, re.Pattern]:
    # a word is a run of ASCII letters and digits (no other letter starts a
    # token), so Pi and Sum are keywords only as whole words; the reader
    # rejects a word that starts with a digit or is not lowercase.  Every
    # other token is one character, so a slice may end after any of them.
    return re.compile(r"[A-Za-z0-9]+|\S"), re.compile(r"[\s(),.%s]" % re.escape("".join(_OPS)))


def parse_relational(text: str) -> RelFormula:
    return _read(text, *_patterns(), _KINDS, "WORD", _LEXICON, ("predicate atom", "'('"), set())
