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
from functools import cache, partial
from itertools import product
from typing import Iterator, Optional

from ._record import record
from .formulas import (
    _VAR_NAME,
    EQUIVALENCE_INDEX,
    PI,
    SIGMA,
    SUBFORMULAS,
    Claw,
    Conn16,
    Const,
    Neg,
    Prod,
    PropFormula,
    Quant,
    RAtom,
    RelFormula,
    Sum,
    Var,
    check_expansions,
    expanded,
    from_prefix,
)


class Notation(enum.Enum):
    PEANO_RUSSELL = "peano-russell"
    PEIRCE = "peirce"
    SCHROEDER = "schroeder"
    POLISH = "polish"


class ParseError(Exception):
    """Syntax error with a character offset and the token set expected there."""

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


class _Style(metaclass=record):
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


# --- reading ----------------------------------------------------------------
#
# One loop reads the algebraic notations and the relational grammar by
# operator precedence (Dijkstra's shunting yard), with explicit stacks, so no
# nesting depth exhausts the interpreter's.  A grammar is a pattern that
# matches one token, never whitespace, and a table of kinds: NEG and
# POSTNEG, PROD, SUM and CLAW, LPAREN and RPAREN for the operators and
# brackets, LEAF for #t and #f; the relational grammar adds PI, SIGMA, COMMA
# and DOT.  A token the table does not list is a name: LEAF (a variable) in
# an algebraic notation, WORD (a predicate or an index) in the relational
# grammar.  Or it is spelled as no token is, a character that starts no
# token or a word with a capital, and the loop rejects it where it first
# meets it.  `findall` gives the token strings a slice of the text at a
# time, so the reader holds no list of every token and makes no `Match` per
# token.  It counts the tokens, and only an error lexes the text again, with
# `finditer`, to find the offset of the token it names.  A prefix negation
# waits on the operator stack until its operand is complete; a quantifier
# prefix waits there until its bracket closes or the text ends, so its scope
# reaches as far right as it can.

# How tightly each node binds, for the reader and the printer alike.
_CLAW_LEVEL, _SUM_LEVEL, _PROD_LEVEL, _NEG_LEVEL, _ATOM_LEVEL = 1, 2, 3, 4, 5

_LEVEL = {Var: _ATOM_LEVEL, Const: _ATOM_LEVEL, Neg: _NEG_LEVEL, Prod: _PROD_LEVEL,
          Sum: _SUM_LEVEL, Claw: _CLAW_LEVEL}

_BINARY = {"PROD": Prod, "SUM": Sum, "CLAW": Claw}
# A binary operator first applies the pending ones that bind at least this
# tightly: products and sums associate left, the claw to the right.  No
# negation is pending then, as each applies once its operand is complete.
_TAKES = {Prod: _PROD_LEVEL, Sum: _SUM_LEVEL, Claw: _SUM_LEVEL}
_QUANTIFIERS = {"PI": PI, "SIGMA": SIGMA}
_OPEN = "("  # an open bracket on the operator stack

# The text is lexed in slices of about this many characters, each cut just
# after a character that ends every token it is in: whitespace, a bracket, or
# a one-character operator that begins no longer one (`-` begins `-<`).
_SLICE = 4096


@cache
def _grammar(notation: Notation) -> tuple:
    """The reader's arguments for an algebraic notation, made on its first use."""
    style = _STYLES[notation]
    ops = [(style.claw, "CLAW"), (style.prod, "PROD"), (style.sum, "SUM"),
           (style.neg_prefix, "NEG"), (style.neg_postfix, "POSTNEG")]
    ops = sorted((pair for pair in ops if pair[0]), key=lambda pair: -len(pair[0]))  # maximal munch
    pattern = re.compile(
        r"#[tf]|" + _VAR_NAME.pattern + "|"  # the longest valid name
        + "".join(re.escape(literal) + "|" for literal, _ in ops) + r"\S"
    )
    ends = [literal for literal, _ in ops
            if len(literal) == 1 and not any(o != literal and o.startswith(literal) for o, _ in ops)]
    cuts = re.compile(r"[\s()" + re.escape("".join(ends)) + "]")
    kinds = dict(ops) | {"(": "LPAREN", ")": "RPAREN", "#t": "LEAF", "#f": "LEAF"}
    lexicon = tuple(literal for literal, _ in ops) + ("variable", "'('", "')'", "'#t'", "'#f'")
    operand = ("variable", "'#t'", "'#f'", "'('")
    if style.neg_prefix:
        operand += (repr(style.neg_prefix),)
    # with juxtaposition, a factor starts wherever an operand may
    juxtaposed = {"LEAF", "LPAREN", "NEG"} if style.juxtaposition else set()
    return pattern, cuts, kinds, "LEAF", lexicon, operand, juxtaposed


def _lexical_error(token: str, offset: int, kinds: dict, name_kind: str,
                   lexicon: tuple[str, ...]) -> Optional[ParseError]:
    """The error of `token` if no token is spelled so, else None.  A name
    starts with a lowercase ASCII letter and has no capital; a relational
    word that starts with a letter and is no name is a wrong word."""
    if token in kinds or "a" <= token[0] <= "z" and token.islower():
        return None
    if name_kind == "WORD" and token[0].isascii() and token[0].isalpha():
        return ParseError("unexpected word", offset, ("'Pi'", "'Sum'", "lowercase name"),
                          repr(token))
    return ParseError("unexpected character", offset, lexicon, repr(token[0]))


def _tokens(text: str, pattern: re.Pattern, cuts: re.Pattern) -> Iterator[str]:
    """The token strings of `text`, lexed a slice at a time; a slice ends
    just after a match of `cuts`."""
    start, end = 0, len(text)
    while start < end:
        cut = cuts.search(text, start + _SLICE)
        stop = cut.end() if cut else end
        yield from pattern.findall(text, start, stop)
        start = stop


def _close(ops: list, operands: list) -> None:
    """Apply the pending operators down to the innermost open bracket, or
    the bottom of the stack, and take that mark off."""
    op = ops.pop()
    while op is not _OPEN and op is not None:
        if op in _TAKES:
            right = operands.pop()
            operands[-1] = op(operands[-1], right)
        else:  # a quantifier prefix
            operands[-1] = op(operands[-1])
        op = ops.pop()


def _read(text: str, pattern: re.Pattern, cuts: re.Pattern, kinds: dict[str, str],
          name_kind: str, lexicon: tuple[str, ...], operand: tuple[str, ...],
          juxtaposed: set[str]) -> PropFormula | RelFormula:
    """The formula spelled by `text`, lexed by `pattern` in slices that end
    after a match of `cuts`.  A token is of its kind in `kinds`, else of
    the kind `name_kind`.  `lexicon` is what may stand where a
    character starts no token, `operand` what may stand where an operand is
    due, and `juxtaposed` the kinds of token that start a factor with no
    product sign before it."""
    tokens = enumerate(_tokens(text, pattern, cuts))
    kind_of = kinds.get

    def error(count: Optional[int], expected: tuple[str, ...]) -> ParseError:
        """The error where the token counted `count` (None: the end) cannot
        stand.  A character or word that no token spells is reported first,
        wherever it stands.  The loop raises at each such token it reaches,
        so none stands before that token, and the first in the text is the
        one due."""
        at = None
        for i, each in enumerate(pattern.finditer(text)):
            found = _lexical_error(each[0], each.start(), kinds, name_kind, lexicon)
            if found:
                return found
            if i == count:
                at = each
        if at is None:
            return ParseError("syntax error", len(text), expected, "end of input")
        return ParseError("syntax error", at.start(), expected, repr(at[0]))

    def expect(kind: str, expected: tuple[str, ...]) -> str:
        count, token = next(tokens, (None, None))
        if count is None or kind_of(token, name_kind) != kind \
                or _lexical_error(token, 0, kinds, name_kind, lexicon):
            raise error(count, expected)
        return token

    leaves: dict = {}  # one node per distinct variable or constant
    operands: list = []
    ops: list = [None]  # pending operators over a bottom mark
    depth = 0  # open brackets
    start = True  # a whole formula starts here, so a quantifier may
    due = True  # an operand is due
    for count, token in tokens:
        kind = kind_of(token, name_kind)
        if not due:
            binary = _BINARY.get(kind)
            if binary or kind in juxtaposed:
                op = binary or Prod  # juxtaposition is a product
                takes = _TAKES[op]
                while _LEVEL.get(ops[-1], 0) >= takes:
                    right = operands.pop()
                    operands[-1] = ops.pop()(operands[-1], right)
                ops.append(op)
                due, start = True, op is Claw
                if binary:
                    continue
            elif kind == "POSTNEG":
                operands[-1] = Neg(operands[-1])
                continue
            elif kind == "RPAREN" and depth:
                _close(ops, operands)
                depth -= 1
                while ops[-1] is Neg:
                    operands[-1] = Neg(operands[-1])
                    ops.pop()
                continue
            else:
                raise error(count, ("')'",) if depth else ("end of input",))
        if kind == "LEAF":
            leaf = leaves.get(token)
            if leaf is None:
                if _lexical_error(token, 0, kinds, name_kind, lexicon):
                    raise error(count, operand)
                leaf = leaves[token] = Const(token == "#t") if token[0] == "#" else Var(token)
        elif kind == "NEG":
            ops.append(Neg)
            start = False
            continue
        elif kind == "LPAREN":
            ops.append(_OPEN)
            depth += 1
            start = True
            continue
        elif kind == "WORD":  # a predicate atom
            if _lexical_error(token, 0, kinds, name_kind, lexicon):
                raise error(count, operand)
            expect("LPAREN", ("'('",))
            indices = [expect("WORD", ("index variable",))]
            at, mark = next(tokens, (None, None))
            while mark == ",":
                indices.append(expect("WORD", ("index variable",)))
                at, mark = next(tokens, (None, None))
            if mark != ")":
                raise error(at, ("')'",))
            leaf = RAtom(token, tuple(indices))
        elif kind in _QUANTIFIERS and start:
            var = expect("WORD", ("index variable",))
            expect("DOT", ("'.'",))
            ops.append(partial(Quant, _QUANTIFIERS[kind], var))
            continue
        else:
            raise error(count, operand)
        while ops[-1] is Neg:
            leaf = Neg(leaf)
            ops.pop()
        operands.append(leaf)
        due = start = False
    if due or depth:
        raise error(None, operand if due else ("')'",))
    _close(ops, operands)
    return operands[0]


_POLISH_LETTER = {Claw: "C", Neg: "N", Prod: "K", Sum: "A"}
# Polish reads E too, as equivalence, and prints it expanded.
_POLISH = {letter: cls for cls, letter in _POLISH_LETTER.items()}
_POLISH["E"] = partial(Conn16, EQUIVALENCE_INDEX)
_POLISH_EXPECTED = tuple(map(repr, _POLISH)) + ("variable",)


def _parse_polish(text: str) -> PropFormula:
    """The formula spelled by `text` in Polish notation, built in one pass
    from the right.  Only a text that does not build is read again, from
    the left, to find and word its first error."""
    stripped = text.strip()
    # no entry for whitespace, '#' or a character that is no letter
    lookup = _POLISH | {c: Var(c) for c in set(stripped) if "a" <= c <= "z"}
    try:  # fails on a missing entry, an empty stack, or formulas left over
        return from_prefix(map(lookup.__getitem__, reversed(stripped)))
    except (KeyError, IndexError, ValueError):
        pass
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
    raise ParseError("syntax error", base + len(stripped), _POLISH_EXPECTED, "end of input")


def parse(text: str, notation: Notation) -> PropFormula:
    if notation is Notation.POLISH:
        return _parse_polish(text)
    return _read(text, *_grammar(notation))


# --- printing ---------------------------------------------------------------

# A side is bracketed when its level is below the lowest its place allows:
# the right side of a product or sum binds tighter than the node, and nested
# claws are bracketed on BOTH sides, the way the period sources set them,
# even though the parser is right-associative.
_LOWEST = {Neg: (_NEG_LEVEL, 0), Prod: (_PROD_LEVEL, _NEG_LEVEL),
           Sum: (_SUM_LEVEL, _PROD_LEVEL), Claw: (_SUM_LEVEL, _SUM_LEVEL)}

_BATCH = 4096  # pieces joined at a time: no list holds them all


@cache
def _layout(notation: Notation) -> dict:
    """Per connective: its sides' getter and, by the class of its first side
    and then of its last, the texts before the first side, after it and after
    the last (a negation has one side)."""
    polish = notation is Notation.POLISH
    if polish:  # the letter, then sides that need no brackets
        pieces = {cls: (letter, "") for cls, letter in _POLISH_LETTER.items()}
    else:
        style = _STYLES[notation]
        spaced = " {} " if style.juxtaposition else "{}"
        pieces = {Neg: (style.neg_prefix or "", style.neg_postfix or ""),
                  Prod: ("", "" if style.juxtaposition else style.prod),
                  Sum: ("", spaced.format(style.sum)), Claw: ("", spaced.format(style.claw))}
    layout = {}
    for cls, (before, text) in pieces.items():
        low, high = (0, 0) if polish else _LOWEST[cls]
        ways = {(a, b): (before + "(" * a, ")" * a + text + "(" * b, ")" * b)
                for a, b in product((False, True), repeat=2)}  # by the sides bracketed
        layout[cls] = SUBFORMULAS[cls], {
            first: {last: ways[_LEVEL[first] < low, _LEVEL[last] < high] for last in _LEVEL}
            for first in _LEVEL}
    return layout


def print_formula(f: PropFormula, notation: Notation) -> str:
    """The text of `f` in `notation`, with the fewest brackets, a space only
    between juxtaposed names.  One loop goes at once into each node's
    first side; only later sides and text wait on a stack.  At the first
    Conn16 met, `check_expansions` bounds its expansions."""
    layout, constants = _layout(notation), notation is not Notation.POLISH
    juxtaposed = constants and _STYLES[notation].juxtaposition
    root = f  # until `check_expansions` has run on it, then None
    if type(f) not in _LEVEL:  # a Conn16, printed expanded, or no formula
        check_expansions(f)
        root, f = None, expanded(f)
    chunks, batch, todo = [], [""], []
    emit, push = batch.append, todo.append
    name = None  # the last name printed
    while True:
        cls = type(f)
        if cls is Var or cls is Const and constants:
            if juxtaposed and cls is Var and batch[-1] is name:
                emit(" ")
            if len(batch) >= _BATCH:
                chunks.append("".join(batch))
                batch.clear()
            name = f.name
            emit(name)
        elif cls is str:
            emit(f)
        elif cls is Const:
            raise PrintError("Polish notation has no constant literals")
        else:
            get, texts = layout[cls]
            sides = get(f)
            try:
                before, between, after = texts[type(sides[0])][type(sides[-1])]
            except KeyError:  # a Conn16 side, printed expanded, or no formula
                if root is not None:  # it raises TypeError at a node of no formula
                    check_expansions(root)
                    root = None
                sides = tuple(map(expanded, sides))
                before, between, after = texts[type(sides[0])][type(sides[-1])]
            if before:
                emit(before)
            if after:
                push(after)
            if cls is not Neg:
                push(sides[1])
            if between:
                push(between)
            f = sides[0]
            continue
        if not todo:
            chunks.append("".join(batch))
            return "".join(chunks)
        f = todo.pop()
