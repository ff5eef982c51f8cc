"""Formula syntax trees shared by every other module.

Propositional trees use Peirce's connective set: the claw (illation, his
material implication), negation, Boolean product and sum, the two constants,
and a generalized binary connective addressed by its column index in the
sixteen-connective table of MS 431.  That table and each connective's
sum-of-products expansion live here too, with the bound on the atom
occurrences printing those expansions adds, so reading and printing need no
evaluator.  Relational trees add indexed predicate atoms and Peirce's
Pi/Sigma quantifiers over index variables, joined by the same connective
nodes.

All nodes are frozen records (`_record.record`): immutable, equal when they
are of the same class with equal fields, and hashed by their field tuple.
A node holds its fields in slots, with no `__dict__`, so a binary node is
48 bytes.
"""

from __future__ import annotations

import re
from functools import partial, reduce
from operator import attrgetter
from typing import Iterable, Iterator

from . import errors
from ._record import record

# Single letter, or an expansion atom such as l_0_1 produced by quantifier
# elimination (predicate name + underscore-joined element indices).  Written
# so that a match is the longest name at its start: the algebraic readers lex
# a name with this pattern.
_VAR_NAME = re.compile(r"[a-z](?:[a-z0-9]*(?:_[0-9]+)+)?")

_PREDICATE_NAME = re.compile(r"[a-z][a-z0-9]*")


class PropFormula:
    """Base class for propositional formula nodes."""

    __slots__ = ()  # a node's fields are the slots of its record class
    __hash__ = None  # each concrete node class is a frozen record with its own


class Var(PropFormula, metaclass=record):
    name: str

    def __post_init__(self) -> None:
        if not _VAR_NAME.fullmatch(self.name):
            raise ValueError(f"bad variable name: {self.name!r}")


class Const(PropFormula, metaclass=record):
    # True is verum (v), False is falsum (f); constants are never variables.
    value: bool

    @property
    def name(self) -> str:
        """The constant as the algebraic notations spell it."""
        return "#t" if self.value else "#f"


class Neg(PropFormula, metaclass=record):
    inner: PropFormula


class Claw(PropFormula, metaclass=record):
    """Illation a -< b: false exactly when the antecedent holds and the
    consequent fails."""

    antecedent: PropFormula
    consequent: PropFormula


class Prod(PropFormula, metaclass=record):
    left: PropFormula
    right: PropFormula


class Sum(PropFormula, metaclass=record):
    left: PropFormula
    right: PropFormula


# --- the sixteen connectives of MS 431 ------------------------------------

# The sixteen binary connectives, keyed by their column index in the MS 431
# table.  Each vector lists the connective's value at the four assignment
# rows in canonical order: (v,v), (v,f), (f,v), (f,f).
CONNECTIVE_VECTORS: dict[int, tuple[bool, bool, bool, bool]] = {
    1: (False, False, False, False),
    2: (False, False, False, True),
    3: (False, False, True, False),
    4: (False, True, False, False),
    5: (True, False, False, False),
    6: (True, True, False, False),
    7: (True, False, True, False),
    8: (True, False, False, True),
    9: (False, True, True, False),
    10: (False, True, False, True),
    11: (False, False, True, True),
    12: (False, True, True, True),
    13: (True, False, True, True),
    14: (True, True, False, True),
    15: (True, True, True, False),
    16: (True, True, True, True),
}

# For the claw, product and sum: the value of each side that alone decides
# the node's value, which is then the second side's (a claw is v once its
# antecedent is f or its consequent v).
_DECIDING = {Claw: (False, True), Prod: (False, False), Sum: (True, True)}

# The claw's own vector (v,f,v,v) sits in column 13; plain equivalence
# (v,f,f,v) in column 8.
CLAW_INDEX = 13
EQUIVALENCE_INDEX = 8


def connective_vector(index: int) -> tuple[bool, bool, bool, bool]:
    """The truth vector of column `index`; only the ints 1..16 are columns."""
    if type(index) is not int or index not in CONNECTIVE_VECTORS:
        raise ValueError(f"connective index out of range: {index!r}")
    return CONNECTIVE_VECTORS[index]


def connective_index(vector: tuple[bool, bool, bool, bool]) -> int:
    for index, candidate in CONNECTIVE_VECTORS.items():
        if candidate == tuple(vector):
            return index
    raise ValueError(f"not a length-4 truth vector: {vector!r}")


def _rows(index: int, value: bool) -> list[tuple[bool, bool]]:
    """The (left, right) values, in canonical order, where connective
    `index` has `value`."""
    pairs = ((True, True), (True, False), (False, True), (False, False))
    return [pair for pair, cell in zip(pairs, connective_vector(index)) if cell == value]


class Conn16(PropFormula, metaclass=record):
    """Binary connective number `index` (1..16) from the MS 431 table."""

    index: int
    left: PropFormula
    right: PropFormula

    def __post_init__(self) -> None:
        connective_vector(self.index)


def sop_expansion(index: int, left: PropFormula, right: PropFormula) -> PropFormula:
    """Sum-of-products formula with the same table as Conn16(index, l, r).

    Constant-free so the result stays printable in every notation: the
    all-false vector becomes (l AND NOT l) AND (r AND NOT r), the all-true
    vector its dual.
    """
    rows = _rows(index, True)
    if not rows:
        return Prod(Prod(left, Neg(left)), Prod(right, Neg(right)))
    if len(rows) == 4:
        return Sum(Sum(left, Neg(left)), Sum(right, Neg(right)))
    return reduce(Sum, [Prod(left if l else Neg(left), right if r else Neg(right))
                        for l, r in rows])


def expanded(f: PropFormula) -> PropFormula:
    """`f` itself, or a Conn16 node's sum-of-products expansion."""
    if type(f) is Conn16:
        return sop_expansion(f.index, *SUBFORMULAS[Conn16](f))
    return f


_RESUME = object()  # on `check_expansions`' stack above the count to resume


def check_expansions(formula: PropFormula) -> None:
    """Refuse a formula whose Conn16 nodes, printed as their sum-of-products
    expansions, add more than MAX_EXPANSION_LEAVES atom occurrences: each
    side is printed once per v row of its column, twice for columns 1 and
    16.  A non-propositional node raises TypeError."""
    added, copies = 0, 1  # `copies`: how many times the node at hand is printed
    todo: list = [formula]
    while todo:
        f = todo.pop()
        cls = type(f)
        if cls is Var or cls is Const:
            added += copies - 1
            if added > errors.MAX_EXPANSION_LEAVES:
                raise errors.LimitExceededError(f"connective expansions add more than "
                                                f"{errors.MAX_EXPANSION_LEAVES:,} atom occurrences")
        elif f is _RESUME:
            copies = todo.pop()
        elif cls not in PROPOSITIONAL:
            raise TypeError(f"not a propositional formula: {f!r}")
        else:
            if cls is Conn16:
                todo += (copies, _RESUME)
                rows = len(_rows(f.index, True))
                copies *= rows if 0 < rows < 4 else 2
            todo += SUBFORMULAS[cls](f)[::-1]


def free_vars(formula: PropFormula) -> list[str]:
    """Variable names in first-occurrence order (duplicate-free)."""
    names = (f.name for f in walk(formula, PROPOSITIONAL) if type(f) is Var)
    return list(dict.fromkeys(names))


def substitute(context: PropFormula, hole: str, filler: PropFormula) -> PropFormula:
    """Replace every occurrence of the variable `hole` with `filler`."""
    tokens: list = []
    for f in walk(context, PROPOSITIONAL):
        cls = type(f)
        if cls is Var and f.name == hole:
            tokens.append(filler)
        elif cls is Var or cls is Const:
            tokens.append(f)
        else:
            tokens.append(partial(Conn16, f.index) if cls is Conn16 else cls)
    return from_prefix(reversed(tokens))


# --- relational formulas -------------------------------------------------

PI = "Pi"
SIGMA = "Sigma"


class RelFormula:
    """Base class for the relational leaves: predicate atoms and quantifiers."""

    __slots__ = ()
    __hash__ = None


class RAtom(RelFormula, metaclass=record):
    predicate: str
    indices: tuple[str, ...]

    def __post_init__(self) -> None:
        if not _PREDICATE_NAME.fullmatch(self.predicate):
            raise ValueError(f"bad predicate name: {self.predicate!r}")
        if not self.indices:
            raise ValueError("atoms need at least one index variable")


# Peirce's quantified logic applies the same Boolean operations as the
# propositional calculus, so a relational formula's connectives are the
# propositional nodes themselves, with RAtom and Quant at the leaves.
RNeg, RClaw, RProd, RSum = Neg, Claw, Prod, Sum


class Quant(RelFormula, metaclass=record):
    """Peirce quantifier: Pi is the product (every element), Sigma the sum
    (some element)."""

    kind: str
    var: str
    body: RelFormula

    def __post_init__(self) -> None:
        if self.kind not in (PI, SIGMA):
            raise ValueError(f"quantifier kind must be {PI!r} or {SIGMA!r}")


_UNBIND = object()  # on `ensure_closed`'s stack above an index whose scope ends


def ensure_closed(formula: RelFormula) -> dict[int, int]:
    """Reject free or shadowed index variables; return, for each k, how many
    atoms stand under k quantifiers.

    Every atom index must be bound by exactly one enclosing quantifier;
    the public relational operations only accept closed formulas.
    """
    bound: set[str] = set()  # the indices of the quantifiers above the node
    depths: dict[int, int] = {}
    todo: list = [formula]
    while todo:
        f = todo.pop()
        if f is _UNBIND:
            bound.remove(todo.pop())
            continue
        cls = type(f)
        if cls is RAtom:
            for ix in f.indices:
                if ix not in bound:
                    raise ValueError(f"free index variable: {ix!r}")
            k = len(bound)
            depths[k] = depths.get(k, 0) + 1
            continue
        if cls not in RELATIONAL:
            raise TypeError(f"not a relational formula: {f!r}")
        if cls is Quant:
            if f.var in bound:
                raise ValueError(f"index variable shadowed: {f.var!r}")
            bound.add(f.var)
            todo += (f.var, _UNBIND)
        todo += SUBFORMULAS[cls](f)[::-1]
    return depths


def predicate_signature(formula: RelFormula) -> dict[str, int]:
    """Predicate arities in first-occurrence order; arity clashes are errors."""
    sig: dict[str, int] = {}
    for f in walk(formula, RELATIONAL):
        if type(f) is RAtom:
            arity = len(f.indices)
            if sig.setdefault(f.predicate, arity) != arity:
                raise ValueError(
                    f"predicate {f.predicate!r} used with arities "
                    f"{sig[f.predicate]} and {arity}"
                )
    return sig


# --- the one traversal -----------------------------------------------------
#
# Peirce's sums and products are folded left, so long flat chains are
# ordinary input and a walk that recursed once per level would overflow the
# interpreter stack.  Every walk keeps an explicit stack instead and reads a
# node's children from SUBFORMULAS, the only place that says which fields
# are children: for each class with any, a getter of the tuple of them.

SUBFORMULAS = {
    Neg: lambda f: (f.inner,),
    Claw: attrgetter("antecedent", "consequent"),
    Prod: attrgetter("left", "right"),
    Sum: attrgetter("left", "right"),
    Conn16: attrgetter("left", "right"),
    Quant: lambda f: (f.body,),
}

# The node classes of each kind of formula.
PROPOSITIONAL = frozenset({Var, Const, Neg, Claw, Prod, Sum, Conn16})
RELATIONAL = frozenset({RAtom, Neg, Claw, Prod, Sum, Quant})
_KIND_NAMES = {PROPOSITIONAL: "propositional", RELATIONAL: "relational"}


def walk(formula, kinds: frozenset) -> Iterator:
    """Every node in preorder: each before its subformulas, left to right.

    A node whose class is not in `kinds` raises TypeError when the walk
    reaches it."""
    todo = [formula]
    pop = todo.pop
    while todo:
        f = pop()
        cls = type(f)
        if cls not in kinds:
            raise TypeError(f"not a {_KIND_NAMES[kinds]} formula: {f!r}")
        yield f
        children = SUBFORMULAS.get(cls)
        if children is not None:
            todo += children(f)[::-1]


def from_prefix(tokens: Iterable) -> PropFormula:
    """The formula whose preorder, read backwards, is `tokens`: Polish
    notation read right to left.  Each token is a finished subformula,
    `Neg`, or a binary node's constructor, which takes the two formulas
    after it in the preorder as its sides.  So each constructor takes its
    sides off a stack of the formulas built so far, the first side on top.
    Only that stack is held: `tokens` may be any iterator.  Tokens that
    spell no one formula raise: `IndexError` where a constructor finds too
    few formulas, `ValueError` where other than one is left at the end."""
    built: list = []
    for token in tokens:
        if token is Neg:
            built.append(Neg(built.pop()))
        elif callable(token):
            built.append(token(built.pop(), built.pop()))
        else:
            built.append(token)
    (formula,) = built
    return formula
