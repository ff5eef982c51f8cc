"""Formula syntax trees shared by every other module.

Propositional trees use Peirce's connective set: the claw (illation, his
material implication), negation, Boolean product and sum, the two constants,
and a generalized binary connective addressed by its column index in the
sixteen-connective table of MS 431.  Relational trees add indexed predicate
atoms and Peirce's Pi/Sigma quantifiers over index variables, joined by the
same connective nodes.

All nodes are frozen records (`_record.record`): immutable, equal when they
are of the same class with equal fields, and hashed by their field tuple.
"""

from __future__ import annotations

import re
from functools import partial
from operator import attrgetter
from typing import Iterator

from ._record import record

# Single letter, or an expansion atom such as l_0_1 produced by quantifier
# elimination (predicate name + underscore-joined element indices).  The four
# concrete grammars only ever parse the single-letter form.
_VAR_NAME = re.compile(r"[a-z]|[a-z][a-z0-9]*(?:_[0-9]+)+")

_PREDICATE_NAME = re.compile(r"[a-z][a-z0-9]*")


class PropFormula:
    """Base class for propositional formula nodes."""

    __hash__ = None  # each concrete node class is a frozen record with its own


@record(frozen=True)
class Var(PropFormula):
    name: str

    def __post_init__(self) -> None:
        if not _VAR_NAME.fullmatch(self.name):
            raise ValueError(f"bad variable name: {self.name!r}")


@record(frozen=True)
class Const(PropFormula):
    # True is verum (v), False is falsum (f); constants are never variables.
    value: bool


@record(frozen=True)
class Neg(PropFormula):
    inner: PropFormula


@record(frozen=True)
class Claw(PropFormula):
    """Illation a -< b: false exactly when the antecedent holds and the
    consequent fails."""

    antecedent: PropFormula
    consequent: PropFormula


@record(frozen=True)
class Prod(PropFormula):
    left: PropFormula
    right: PropFormula


@record(frozen=True)
class Sum(PropFormula):
    left: PropFormula
    right: PropFormula


@record(frozen=True)
class Conn16(PropFormula):
    """Binary connective number `index` (1..16) from the MS 431 table."""

    index: int
    left: PropFormula
    right: PropFormula

    def __post_init__(self) -> None:
        if not 1 <= self.index <= 16:
            raise ValueError(f"connective index out of range: {self.index}")


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
    return from_prefix(tokens)


# --- relational formulas -------------------------------------------------

PI = "Pi"
SIGMA = "Sigma"


class RelFormula:
    """Base class for the relational leaves: predicate atoms and quantifiers."""

    __hash__ = None


@record(frozen=True)
class RAtom(RelFormula):
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


@record(frozen=True)
class Quant(RelFormula):
    """Peirce quantifier: Pi is the product (every element), Sigma the sum
    (some element)."""

    kind: str
    var: str
    body: RelFormula

    def __post_init__(self) -> None:
        if self.kind not in (PI, SIGMA):
            raise ValueError(f"quantifier kind must be {PI!r} or {SIGMA!r}")


_UNBIND = object()  # on `ensure_closed`'s stack above an index whose scope ends


def ensure_closed(formula: RelFormula) -> None:
    """Reject free or shadowed index variables.

    Every atom index must be bound by exactly one enclosing quantifier;
    the public relational operations only accept closed formulas.
    """
    bound: set[str] = set()  # the indices of the quantifiers above the node
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
            continue
        if cls not in RELATIONAL:
            raise TypeError(f"not a relational formula: {f!r}")
        if cls is Quant:
            if f.var in bound:
                raise ValueError(f"index variable shadowed: {f.var!r}")
            bound.add(f.var)
            todo += (f.var, _UNBIND)
        todo += SUBFORMULAS[cls](f)[::-1]


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


def walk(formula, kinds: frozenset | None = None) -> Iterator:
    """Every node in preorder: each before its subformulas, left to right.

    A node whose class is not in `kinds` raises TypeError when the walk
    reaches it; without `kinds`, a non-formula is yielded as a leaf."""
    todo = [formula]
    pop = todo.pop
    while todo:
        f = pop()
        cls = type(f)
        if kinds is not None and cls not in kinds:
            raise TypeError(f"not a {_KIND_NAMES[kinds]} formula: {f!r}")
        yield f
        children = SUBFORMULAS.get(cls)
        if children is not None:
            todo += children(f)[::-1]


def from_prefix(tokens: list) -> PropFormula:
    """The formula whose preorder is `tokens`, read as Polish notation is:
    each token is a finished subformula, `Neg`, or a binary node's
    constructor, which takes the two formulas after it as its sides.  Read
    right to left, each constructor takes its sides off a stack, the first
    side on top."""
    built: list = []
    for token in reversed(tokens):
        if token is Neg:
            built.append(Neg(built.pop()))
        elif callable(token):
            built.append(token(built.pop(), built.pop()))
        else:
            built.append(token)
    return built[0]
