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

from ._record import record

# Single letter, or an expansion atom such as l_0_1 produced by quantifier
# elimination (predicate name + underscore-joined element indices).  The four
# concrete grammars only ever parse the single-letter form.
_VAR_NAME = re.compile(r"^(?:[a-z]|[a-z][a-z0-9]*(?:_[0-9]+)+)$")

_PREDICATE_NAME = re.compile(r"^[a-z][a-z0-9]*$")


class PropFormula:
    """Base class for propositional formula nodes."""

    __hash__ = None  # each concrete node class is a frozen record with its own


@record(frozen=True)
class Var(PropFormula):
    name: str

    def __post_init__(self) -> None:
        if not _VAR_NAME.match(self.name):
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
    seen: dict[str, None] = {}

    def walk(f: PropFormula) -> None:
        if isinstance(f, Var):
            seen.setdefault(f.name, None)
        elif isinstance(f, Const):
            pass
        elif isinstance(f, Neg):
            walk(f.inner)
        elif isinstance(f, Claw):
            walk(f.antecedent)
            walk(f.consequent)
        elif isinstance(f, (Prod, Sum)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, Conn16):
            walk(f.left)
            walk(f.right)
        else:
            raise TypeError(f"not a propositional formula: {f!r}")

    walk(formula)
    return list(seen)


def substitute(context: PropFormula, hole: str, filler: PropFormula) -> PropFormula:
    """Replace every occurrence of the variable `hole` with `filler`."""
    if isinstance(context, Var):
        return filler if context.name == hole else context
    if isinstance(context, Const):
        return context
    if isinstance(context, Neg):
        return Neg(substitute(context.inner, hole, filler))
    if isinstance(context, Claw):
        return Claw(
            substitute(context.antecedent, hole, filler),
            substitute(context.consequent, hole, filler),
        )
    if isinstance(context, Prod):
        return Prod(
            substitute(context.left, hole, filler),
            substitute(context.right, hole, filler),
        )
    if isinstance(context, Sum):
        return Sum(
            substitute(context.left, hole, filler),
            substitute(context.right, hole, filler),
        )
    if isinstance(context, Conn16):
        return Conn16(
            context.index,
            substitute(context.left, hole, filler),
            substitute(context.right, hole, filler),
        )
    raise TypeError(f"not a propositional formula: {context!r}")


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
        if not _PREDICATE_NAME.match(self.predicate):
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


def ensure_closed(formula: RelFormula) -> None:
    """Reject free or shadowed index variables.

    Every atom index must be bound by exactly one enclosing quantifier;
    the public relational operations only accept closed formulas.
    """

    def walk(f: RelFormula, bound: frozenset[str]) -> None:
        if isinstance(f, RAtom):
            for ix in f.indices:
                if ix not in bound:
                    raise ValueError(f"free index variable: {ix!r}")
        elif isinstance(f, Neg):
            walk(f.inner, bound)
        elif isinstance(f, Claw):
            walk(f.antecedent, bound)
            walk(f.consequent, bound)
        elif isinstance(f, (Prod, Sum)):
            walk(f.left, bound)
            walk(f.right, bound)
        elif isinstance(f, Quant):
            if f.var in bound:
                raise ValueError(f"index variable shadowed: {f.var!r}")
            walk(f.body, bound | {f.var})
        else:
            raise TypeError(f"not a relational formula: {f!r}")

    walk(formula, frozenset())


def predicate_signature(formula: RelFormula) -> dict[str, int]:
    """Predicate arities in first-occurrence order; arity clashes are errors."""
    sig: dict[str, int] = {}

    def walk(f: RelFormula) -> None:
        if isinstance(f, RAtom):
            arity = len(f.indices)
            if sig.setdefault(f.predicate, arity) != arity:
                raise ValueError(
                    f"predicate {f.predicate!r} used with arities "
                    f"{sig[f.predicate]} and {arity}"
                )
        elif isinstance(f, Neg):
            walk(f.inner)
        elif isinstance(f, Claw):
            walk(f.antecedent)
            walk(f.consequent)
        elif isinstance(f, (Prod, Sum)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, Quant):
            walk(f.body)
        else:
            raise TypeError(f"not a relational formula: {f!r}")

    walk(formula)
    return sig
