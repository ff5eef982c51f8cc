"""Peirce-Mitchell quantification over finite domains.

Sigma and Pi are sums and products in earnest: over a domain of size n,
Sigma_i b(i) expands to b(0) + ... + b(n-1) and Pi_i b(i) to the product,
folded left in index order.  Expansion atoms become propositional variables
named predicate_e1_..._ek (so l(1,0) at domain elements 1,0 is l_1_0).  The
row engine (truth._eval_masks) folds a quantifier as the chain of products
or sums it expands to, without expanding, for Tarskian evaluation in a
finite structure (its one-row case) and the first-witness satisfiability
search (a block of structures a pass).

Also here: the duplicate-an-element model extension (the finite
Loewenheim-Skolem-Tarski step upward), a Herbrand-flavored validity scan,
Mitchell's All/Some forms, the A/E/I/O syllogistic encodings, and Leibniz
indiscernibility of two elements.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import Optional

from . import errors, truth
from ._record import record
from .errors import LimitExceededError
from .formulas import (
    PI,
    RELATIONAL,
    SIGMA,
    SUBFORMULAS,
    Claw,
    Neg,
    Prod,
    PropFormula,
    Quant,
    RAtom,
    RelFormula,
    Sum,
    Var,
    ensure_closed,
    from_prefix,
    predicate_signature,
    walk,
)


class Structure(metaclass=record):
    """Finite relational structure: domain {0..n-1} plus predicate tables."""

    domain_size: int
    predicates: dict[str, tuple[int, frozenset[tuple[int, ...]]]]

    def __post_init__(self) -> None:
        if self.domain_size < 1:
            raise ValueError("domain must have at least one element")
        for name, (arity, rows) in self.predicates.items():
            for row in rows:
                if len(row) != arity:
                    raise ValueError(f"{name}: tuple {row} does not match arity {arity}")
                if any(not 0 <= x < self.domain_size for x in row):
                    raise ValueError(f"{name}: tuple {row} is outside the domain")

    def holds(self, predicate: str, elements: tuple[int, ...]) -> bool:
        arity, rows = self.predicates[predicate]
        if len(elements) != arity:
            raise ValueError(
                f"{predicate} has arity {arity}, got {len(elements)} elements"
            )
        return elements in rows


def structure_to_json(s: Structure) -> dict:
    return {
        "domain": s.domain_size,
        "predicates": {
            name: {"arity": arity, "true": [list(row) for row in sorted(rows)]}
            for name, (arity, rows) in sorted(s.predicates.items())
        },
    }


# --- expansion --------------------------------------------------------------


def atom_name(predicate: str, elements: tuple[int, ...]) -> str:
    return predicate + "".join(f"_{e}" for e in elements)


def _check_expansion(formula: RelFormula, n: int) -> None:
    """Refuse a domain of no elements, an open formula, and an expansion over
    n elements of more than MAX_EXPANSION_LEAVES atom occurrences; the row
    engine reads as many, so it bounds it too.

    `ensure_closed` counts the atoms under k quantifiers, each of which
    occurs n^k times.  Summed in ascending k, the sum stops at the first k
    that passes the bound: no deeper atom is raised to its power.
    """
    if n < 1:
        raise ValueError("domain must have at least one element")
    depths = ensure_closed(formula)
    leaves = 0
    for k in sorted(depths):
        leaves += depths[k] * n**k
        if leaves > errors.MAX_EXPANSION_LEAVES:
            raise LimitExceededError(
                f"expansion needs more than {errors.MAX_EXPANSION_LEAVES:,} atom occurrences"
            )


def _cells(formula: RelFormula, n: int) -> tuple[tuple, ...]:
    """The cells (predicate, elements) the expansion over a domain of size n
    reads, listed from the formula's atoms after every check, this one of the
    table limit last: the searches tabulate these cells, so at most
    MAX_TABLE_VARS of them.  Each index of an atom is bound by its own
    quantifier, which takes every element, so an atom reads one cell per
    assignment of elements to its distinct indices: l(i,i) reads (l, (d, d))
    for each d.  Those cells are distinct, so an atom takes at most
    MAX_TABLE_VARS + 1 steps."""
    limit = errors.MAX_TABLE_VARS
    cells: dict[tuple, None] = {}
    if n > limit:  # each atom's index is bound, so it reads n or more cells
        ensure_closed(formula)
    else:
        _check_expansion(formula, n)
        for f in walk(formula, RELATIONAL):
            if type(f) is RAtom:
                names = list(dict.fromkeys(f.indices))
                for elements in product(range(n), repeat=len(names)):
                    if len(cells) > limit:
                        break
                    cells[f.predicate, tuple(elements[names.index(x)] for x in f.indices)] = None
    if n > limit or len(cells) > limit:
        raise LimitExceededError(f"expansion needs more than {limit} distinct atoms")
    return tuple(cells)


def expand(formula: RelFormula, n: int) -> PropFormula:
    """Eliminate quantifiers over a domain of size n by sum/product folding."""
    _check_expansion(formula, n)
    atoms: dict[tuple, Var] = {}  # each cell's variable, named on its first read
    # The expansion in prefix order: each atom as its cell's variable, each
    # quantifier as the n - 1 sums or products of its left fold, then its body
    # once per element in index order, under a `(var, element)` pair binding
    # the index.  A closed formula binds no index twice on a path: one dict.
    binds: dict[str, int] = {}
    tokens, todo = [], [formula]
    while todo:
        f = todo.pop()
        cls = type(f)
        if cls is RAtom:
            cell = f.predicate, tuple(map(binds.__getitem__, f.indices))
            if cell not in atoms:
                atoms[cell] = Var(atom_name(*cell))
            tokens.append(atoms[cell])
        elif cls is tuple:
            binds[f[0]] = f[1]
        elif cls is Quant:
            (body,) = SUBFORMULAS[cls](f)
            tokens += [Prod if f.kind == PI else Sum] * (n - 1)
            for d in reversed(range(n)):
                todo += (body, (f.var, d))
        else:
            tokens.append(cls)
            todo += SUBFORMULAS[cls](f)[::-1]
    return from_prefix(reversed(tokens))


# --- evaluation and search ---------------------------------------------------


def eval_in(formula: RelFormula, s: Structure) -> bool:
    """Tarskian truth of a closed formula in a finite structure.

    The one-row case of the row engine: the cell of each true tuple is the
    one-row mask 1 and every other cell 0, and Pi and Sigma are chains of
    products and sums of their body over the domain, each link with the
    short-circuit of a product or a sum.  The work is the true tuples plus
    the atoms read, not the cells.
    """
    ensure_closed(formula)
    for name, arity in predicate_signature(formula).items():
        if name not in s.predicates:
            raise ValueError(f"structure does not interpret predicate {name!r}")
        if s.predicates[name][0] != arity:
            raise ValueError(
                f"predicate {name!r}: formula uses arity {arity}, "
                f"structure has {s.predicates[name][0]}"
            )
    true = defaultdict(int, {(name, row): 1 for name, (_, rows) in s.predicates.items()
                             for row in rows})
    return bool(truth._eval_masks(formula, true, 1, s.domain_size))


def sat_search(formula: RelFormula, n: int) -> Optional[Structure]:
    """First satisfying structure in enumeration order, or None.

    Order: predicates in first-use order, tuples lexicographic, absent before
    present, first cell slowest: the truth-table row order of the cells, each
    bound to the complement of its row mask, which the row engine evaluates
    the formula on, a block at a time.  Only the cells the expansion reads
    are enumerated: the others never change the formula's value, so they are
    absent in the first model of the full order too.  The model is checked
    with eval_in on the same engine, so the check catches a wrong decoding
    of the row.
    """
    signature = predicate_signature(formula)
    rank = {name: i for i, name in enumerate(signature)}
    cells = sorted(_cells(formula, n), key=lambda c: (rank[c[0]], c[1]))
    found = truth._first_row(cells, lambda env, full: truth._eval_masks(
        formula, {cell: full ^ mask for cell, mask in env.items()}, full, n))
    if found is None:
        return None
    witness = Structure(n, {
        name: (arity, frozenset(row for (p, row), v in found.items() if p == name and not v))
        for name, arity in signature.items()
    })
    if not eval_in(formula, witness):
        raise RuntimeError("search postcondition failed: first model does not satisfy")
    return witness


def extend_model(formula: RelFormula, s: Structure) -> Structure:
    """Grow a satisfying structure by one element that duplicates element 0.

    Every true tuple is mirrored with the new element substituted for 0 in
    each combination of positions, so the newcomer is indiscernible from 0
    and satisfaction is preserved (checked; failure is an internal error).
    The check at n + 1 elements is bounded as a search there would be.
    """
    try:
        _check_expansion(formula, s.domain_size + 1)
    except LimitExceededError as err:
        raise LimitExceededError(f"extension to size {s.domain_size + 1}: {err}") from None
    if not eval_in(formula, s):
        raise ValueError("extend_model needs a structure that satisfies the formula")
    fresh = s.domain_size
    bigger = Structure(fresh + 1, {
        name: (arity, frozenset(row for row in product(range(fresh + 1), repeat=arity)
                                if tuple(0 if x == fresh else x for x in row) in rows))
        for name, (arity, rows) in s.predicates.items()
    })
    if not eval_in(formula, bigger):
        raise RuntimeError("extension postcondition failed: enlarged model does not satisfy")
    return bigger


class SatScanReport(metaclass=record):
    """Per-size satisfiability verdicts plus verified extension witnesses."""

    verdicts: tuple[tuple[int, Optional[Structure]], ...]
    extensions: tuple[tuple[int, Structure], ...]


def sat_scan(formula: RelFormula, max_size: int) -> SatScanReport:
    verdicts = []
    extensions = []
    for size in range(1, max_size + 1):
        try:
            witness = sat_search(formula, size)
        except LimitExceededError as err:
            raise LimitExceededError(f"size {size}: {err}") from None
        verdicts.append((size, witness))
        if witness is not None:
            extensions.append((size, extend_model(formula, witness)))
    return SatScanReport(tuple(verdicts), tuple(extensions))


def herbrand_scan(formula: RelFormula, max_size: int) -> Optional[tuple[int, PropFormula]]:
    """Least domain size whose expansion is a propositional tautology: the
    first at which the negation has no model, found over the cells it reads."""
    for size in range(1, max_size + 1):
        try:
            refuted = sat_search(Neg(formula), size) is None
        except LimitExceededError as err:
            raise LimitExceededError(f"size {size}: {err}") from None
        if refuted:
            return size, expand(formula, size)
    return None


# --- classic forms ------------------------------------------------------------


def mitchell(kind: str, predicate: str) -> RelFormula:
    """Mitchell's 1883 forms: All U is F, Some U is F."""
    if kind == "All":
        return Quant(PI, "i", RAtom(predicate, ("i",)))
    if kind == "Some":
        return Quant(SIGMA, "i", RAtom(predicate, ("i",)))
    raise ValueError(f"kind must be 'All' or 'Some', got {kind!r}")


def aeio(form: str, subject: str, predicate: str) -> RelFormula:
    """Categorical forms over unary predicates, claw-encoded:

    A: Pi_i (s_i -< p_i)    E: Pi_i (s_i -< not p_i)
    I: Sigma_i (s_i p_i)    O: Sigma_i (s_i not p_i)
    """
    s = RAtom(subject, ("i",))
    p = RAtom(predicate, ("i",))
    if form == "A":
        return Quant(PI, "i", Claw(s, p))
    if form == "E":
        return Quant(PI, "i", Claw(s, Neg(p)))
    if form == "I":
        return Quant(SIGMA, "i", Prod(s, p))
    if form == "O":
        return Quant(SIGMA, "i", Prod(s, Neg(p)))
    raise ValueError(f"form must be one of A, E, I, O, got {form!r}")


def indiscernible(s: Structure, i: int, j: int) -> bool:
    """Leibniz identity 1_ij: no predicate separates i from j in any position
    of any tuple."""
    for e in (i, j):
        if not 0 <= e < s.domain_size:
            raise ValueError(f"element {e} is outside the domain")
    for name, (arity, rows) in s.predicates.items():
        for row in product(range(s.domain_size), repeat=arity):
            for pos in range(arity):
                with_i = row[:pos] + (i,) + row[pos + 1 :]
                with_j = row[:pos] + (j,) + row[pos + 1 :]
                if (with_i in rows) != (with_j in rows):
                    return False
    return True
