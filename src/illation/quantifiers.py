"""Peirce-Mitchell quantification over finite domains.

Sigma and Pi are sums and products in earnest: over a domain of size n,
Sigma_i b(i) expands to b(0) + ... + b(n-1) and Pi_i b(i) to the product,
folded left in index order.  Expansion atoms become propositional variables
named predicate_e1_..._ek (so l(1,0) at domain elements 1,0 is l_1_0).  The
row engine (truth._eval_masks) folds the quantifiers the same way without
expanding, for Tarskian evaluation in a finite structure (its one-row case)
and the first-witness satisfiability search (a block of structures a pass).

Also here: the duplicate-an-element model extension (the finite
Loewenheim-Skolem-Tarski step upward), a Herbrand-flavored validity scan,
Mitchell's All/Some forms, the A/E/I/O syllogistic encodings, and Leibniz
indiscernibility of two elements.
"""

from __future__ import annotations

import os
from collections import defaultdict
from itertools import product
from typing import Optional

from . import truth
from ._record import record
from .errors import LimitExceededError
from .formulas import (
    PI,
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
)

DEFAULT_MAX_ATOMS = 16
MAX_ATOMS_ENV = "ILLATION_MAX_ATOMS"

# The most atom occurrences an expansion or a search's evaluation may have:
# 2^16 take ~0.6 s and ~37 MB to expand, and each quantifier multiplies them by n.
MAX_EXPANSION_LEAVES = 1 << 16


def max_atoms_limit(override: Optional[int] = None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(MAX_ATOMS_ENV)
    if raw is None:
        return DEFAULT_MAX_ATOMS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_ATOMS_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{MAX_ATOMS_ENV} must be positive, got {value}")
    return value


@record()
class Structure:
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


def _json_int(value: object, field: str) -> int:
    if type(value) is not int:
        raise ValueError(f"structure JSON: {field} must be an integer, got {value!r}")
    return value


def _json_typed(value: object, kind: type, field: str):
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise ValueError(f"structure JSON: {field} must be {noun}, got {value!r}")
    return value


def structure_from_json(data: dict) -> Structure:
    if not isinstance(data, dict) or "domain" not in data:
        raise ValueError("structure JSON needs a 'domain' field")
    predicates = {}
    for name, body in _json_typed(data.get("predicates", {}), dict, "predicates").items():
        _json_typed(body, dict, f"predicate {name}")
        if "arity" not in body:
            raise ValueError(f"structure JSON: predicate {name} needs an 'arity' field")
        cell = f"{name} tuple element"
        rows = frozenset(
            tuple(_json_int(x, cell) for x in _json_typed(row, list, f"{name} tuple"))
            for row in _json_typed(body.get("true", []), list, f"{name} true")
        )
        predicates[name] = (_json_int(body["arity"], f"{name} arity"), rows)
    return Structure(_json_int(data["domain"], "domain"), predicates)


# --- expansion --------------------------------------------------------------


def atom_name(predicate: str, elements: tuple[int, ...]) -> str:
    return predicate + "".join(f"_{e}" for e in elements)


def decode_atom(name: str) -> tuple[str, tuple[int, ...]]:
    head, *tail = name.split("_")
    if not tail:
        raise ValueError(f"{name!r} is not an expansion atom")
    return head, tuple(int(piece) for piece in tail)


def _check_leaves(formula: RelFormula, n: int) -> None:
    """Refuse an expansion over n elements of more than MAX_EXPANSION_LEAVES
    atom occurrences; the row engine reads as many, so it bounds it too."""
    # Each atom occurs n^k times in the expansion, k the quantifiers above it.
    leaves, todo = 0, [(formula, 1)]
    while todo:
        f, copies = todo.pop()
        cls = type(f)
        if cls is RAtom:
            leaves += copies
        else:  # every subformula holds an atom, so `copies` bounds the leaves too
            copies *= n if cls is Quant else 1
            todo += [(g, copies) for g in SUBFORMULAS[cls](f)]
        if max(leaves, copies) > MAX_EXPANSION_LEAVES:
            raise LimitExceededError(
                f"expansion needs more than {MAX_EXPANSION_LEAVES:,} atom occurrences"
            )


def expand(formula: RelFormula, n: int, max_atoms: Optional[int] = None) -> PropFormula:
    """Eliminate quantifiers over a domain of size n by sum/product folding."""
    if n < 1:
        raise ValueError("domain must have at least one element")
    ensure_closed(formula)
    limit = max_atoms_limit(max_atoms)
    if n > limit:  # each atom's index is bound, so it expands to n or more atoms
        raise LimitExceededError(f"expansion needs more than {limit} distinct atoms")
    _check_leaves(formula, n)
    seen: dict[tuple, Var] = {}  # one Var per cell (predicate, elements)
    # A closed formula binds no index twice on a path, so one dict serves:
    # a `(var, element)` pair above each body copy on the stack binds it.
    binds: dict[str, int] = {}
    # The expansion in prefix order: each atom as its variable, each
    # quantifier as the n - 1 sums or products of its left fold followed by
    # its body once per element, in index order.
    tokens: list = []
    todo: list = [formula]
    while todo:
        f = todo.pop()
        cls = type(f)
        if cls is RAtom:
            cell = (f.predicate, tuple(map(binds.__getitem__, f.indices)))
            atom = seen.get(cell)
            if atom is None:
                atom = seen[cell] = Var(atom_name(*cell))
                if len(seen) > limit:
                    raise LimitExceededError(
                        f"expansion needs more than {limit} distinct atoms"
                    )
            tokens.append(atom)
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
    return from_prefix(tokens)


def assignment_from_structure(s: Structure, variables: list[str]) -> dict[str, bool]:
    """Read expansion atoms' truth values off a structure."""
    out = {}
    for name in variables:
        predicate, elements = decode_atom(name)
        out[name] = s.holds(predicate, elements)
    return out


# --- evaluation and search ---------------------------------------------------


def eval_in(formula: RelFormula, s: Structure) -> bool:
    """Tarskian truth of a closed formula in a finite structure.

    The one-row case of the row engine: the cell of each true tuple is the
    one-row mask 1 and every other cell 0, and Pi and Sigma fold their body
    over the domain as a product and a sum, with the short-circuit of each.
    The work is the true tuples plus the atoms read, not the cells.
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


def sat_search(
    formula: RelFormula, n: int, max_atoms: Optional[int] = None
) -> Optional[Structure]:
    """First satisfying structure in enumeration order, or None.

    Order: predicates in first-use order, tuples lexicographic, absent before
    present, first cell slowest: the truth-table row order of the cells, each
    bound to the complement of its row mask, which the row engine evaluates
    the formula on, a block at a time.  The model is checked with eval_in on
    the same engine, so the check catches a wrong decoding of the row.
    """
    if n < 1:
        raise ValueError("domain must have at least one element")
    ensure_closed(formula)
    limit = max_atoms_limit(max_atoms)
    signature = predicate_signature(formula)
    count = sum(n**arity for arity in signature.values())
    if count > limit:
        raise LimitExceededError(f"{count} interpretation cells exceed the limit of {limit}")
    _check_leaves(formula, n)
    cells = tuple((name, row) for name, arity in signature.items()
                  for row in product(range(n), repeat=arity))
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
        _check_leaves(formula, s.domain_size + 1)
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


@record(frozen=True)
class SatScanReport:
    """Per-size satisfiability verdicts plus verified extension witnesses."""

    verdicts: tuple[tuple[int, Optional[Structure]], ...]
    extensions: tuple[tuple[int, Structure], ...]


def sat_scan(
    formula: RelFormula, max_size: int, max_atoms: Optional[int] = None
) -> SatScanReport:
    verdicts = []
    extensions = []
    for size in range(1, max_size + 1):
        try:
            witness = sat_search(formula, size, max_atoms)
        except LimitExceededError as err:
            raise LimitExceededError(f"size {size}: {err}") from None
        verdicts.append((size, witness))
        if witness is not None:
            extensions.append((size, extend_model(formula, witness)))
    return SatScanReport(tuple(verdicts), tuple(extensions))


def herbrand_scan(
    formula: RelFormula, max_size: int, max_atoms: Optional[int] = None
) -> Optional[tuple[int, PropFormula]]:
    """Least domain size whose expansion is a propositional tautology."""
    for size in range(1, max_size + 1):
        try:
            expansion = expand(formula, size, max_atoms)
        except LimitExceededError as err:
            raise LimitExceededError(f"size {size}: {err}") from None
        if truth.find_counterexample(expansion) is None:
            return size, expansion
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
