"""Peirce's indirect method, the X-frame icons, ANF and Boole's congruence check.

The methods of MS 527 and MS 547 (assume the formula false and propagate),
the icons of the sixteen binary connectives of MS 431 (whose table is in
`formulas`), algebraic normal form over GF(2), and Boole's
substitution-congruence check, each on the row engine of `truth`.  Only
`taut --method indirect`, `connectives` and `anf` run them, so no other
command compiles this module; `truth` still resolves each of its names.
"""

from __future__ import annotations

from typing import Mapping, Optional

from . import errors
from ._record import record
from .errors import LimitExceededError
from .formulas import (
    EQUIVALENCE_INDEX,
    SUBFORMULAS,
    Conn16,
    Const,
    Neg,
    PropFormula,
    Var,
    _DECIDING,
    _rows,
    connective_vector,
    free_vars,
    substitute,
)
from .truth import (
    TruthTable,
    eval2,
    find_counterexample,
    row_bits,
    row_masks,
    table_over,
    truth_table,
)


# --- indirect method ------------------------------------------------------


class Tautology(metaclass=record):
    """No falsifying assignment exists; trace is the forced-assignment run
    that ends in a contradiction (last step re-forces an earlier variable)."""

    trace: tuple[tuple[str, bool], ...]


class Falsified(metaclass=record):
    counterexample: dict[str, bool]


def indirect_falsify(formula: PropFormula) -> Tautology | Falsified:
    """MS 527's indirect method: assume the formula false and propagate.

    Claw false forces antecedent v and consequent f; Neg flips the goal;
    Prod true / Sum false force both sides; the dual cases branch.  The
    result is the lexicographically least falsifying completion (canonical
    variable order, v before f, unforced variables defaulting to v), or a
    Tautology carrying the shortest contradiction trace: among the shortest,
    the one reached with the fewest branchings, then the first in branch
    order.

    Up to MAX_TABLE_VARS variables the bit-parallel row search decides.
    Every falsifying row lies on an open branch whose completion is no
    greater, so the first falsifying row is the answer without any search;
    for a tautology the depth-first search only looks for the trace.  It
    skips a state that can at best tie the best trace found (a closure sets
    one step past its trail), and a branch point (node, wanted value, rest
    of the goals, assignment) met before at no more branchings, whose
    closures come again later.  Above that, it searches the whole tree.
    """
    order = free_vars(formula)
    known_tautology = False
    if len(order) <= errors.MAX_TABLE_VARS:
        counterexample = find_counterexample(formula)
        if counterexample is not None:
            return Falsified(counterexample)
        known_tautology = True
    # One assignment, and the trail of the names it set, in order.  A state
    # holds its goals as (node, want, rest) cells, the trail length it resumes
    # at, and its branchings.  Marks only grow up the stack, so undoing down to
    # a state's mark restores its assignment, and a pruned state needs no undo.
    assignment: dict[str, bool] = {}
    trail: list[str] = []
    stack: list[tuple[Optional[tuple], int, int]] = [((formula, False, None), 0, 0)]
    best, best_trace = (float("inf"), 0), ()  # (len(trace), branchings) of best_trace
    least, least_assignment = None, {}  # the key and assignment of the least completion
    # A completion's key has bit rank[name] set where it assigns f, the first
    # variable highest, so keys order completions as their rows do.
    rank = {name: i for i, name in enumerate(reversed(order))}
    # `held` has bit 2 * rank[name] + value set per name on the trail; `met`
    # maps a branch point to its least branchings and the goals whose id its
    # key holds, so the id is not reused.  Above the table limit both idle.
    weight = {name: 1 << 2 * i if known_tautology else 0 for name, i in rank.items()}
    held, met = 0, {}
    states = 0

    while stack:
        goals, mark, level = stack.pop()
        if known_tautology and (mark + 1, level) >= best:
            continue  # every trace below here is longer, or as long and no shallower
        states += 1
        if states > errors.MAX_INDIRECT_STATES:
            raise LimitExceededError(
                f"indirect search exceeded its state cap of {errors.MAX_INDIRECT_STATES:,} states"
            )
        while len(trail) > mark:
            name = trail.pop()
            held ^= weight[name] << assignment.pop(name)
        alternatives: list = []
        clash = None
        while goals is not None:
            node, want, goals = goals
            cls = type(node)
            if cls is Var or cls is Const:  # a constant is a variable assigned from the start
                name = node.name
                prior = assignment.get(name) if cls is Var else node.value
                if prior is None:
                    assignment[name] = want
                    trail.append(name)
                    held |= weight[name] << want
                elif prior != want:
                    clash = (name, want)
                    break
            elif cls is Neg:
                goals = (node.inner, not want, goals)
            elif cls in _DECIDING:
                (left, right), (on_left, on_right) = SUBFORMULAS[cls](node), _DECIDING[cls]
                if want == on_right:  # either side alone gives this value
                    alternatives = [((left, on_left),), ((right, on_right),)]
                    break
                goals = (left, not on_left, (right, not on_right, goals))  # both are forced
            else:  # a Conn16: `free_vars` above let no other class through
                alternatives = [tuple(zip(SUBFORMULAS[cls](node), row))
                                for row in _rows(node.index, want)]
                if not alternatives:  # a constant connective asked for the other value
                    clash = (Const(not want).name, want)
                break
        else:  # an open branch: its completion sets the unforced variables v
            key = sum(1 << rank[name] for name, value in assignment.items() if not value)
            if least is None or key < least:
                least, least_assignment = key, dict(assignment)
            continue
        if not alternatives:  # the branch closed in a contradiction
            if (len(trail) + 1, level) < best:
                best = (len(trail) + 1, level)
                best_trace = tuple((name, assignment[name]) for name in trail) + (clash,)
            continue
        if known_tautology:
            point = (id(node), want, id(goals), held)
            if point in met and met[point][0] <= level:
                continue  # its closures come again, no shallower and later in branch order
            met[point] = (level, goals)
        for alt in reversed(alternatives):  # so that they pop in order
            cell = goals
            for node, want in reversed(alt):
                cell = (node, want, cell)
            stack.append((cell, len(trail), level + 1))

    if least is not None:
        complete = {name: least_assignment.get(name, True) for name in order}
        if eval2(formula, complete):
            raise RuntimeError("indirect method produced a non-falsifying leaf")
        return Falsified(complete)
    return Tautology(best_trace)


# --- the X-frame icons of the sixteen connectives -------------------------


def xframe(index: int) -> str:
    """3x3 icon for connective `index`: the X is the frame, and a corner
    stroke is drawn exactly where the truth vector is false (NW=(v,v),
    NE=(v,f), SW=(f,v), SE=(f,f)).  Column 1 is fully closed, 16 fully open.
    """
    vec = connective_vector(index)
    nw = " " if vec[0] else "\\"
    ne = " " if vec[1] else "/"
    sw = " " if vec[2] else "/"
    se = " " if vec[3] else "\\"
    return f"{nw} {ne}\n X \n{sw} {se}"


# --- algebraic normal form -------------------------------------------------


class AnfPoly(metaclass=record):
    """XOR of AND-monomials over GF(2); the empty monomial is the constant 1.

    The monomial set is unique for a given truth function (Zhegalkin form),
    and held in print order: names sorted, then monomials by (length, names).
    """

    monomials: tuple[tuple[str, ...], ...]

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        acc = False
        for monomial in self.monomials:
            acc ^= all(assignment[name] for name in monomial)
        return acc

    def __str__(self) -> str:
        return " + ".join("".join(m) or "1" for m in self.monomials) or "0"


def anf(formula: PropFormula) -> AnfPoly:
    """Zhegalkin polynomial: the Moebius (XOR) transform of `truth_table`'s
    mask, in canonical row order.

    Row r's v variables are those whose bit is clear in r, so step i xors
    into each row where variable i is v its partner where it is f; bit r is
    then the coefficient of the product of row r's v variables, and the set
    bits are found by `str.find` over the coefficients' text."""
    table = truth_table(formula)
    names, coeff = table.variables, table.mask
    n = len(names)
    for i, v_rows in enumerate(row_masks(n)):
        coeff ^= coeff >> (1 << (n - 1 - i)) & v_rows
    bits, rows = row_bits(coeff, 1 << n), [-1]
    while (r := bits.find("1", rows[-1] + 1)) >= 0:
        rows.append(r)
    monomials = sorted(
        (tuple(sorted(name for i, name in enumerate(names) if not r >> (n - 1 - i) & 1))
         for r in rows[1:]),
        key=lambda m: (len(m), m),
    )
    return AnfPoly(tuple(monomials))


# --- Boole's congruence rule ----------------------------------------------


class CongruenceReport(metaclass=record):
    """Evidence that semantically equal terms stay equal inside a context."""

    operands_equal: bool
    operands_witness: Optional[dict[str, bool]]
    contexts_equal: bool
    contexts_witness: Optional[dict[str, bool]]
    plugged_s_table: TruthTable
    plugged_t_table: TruthTable


def merged_vars(first: PropFormula, second: PropFormula) -> tuple[str, ...]:
    return tuple(free_vars(Conn16(EQUIVALENCE_INDEX, first, second)))


def semantic_difference(
    first: PropFormula, second: PropFormula
) -> Optional[dict[str, bool]]:
    """First assignment (canonical order, merged variables) where the two
    formulas disagree (their equivalence is false), or None."""
    return find_counterexample(Conn16(EQUIVALENCE_INDEX, first, second))


def congruence_check(
    s: PropFormula, t: PropFormula, context: PropFormula, hole: str
) -> CongruenceReport:
    """Check Boole's rule: from s = t derive context(s) = context(t).

    The plugged contexts hold every variable of s and t, so their tables,
    over the merged variables, check the table limit before the operands'
    scan.  The contexts' witness is the first row where the two tables
    differ: the row `semantic_difference` of the contexts would find."""
    if hole not in free_vars(context):
        raise ValueError(f"hole {hole!r} does not occur in the context")
    plugged_s = substitute(context, hole, s)
    plugged_t = substitute(context, hole, t)
    shared = merged_vars(plugged_s, plugged_t)
    plugged_s_table = table_over(plugged_s, shared)
    plugged_t_table = table_over(plugged_t, shared)
    operands_witness = semantic_difference(s, t)
    differ = plugged_s_table.mask ^ plugged_t_table.mask
    first = (differ & -differ).bit_length() - 1
    contexts_witness = plugged_s_table.assignment(first) if differ else None
    return CongruenceReport(
        operands_equal=operands_witness is None,
        operands_witness=operands_witness,
        contexts_equal=contexts_witness is None,
        contexts_witness=contexts_witness,
        plugged_s_table=plugged_s_table,
        plugged_t_table=plugged_t_table,
    )
