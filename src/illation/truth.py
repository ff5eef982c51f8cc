"""Bivalent truth-functional machinery.

Covers direct truth tables in Peirce's canonical row order, the indirect
(falsification) method of MS 527 and MS 547, the sixteen binary connectives
of MS 431 with their X-frame icons, algebraic normal form over GF(2), and
Boole's substitution-congruence check.

Truth values are Python bools: True is v (verum), False is f (falsum).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Mapping, Optional

from .errors import LimitExceededError, MissingVariableError
from .formulas import (
    Claw,
    Conn16,
    Const,
    Neg,
    Prod,
    PropFormula,
    Sum,
    Var,
    free_vars,
    substitute,
)

MAX_TABLE_VARS = 16

# Counterexample and difference searches scan rows in blocks of 2^BLOCK_BITS,
# so a formula falsified early costs one block rather than the whole table.
BLOCK_BITS = 10

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

# The claw's own vector (v,f,v,v) sits in column 13; plain equivalence
# (v,f,f,v) in column 8.
CLAW_INDEX = 13
EQUIVALENCE_INDEX = 8


def spell(value: bool) -> str:
    return "v" if value else "f"


def eval2(formula: PropFormula, assignment: Mapping[str, bool]) -> bool:
    """Evaluate under a bivalent assignment; unknown variables are errors."""
    if isinstance(formula, Var):
        try:
            return assignment[formula.name]
        except KeyError:
            raise MissingVariableError(formula.name) from None
    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Neg):
        return not eval2(formula.inner, assignment)
    if isinstance(formula, Claw):
        return (not eval2(formula.antecedent, assignment)) or eval2(
            formula.consequent, assignment
        )
    if isinstance(formula, Prod):
        return eval2(formula.left, assignment) and eval2(formula.right, assignment)
    if isinstance(formula, Sum):
        return eval2(formula.left, assignment) or eval2(formula.right, assignment)
    if isinstance(formula, Conn16):
        row = _row_of(
            eval2(formula.left, assignment), eval2(formula.right, assignment)
        )
        return CONNECTIVE_VECTORS[formula.index][row]
    raise TypeError(f"not a propositional formula: {formula!r}")


def _row_of(left: bool, right: bool) -> int:
    return (0 if left else 2) + (0 if right else 1)


def _check_table_limit(count: int) -> None:
    if count > MAX_TABLE_VARS:
        raise LimitExceededError(
            f"{count} variables exceed the {MAX_TABLE_VARS}-variable table limit"
        )


# --- the bit-parallel engine ----------------------------------------------
#
# A truth table is one int: bit r holds the value in row r (Knuth, TAOCP 4A
# 7.1.1).  Each variable is the mask of the rows where it is v, and one pass
# over the tree with & | ^ evaluates every row at once.


def row_masks(count: int) -> list[int]:
    """Row masks of `count` variables in canonical order: the first variable
    is v in the first half of the rows, the last in every other row.

    Each mask follows from the one before by one shift and xor (Knuth's
    magic masks, TAOCP 4A 7.1.3).
    """
    full = (1 << (1 << count)) - 1
    mask, masks = full, []
    for k in reversed(range(count)):
        mask = (mask ^ (mask << (1 << k))) & full
        masks.append(mask)
    return masks


def _eval_masks(formula: PropFormula, env: Mapping[str, int], full: int) -> int:
    """eval2 on every row at once: `env` maps each variable to its row mask
    and `full` is the mask of all rows.

    `care` is the mask of the rows on which eval2 reaches a node.  A side
    that eval2 skips on every such row is not visited, so a missing variable
    or a non-formula raises exactly when eval2 raises on some row.
    """

    def go(f: PropFormula, care: int) -> int:
        if isinstance(f, Var):
            try:
                return env[f.name]
            except KeyError:
                raise MissingVariableError(f.name) from None
        if isinstance(f, Const):
            return full if f.value else 0
        if isinstance(f, Neg):
            return full ^ go(f.inner, care)
        if isinstance(f, Claw):
            left = go(f.antecedent, care)
            care &= left
            return (full ^ left) | go(f.consequent, care) if care else full
        if isinstance(f, Prod):
            left = go(f.left, care)
            care &= left
            return left & go(f.right, care) if care else 0
        if isinstance(f, Sum):
            left = go(f.left, care)
            care &= full ^ left
            return left | go(f.right, care) if care else full
        if isinstance(f, Conn16):
            left, right = go(f.left, care), go(f.right, care)
            quadrants = (
                left & right,
                left & (full ^ right),
                (full ^ left) & right,
                full ^ (left | right),
            )
            acc = 0
            for quadrant, true in zip(quadrants, CONNECTIVE_VECTORS[f.index]):
                if true:
                    acc |= quadrant
            return acc
        raise TypeError(f"not a propositional formula: {f!r}")

    return go(formula, full)


def row_bits(mask: int, size: int) -> str:
    """'1'/'0' per row of a `size`-row mask, row 0 first."""
    return format(mask, f"0{size}b")[::-1]


def _row_assignment(names: tuple[str, ...], row: int) -> dict[str, bool]:
    last = len(names) - 1
    return {name: not row >> (last - i) & 1 for i, name in enumerate(names)}


def _first_row(
    names: tuple[str, ...], hits: Callable[[dict[str, int], int], int]
) -> Optional[dict[str, bool]]:
    """Assignment of the first row (canonical order) set in `hits(env, full)`.

    Rows go in blocks of 2^BLOCK_BITS: the fastest-varying variables are row
    masks within a block and the others are constant across it, so the scan
    stops at the first block with a hit.
    """
    low = min(len(names), BLOCK_BITS)
    high = len(names) - low
    full = (1 << (1 << low)) - 1
    env = dict(zip(names[high:], row_masks(low)))
    for block in range(1 << high):
        for i, name in enumerate(names[:high]):
            env[name] = 0 if block >> (high - 1 - i) & 1 else full
        found = hits(env, full)
        if found:
            row = (block << low) + (found & -found).bit_length() - 1
            return _row_assignment(names, row)
    return None


def render_tsv(variables: tuple[str, ...], cells: tuple[str, ...], column: str) -> str:
    """TSV with a header, one row per canonical assignment over `cells` (the
    one-character spelled values, first variable slowest), and `column` as
    the value column.

    Every row has the same width, so each column is written into a template
    of tabs and newlines with one strided slice assignment.
    """
    count, size = len(variables), len(column)
    width = 2 * count + 2
    body = bytearray((b"\t" * (width - 1) + b"\n") * size)
    for i in range(count):
        run = len(cells) ** (count - 1 - i)
        period = b"".join(cell.encode() * run for cell in cells)
        body[2 * i :: width] = period * (size // len(period))
    body[2 * count :: width] = column.encode()
    return "\t".join(variables + ("value",)) + "\n" + body.decode()


_SPELL_BITS = str.maketrans("10", "vf")


@dataclass(frozen=True)
class TruthTable:
    """Rows run in canonical order: first variable slowest, v before f.

    Bit r of `mask` is the value in row r.
    """

    variables: tuple[str, ...]
    mask: int

    @cached_property
    def rows(self) -> tuple[tuple[tuple[bool, ...], bool], ...]:
        cells = product((True, False), repeat=len(self.variables))
        return tuple(zip(cells, self.values()))

    def _bits(self) -> str:
        return row_bits(self.mask, 1 << len(self.variables))

    def values(self) -> tuple[bool, ...]:
        return tuple(bit == "1" for bit in self._bits())

    def assignment(self, row: int) -> dict[str, bool]:
        return _row_assignment(self.variables, range(1 << len(self.variables))[row])

    def to_tsv(self) -> str:
        column = self._bits().translate(_SPELL_BITS)
        return render_tsv(self.variables, ("v", "f"), column)


def canonical_assignments(variables: Iterable[str]) -> Iterable[dict[str, bool]]:
    names = tuple(variables)
    for cells in product((True, False), repeat=len(names)):
        yield dict(zip(names, cells))


def truth_table(formula: PropFormula) -> TruthTable:
    return table_over(formula, free_vars(formula))


def table_over(formula: PropFormula, variables: Iterable[str]) -> TruthTable:
    """Truth table over an explicit variable list (a superset of the free
    variables is allowed; used to compare formulas over merged variables)."""
    names = tuple(variables)
    _check_table_limit(len(names))
    full = (1 << (1 << len(names))) - 1
    env = dict(zip(names, row_masks(len(names))))
    return TruthTable(names, _eval_masks(formula, env, full))


def find_counterexample(formula: PropFormula) -> Optional[dict[str, bool]]:
    """First falsifying assignment in canonical row order, or None."""
    return _first_row(
        tuple(free_vars(formula)),
        lambda env, full: full ^ _eval_masks(formula, env, full),
    )


def is_tautology(formula: PropFormula) -> bool:
    return find_counterexample(formula) is None


# --- indirect method ------------------------------------------------------


@dataclass(frozen=True)
class Tautology:
    """No falsifying assignment exists; trace is the forced-assignment run
    that ends in a contradiction (last step re-forces an earlier variable)."""

    trace: tuple[tuple[str, bool], ...]


@dataclass(frozen=True)
class Falsified:
    counterexample: dict[str, bool]


_INDIRECT_STATE_CAP = 200_000


def indirect_falsify(formula: PropFormula) -> Tautology | Falsified:
    """MS 527's indirect method: assume the formula false and propagate.

    Claw false forces antecedent v and consequent f; Neg flips the goal;
    Prod true / Sum false force both sides; the dual cases branch.  All
    branches are explored; the result is the lexicographically least
    falsifying completion (canonical variable order, v before f, unforced
    variables defaulting to v), or a Tautology carrying the shortest
    contradiction trace.
    """
    order = free_vars(formula)
    queue: deque[tuple[tuple, dict, tuple]] = deque()
    queue.append((((formula, False),), {}, ()))
    completions: list[dict[str, bool]] = []
    traces: list[tuple[tuple[str, bool], ...]] = []
    states = 0

    while queue:
        goals, assignment, trace = queue.popleft()
        states += 1
        if states > _INDIRECT_STATE_CAP:
            raise LimitExceededError("indirect search exceeded its state cap")
        dead = False
        while goals and not dead:
            node, want = goals[0]
            rest = goals[1:]
            if isinstance(node, Var):
                prior = assignment.get(node.name)
                if prior is None:
                    assignment = {**assignment, node.name: want}
                    trace = trace + ((node.name, want),)
                    goals = rest
                elif prior == want:
                    goals = rest
                else:
                    traces.append(trace + ((node.name, want),))
                    dead = True
            elif isinstance(node, Const):
                if node.value == want:
                    goals = rest
                else:
                    traces.append(trace + (("#t" if node.value else "#f", want),))
                    dead = True
            elif isinstance(node, Neg):
                goals = ((node.inner, not want),) + rest
            elif isinstance(node, Claw):
                if not want:
                    goals = ((node.antecedent, True), (node.consequent, False)) + rest
                else:
                    _branch(queue, rest, assignment, trace,
                            [((node.antecedent, False),), ((node.consequent, True),)])
                    dead = True
            elif isinstance(node, Prod):
                if want:
                    goals = ((node.left, True), (node.right, True)) + rest
                else:
                    _branch(queue, rest, assignment, trace,
                            [((node.left, False),), ((node.right, False),)])
                    dead = True
            elif isinstance(node, Sum):
                if not want:
                    goals = ((node.left, False), (node.right, False)) + rest
                else:
                    _branch(queue, rest, assignment, trace,
                            [((node.left, True),), ((node.right, True),)])
                    dead = True
            elif isinstance(node, Conn16):
                vector = CONNECTIVE_VECTORS[node.index]
                rows = [(l, r) for l, r in ((True, True), (True, False), (False, True), (False, False))
                        if vector[_row_of(l, r)] == want]
                if not rows:
                    traces.append(trace)
                else:
                    _branch(queue, rest, assignment, trace,
                            [((node.left, l), (node.right, r)) for l, r in rows])
                dead = True
            else:
                raise TypeError(f"not a propositional formula: {node!r}")
        if not dead:
            complete = {name: assignment.get(name, True) for name in order}
            if eval2(formula, complete):
                raise RuntimeError("indirect method produced a non-falsifying leaf")
            completions.append(complete)

    if completions:
        best = min(completions, key=lambda a: tuple(not a[n] for n in order))
        return Falsified(best)
    best_trace = min(traces, key=len) if traces else ()
    return Tautology(tuple(best_trace))


def _branch(queue, rest, assignment, trace, alternatives) -> None:
    for alt in alternatives:
        queue.append((tuple(alt) + rest, dict(assignment), trace))


# --- the sixteen connectives ----------------------------------------------


def connective_vector(index: int) -> tuple[bool, bool, bool, bool]:
    if index not in CONNECTIVE_VECTORS:
        raise ValueError(f"connective index out of range: {index}")
    return CONNECTIVE_VECTORS[index]


def connective_index(vector: tuple[bool, bool, bool, bool]) -> int:
    for index, candidate in CONNECTIVE_VECTORS.items():
        if candidate == tuple(vector):
            return index
    raise ValueError(f"not a length-4 truth vector: {vector!r}")


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


def sop_expansion(index: int, left: PropFormula, right: PropFormula) -> PropFormula:
    """Sum-of-products formula with the same table as Conn16(index, l, r).

    Constant-free so the result stays printable in every notation: the
    all-false vector becomes (l AND NOT l) AND (r AND NOT r), the all-true
    vector its dual.
    """
    vector = connective_vector(index)
    rows = [(l, r) for l, r in ((True, True), (True, False), (False, True), (False, False))
            if vector[_row_of(l, r)]]
    if not rows:
        return Prod(Prod(left, Neg(left)), Prod(right, Neg(right)))
    if len(rows) == 4:
        return Sum(Sum(left, Neg(left)), Sum(right, Neg(right)))
    terms = [
        Prod(left if l else Neg(left), right if r else Neg(right)) for l, r in rows
    ]
    acc = terms[0]
    for term in terms[1:]:
        acc = Sum(acc, term)
    return acc


def expand_conn16(formula: PropFormula) -> PropFormula:
    """Rewrite every Conn16 node into its sum-of-products expansion."""
    if isinstance(formula, (Var, Const)):
        return formula
    if isinstance(formula, Neg):
        return Neg(expand_conn16(formula.inner))
    if isinstance(formula, Claw):
        return Claw(expand_conn16(formula.antecedent), expand_conn16(formula.consequent))
    if isinstance(formula, Prod):
        return Prod(expand_conn16(formula.left), expand_conn16(formula.right))
    if isinstance(formula, Sum):
        return Sum(expand_conn16(formula.left), expand_conn16(formula.right))
    if isinstance(formula, Conn16):
        return sop_expansion(
            formula.index, expand_conn16(formula.left), expand_conn16(formula.right)
        )
    raise TypeError(f"not a propositional formula: {formula!r}")


# --- algebraic normal form -------------------------------------------------


@dataclass(frozen=True)
class AnfPoly:
    """XOR of AND-monomials over GF(2); the empty monomial is the constant 1.

    The monomial set is unique for a given truth function (Zhegalkin form).
    """

    monomials: frozenset[frozenset[str]]

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        acc = False
        for monomial in self.monomials:
            acc ^= all(assignment[name] for name in monomial)
        return acc

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        keyed = sorted(
            (tuple(sorted(m)) for m in self.monomials), key=lambda t: (len(t), t)
        )
        return " + ".join("".join(m) if m else "1" for m in keyed)


def anf(formula: PropFormula) -> AnfPoly:
    """Zhegalkin polynomial via the Moebius (XOR) transform of the table."""
    names = free_vars(formula)
    n = len(names)
    _check_table_limit(n)
    size = 1 << n
    full = (1 << size) - 1
    # Here bit m of the table is the value where variable i is v iff bit i
    # of m is set; lows[i] marks the positions m with bit i clear.  Step i
    # xors each position with bit i set with its partner that has it clear.
    lows = row_masks(n)[::-1]
    coeff = _eval_masks(formula, {name: full ^ low for name, low in zip(names, lows)}, full)
    for i, low in enumerate(lows):
        coeff ^= (coeff & low) << (1 << i)
    monomials = frozenset(
        frozenset(name for i, name in enumerate(names) if m >> i & 1)
        for m, bit in enumerate(row_bits(coeff, size))
        if bit == "1"
    )
    return AnfPoly(monomials)


# --- Boole's congruence rule ----------------------------------------------


@dataclass(frozen=True)
class CongruenceReport:
    """Evidence that semantically equal terms stay equal inside a context."""

    operands_equal: bool
    operands_witness: Optional[dict[str, bool]]
    contexts_equal: bool
    contexts_witness: Optional[dict[str, bool]]
    plugged_s_table: TruthTable
    plugged_t_table: TruthTable


def merged_vars(first: PropFormula, second: PropFormula) -> tuple[str, ...]:
    names = free_vars(first)
    for name in free_vars(second):
        if name not in names:
            names.append(name)
    return tuple(names)


def semantic_difference(
    first: PropFormula, second: PropFormula
) -> Optional[dict[str, bool]]:
    """First assignment (canonical order, merged variables) where the two
    formulas disagree, or None when they are semantically equal."""
    return _first_row(
        merged_vars(first, second),
        lambda env, full: _eval_masks(first, env, full) ^ _eval_masks(second, env, full),
    )


def congruence_check(
    s: PropFormula, t: PropFormula, context: PropFormula, hole: str
) -> CongruenceReport:
    """Check Boole's rule: from s = t derive context(s) = context(t)."""
    if hole not in free_vars(context):
        raise ValueError(f"hole {hole!r} does not occur in the context")
    operands_witness = semantic_difference(s, t)
    plugged_s = substitute(context, hole, s)
    plugged_t = substitute(context, hole, t)
    contexts_witness = semantic_difference(plugged_s, plugged_t)
    shared = merged_vars(plugged_s, plugged_t)
    return CongruenceReport(
        operands_equal=operands_witness is None,
        operands_witness=operands_witness,
        contexts_equal=contexts_witness is None,
        contexts_witness=contexts_witness,
        plugged_s_table=table_over(plugged_s, shared),
        plugged_t_table=table_over(plugged_t, shared),
    )
