"""Bivalent truth-functional machinery.

Covers direct truth tables in Peirce's canonical row order, the indirect
(falsification) method of MS 527 and MS 547, the X-frame icons of the
sixteen binary connectives of MS 431 (whose table is in `formulas`),
algebraic normal form over GF(2), and Boole's substitution-congruence check.

Truth values are Python bools: True is v (verum), False is f (falsum).
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Optional

from . import errors
from ._record import record
from .errors import LimitExceededError, MissingVariableError
from .formulas import (
    CONNECTIVE_VECTORS,
    PI,
    PROPOSITIONAL,
    RELATIONAL,
    SUBFORMULAS,
    Claw,
    Conn16,
    Const,
    Neg,
    Prod,
    PropFormula,
    Quant,
    RAtom,
    Sum,
    Var,
    _rows,
    connective_vector,
    free_vars,
    substitute,
)

# Counterexample and difference searches scan rows in blocks of 2^BLOCK_BITS,
# so a formula falsified early costs one block rather than the whole table.
BLOCK_BITS = 10


def spell(value: bool) -> str:
    return "v" if value else "f"


def eval2(formula: PropFormula, assignment: Mapping[str, bool]) -> bool:
    """Evaluate under a bivalent assignment; unknown variables are errors.

    The one-row case of the row engine: v and f are the one-row masks 1
    and 0.
    """
    return bool(_eval_masks(formula, assignment, 1))


def _check_table_limit(count: int) -> None:
    if count > errors.MAX_TABLE_VARS:
        raise LimitExceededError(
            f"{count} variables exceed the {errors.MAX_TABLE_VARS}-variable table limit"
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


def _eval_masks(formula, env: Mapping, full: int, domain: Optional[int] = None) -> int:
    """The formula on every row at once: `env` maps each variable to its row
    mask and `full` is the mask of all rows.

    Given a `domain` size the formula is relational and closed: `env` maps
    each cell (predicate, elements) to its row mask, and Pi and Sigma fold
    their body over the elements as Prod and Sum fold two sides.  No index is
    bound twice on a path, so one dict of bindings serves every atom.

    `care` is the mask of the rows on which a left-to-right, short-circuit
    evaluation of one row reaches a node.  A side that it skips on every
    such row is not visited, so a missing variable or a non-formula raises
    exactly when it would on some row.  So a side after the first is pushed
    only once the sides before it, and with them its `care`, are known.
    """
    kinds = PROPOSITIONAL if domain is None else RELATIONAL
    binds: dict[str, int] = {}  # each index to its quantifier's current element
    values: list[int] = []
    todo = [(formula, full, 0)]  # (node, care, how many sides are done)
    while todo:
        f, care, done = todo.pop()
        cls = type(f)
        if cls is Var:
            if f.name not in env:
                raise MissingVariableError(f.name)
            values.append(env[f.name])
        elif cls is Const:
            values.append(full if f.value else 0)
        elif cls not in kinds:
            raise TypeError(f"not a {'relational' if domain else 'propositional'} formula: {f!r}")
        elif cls is RAtom:
            values.append(env[f.predicate, tuple(map(binds.__getitem__, f.indices))])
        elif cls is Quant:  # a left fold over the elements: Pi of products, Sigma of sums
            pi = f.kind == PI
            if done > 1:
                side = values.pop()
                values[-1] = values[-1] & side if pi else values[-1] | side
            if done:  # the next side counts only where the fold so far does not decide
                care &= values[-1] if pi else full ^ values[-1]
            if done == domain or not care:  # all folded, or decided on every row it reaches
                continue
            binds[f.var] = done
            todo += ((f, care, done + 1), (f.body, care, 0))
        elif done == 0:
            todo += ((f, care, 1), (SUBFORMULAS[cls](f)[0], care, 0))
        elif cls is Neg:
            values[-1] ^= full
        elif done == 1:
            if cls is Claw:  # a -< b is the sum of not-a and b
                values[-1] ^= full
            if cls is not Conn16:
                # the second side counts only where the first does not decide
                care &= values[-1] if cls is Prod else full ^ values[-1]
                if not care:
                    values[-1] = 0 if cls is Prod else full
                    continue
            todo += ((f, care, 2), (SUBFORMULAS[cls](f)[1], care, 0))
        else:
            right, left = values.pop(), values.pop()
            if cls is Conn16:  # the union of the disjoint quadrants where it is v
                quadrants = (left & right, left & (full ^ right), right & (full ^ left),
                             full ^ (left | right))
                truths = CONNECTIVE_VECTORS[f.index]
                values.append(sum(q for q, true in zip(quadrants, truths) if true))
            else:  # a product, or a sum: a claw is one by now
                values.append(left & right if cls is Prod else left | right)
    return values[0]


def row_bits(mask: int, size: int) -> str:
    """'1'/'0' per row of a `size`-row mask, row 0 first."""
    return format(mask, f"0{size}b")[::-1]


def _row_assignment(names: tuple[str, ...], row: int) -> dict[str, bool]:
    last = len(names) - 1
    return {name: not row >> (last - i) & 1 for i, name in enumerate(names)}


def _first_row(names: tuple, hits: Callable[[dict, int], int]) -> Optional[dict]:
    """Assignment of the first row (canonical order) set in `hits(env, full)`
    over `names`, variables or the cells of a model search.

    Rows go in blocks of 2^BLOCK_BITS: the fastest-varying variables are row
    masks within a block and the others are constant across it, so the scan
    stops at the first block with a hit, and needs no table limit: past
    2^MAX_SCAN_BITS rows with no hit it raises LimitExceededError.
    """
    low = min(len(names), BLOCK_BITS)
    high = len(names) - low
    full = (1 << (1 << low)) - 1
    env = dict(zip(names[high:], row_masks(low)))
    for block in range(1 << min(high, errors.MAX_SCAN_BITS - low)):
        for i, name in enumerate(names[:high]):
            env[name] = 0 if block >> (high - 1 - i) & 1 else full
        found = hits(env, full)
        if found:
            row = (block << low) + (found & -found).bit_length() - 1
            return _row_assignment(names, row)
    if len(names) > errors.MAX_SCAN_BITS:
        raise LimitExceededError(
            f"row scan stopped after clearing {1 << errors.MAX_SCAN_BITS:,} of the "
            f"2^{len(names)} rows over {len(names)} variables"
        )
    return None


def render_tsv(
    variables: tuple[str, ...], cells: tuple[str, ...], column: Callable[[int, int], str]
) -> Iterator[str]:
    """TSV with a header, one row per canonical assignment over `cells` (the
    one-character spelled values, first variable slowest), in pieces: the
    header line, then blocks of whole rows.  `column(start, size)` spells
    the values of the `size` rows from row `start`.

    A block is the largest power of len(cells) rows that is at most
    2^BLOCK_BITS.  Every row has the same width, so each column is written
    into a block of tabs and newlines with one strided slice assignment.  A
    column that changes within a block tiles its period, the same in every
    block, so it is written once; a slower one is one cell repeated.
    """
    yield "\t".join(variables + ("value",)) + "\n"
    base, count = len(cells), len(variables)
    fast, size = 0, 1
    while fast < count and size * base <= 1 << BLOCK_BITS:
        fast, size = fast + 1, size * base
    slow, width = count - fast, 2 * count + 2
    block = bytearray((b"\t" * (width - 1) + b"\n") * size)
    for i in range(slow, count):
        run = base ** (count - 1 - i)
        period = b"".join(cell.encode() * run for cell in cells)
        block[2 * i :: width] = period * (size // len(period))
    for start in range(0, base**count, size):
        for i in range(slow):
            cell = cells[start // base ** (count - 1 - i) % base]
            block[2 * i :: width] = cell.encode() * size
        block[2 * count :: width] = column(start, size).encode()
        yield block.decode()


_SPELL_BITS = str.maketrans("10", "vf")


class TruthTable(metaclass=record):
    """Rows run in canonical order: first variable slowest, v before f.

    Bit r of `mask` is the value in row r.
    """

    variables: tuple[str, ...]
    mask: int

    @cached_property
    def rows(self) -> tuple[tuple[tuple[bool, ...], bool], ...]:
        cells = product((True, False), repeat=len(self.variables))
        return tuple(zip(cells, self.values()))

    def _bits(self, start: int, size: int) -> str:
        """'1'/'0' for the `size` rows from row `start`."""
        return row_bits(self.mask >> start & ((1 << size) - 1), size)

    def values(self) -> tuple[bool, ...]:
        return tuple(bit == "1" for bit in self._bits(0, 1 << len(self.variables)))

    def assignment(self, row: int) -> dict[str, bool]:
        return _row_assignment(self.variables, range(1 << len(self.variables))[row])

    def tsv_blocks(self) -> Iterator[str]:
        """The text of to_tsv in pieces: the header line, then blocks of
        whole rows, each made as it is taken."""
        return render_tsv(self.variables, ("v", "f"),
                          lambda start, size: self._bits(start, size).translate(_SPELL_BITS))

    def to_tsv(self) -> str:
        return "".join(self.tsv_blocks())


def truth_table(formula: PropFormula) -> TruthTable:
    return table_over(formula, free_vars(formula))


def table_over(formula: PropFormula, variables: Iterable[str]) -> TruthTable:
    """Truth table over an explicit variable list (a superset of the free
    variables is allowed; used to compare formulas over merged variables).
    A name listed twice is a ValueError."""
    names = tuple(variables)
    _check_table_limit(len(names))
    for i, name in enumerate(names):
        if name in names[i + 1:]:
            raise ValueError(f"variable {name!r} is listed twice")
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


class Tautology(metaclass=record):
    """No falsifying assignment exists; trace is the forced-assignment run
    that ends in a contradiction (last step re-forces an earlier variable)."""

    trace: tuple[tuple[str, bool], ...]


class Falsified(metaclass=record):
    counterexample: dict[str, bool]


# For the claw, product and sum: the value of each side that alone decides
# the node's value, which is then the second side's (a claw is v once its
# antecedent is f or its consequent v).
_DECIDING = {Claw: (False, True), Prod: (False, False), Sum: (True, True)}


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
    for a tautology the depth-first search only looks for the trace, and
    skips any branch that can no longer beat the best trace found.  Above
    that, the search runs over the whole tree.
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
    states = 0

    while stack:
        goals, mark, level = stack.pop()
        if known_tautology and (mark, level) >= best:
            continue  # every trace below here is longer, or as long and deeper
        states += 1
        if states > errors.MAX_INDIRECT_STATES:
            raise LimitExceededError(
                f"indirect search exceeded its state cap of {errors.MAX_INDIRECT_STATES:,} states"
            )
        while len(trail) > mark:
            del assignment[trail.pop()]
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


class CongruenceReport(metaclass=record):
    """Evidence that semantically equal terms stay equal inside a context."""

    operands_equal: bool
    operands_witness: Optional[dict[str, bool]]
    contexts_equal: bool
    contexts_witness: Optional[dict[str, bool]]
    plugged_s_table: TruthTable
    plugged_t_table: TruthTable


def merged_vars(first: PropFormula, second: PropFormula) -> tuple[str, ...]:
    return tuple(dict.fromkeys(free_vars(first) + free_vars(second)))


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
    """Check Boole's rule: from s = t derive context(s) = context(t).

    The plugged contexts hold every variable of s and t, so the table limit
    on their merged variables is checked before either scan."""
    if hole not in free_vars(context):
        raise ValueError(f"hole {hole!r} does not occur in the context")
    plugged_s = substitute(context, hole, s)
    plugged_t = substitute(context, hole, t)
    shared = merged_vars(plugged_s, plugged_t)
    _check_table_limit(len(shared))
    operands_witness = semantic_difference(s, t)
    contexts_witness = semantic_difference(plugged_s, plugged_t)
    return CongruenceReport(
        operands_equal=operands_witness is None,
        operands_witness=operands_witness,
        contexts_equal=contexts_witness is None,
        contexts_witness=contexts_witness,
        plugged_s_table=table_over(plugged_s, shared),
        plugged_t_table=table_over(plugged_t, shared),
    )
