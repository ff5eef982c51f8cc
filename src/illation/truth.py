"""Bivalent truth-functional machinery: the row engine.

Covers bivalent evaluation, direct truth tables in Peirce's canonical row
order, and the first-row search behind counterexamples and model search,
all on one bit-parallel engine.  The indirect method, the X-frame icons,
ANF and Boole's congruence check run on this engine from `methods`, which
only the commands that use them load; their names are still read from
here (`truth.anf`, `from illation.truth import indirect_falsify`).

Truth values are Python bools: True is v (verum), False is f (falsum).
"""

from __future__ import annotations

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
    Conn16,
    Const,
    Neg,
    Prod,
    PropFormula,
    Quant,
    RAtom,
    Sum,
    Var,
    _DECIDING,
    free_vars,
)

# A row scan's first block has 2^BLOCK_BITS rows, so a formula falsified early
# costs one small block; each later block doubles up to a whole table's rows.
BLOCK_BITS = 10


def spell(value: bool) -> str:
    return "v" if value else "f"


def eval2(formula: PropFormula, assignment: Mapping[str, bool]) -> bool:
    """Evaluate under a bivalent assignment; unknown variables are errors.

    The one-row case of the row engine: v and f are the one-row masks 1
    and 0.
    """
    return bool(_eval_masks(formula, assignment, 1))


# --- the bit-parallel engine ----------------------------------------------
#
# A truth table is one int: bit r holds the value in row r (Knuth, TAOCP 4A
# 7.1.1).  Each variable is the mask of the rows where it is v, and one pass
# over the tree with & | ^ evaluates every row at once.


def _tile(unit: int, period: int, total: int) -> int:
    """Repeat the `period`-bit pattern `unit` across `total` bits."""
    mask = unit
    while period < total:
        mask |= mask << period
        period *= 2
    return mask & ((1 << total) - 1)


def row_masks(count: int) -> list[int]:
    """Row masks of `count` variables in canonical order: the first variable
    is v in the first half of the rows, the last in every other row.
    """
    return [_tile((1 << (1 << k)) - 1, 2 << k, 1 << count) for k in reversed(range(count))]


# A chain of sides each the last of its node, as in a | (b & ~(c > d)), folds
# into one entry (_FOLD, x, c) below its last side, so a deep chain holds two
# masks, not one per level: its value is x off the c rows, and on them the
# last side's value, flipped where x is set.
_FOLD = object()


def _eval_masks(formula, env: Mapping, full: int, domain: Optional[int] = None) -> int:
    """The formula on every row at once: `env` maps each variable to its row
    mask and `full` is the mask of all rows.

    Given a `domain` size the formula is relational and closed: `env` maps
    each cell (predicate, elements) to its row mask, and Pi and Sigma are
    chains of products and sums of their body over the elements, element
    n-1 the last side.  No index is bound twice on a path, so one dict of
    bindings serves every atom.

    Every node folds into the chain its last side ends, so one value is live
    at a time: a side's value is read as soon as its parent's entry pops.
    A claw, product or sum, or a Pi or Sigma step, reads from
    `formulas._DECIDING` the rows where its left side decides it.

    `care` is the mask of the rows on which a left-to-right, short-circuit
    evaluation of one row reaches a node.  A side that it skips on every
    such row is not visited, so a missing variable or a non-formula raises
    exactly when it would on some row.  So a side after the first is pushed
    only once the sides before it, and with them its `care`, are known.
    """
    kinds = PROPOSITIONAL if domain is None else RELATIONAL
    binds: dict[str, int] = {}  # each index to its quantifier's current element
    todo = [(formula, full, 0)]  # (node, care, how many sides are done)
    while todo:
        f, care, done = todo.pop()
        cls = type(f)
        if cls is Var:
            if f.name not in env:
                raise MissingVariableError(f.name)
            value = env[f.name]
        elif f is _FOLD:  # (_FOLD, x, c): the chain's last side is done
            value = care ^ (value & done)
        elif cls is Const:
            value = full if f.value else 0
        elif cls not in kinds:
            raise TypeError(f"not a {'relational' if domain else 'propositional'} formula: {f!r}")
        elif cls is RAtom:
            value = env[f.predicate, tuple(map(binds.__getitem__, f.indices))]
        elif done == 0 and cls is not Neg and cls is not Quant:
            todo += ((f, care, 1), (SUBFORMULAS[cls](f)[0], care, 0))
        else:  # all but the last side are done: fold f into the chain it ends
            _, x, c = todo.pop() if todo and todo[-1][0] is _FOLD else (_FOLD, 0, care)
            if cls is Neg:
                x ^= c
            elif cls is Conn16:  # both sides count on every row it reaches
                vv, vf, fv, ff = CONNECTIVE_VECTORS[f.index]
                on_v = c & value
                for rows, right_v, right_f in ((on_v, vv, vf), (c ^ on_v, fv, ff)):
                    x ^= rows if right_f else 0  # v, or the right side's negation, on these rows
                    c ^= rows if right_v == right_f else 0  # decided on these rows
            elif done:  # `value` is the left side's, or the body's at element done - 1
                on_left, then = _DECIDING[(Prod if f.kind == PI else Sum) if cls is Quant else cls]
                same, hit = c is care, c & value  # the rows of c where the left side is v
                if then:  # v on the rows the left side decides
                    x ^= hit if on_left else c ^ hit
                c = c ^ hit if on_left else hit
                care = c if same else care & (full ^ value if on_left else value)
                if not care:
                    value = x
                    continue
            if cls is Quant:  # element `done` of the body, then the next unless it is the last
                binds[f.var] = done
                if done < domain - 1:
                    todo += ((_FOLD, x, c), (f, care, done + 1), (f.body, care, 0))
                    continue
            todo += ((_FOLD, x, c), (SUBFORMULAS[cls](f)[-1], care, 0))
    return value


def row_bits(mask: int, size: int) -> str:
    """'1'/'0' per row of a `size`-row mask, row 0 first."""
    return format(mask, f"0{size}b")[::-1]


def _row_assignment(names: tuple[str, ...], row: int) -> dict[str, bool]:
    last = len(names) - 1
    return {name: not row >> (last - i) & 1 for i, name in enumerate(names)}


def _first_row(names: tuple, hits: Callable[[dict, int], int]) -> Optional[dict]:
    """Assignment of the first row (canonical order) set in `hits(env, full)`
    over `names`, variables or the cells of a model search.

    Rows go in blocks: the fastest-varying variables are row masks within a
    block and the others are constant across it, so the scan stops at the
    first block with a hit.  The first block has 2^BLOCK_BITS rows and each
    later one as many as all before it, up to 2^MAX_TABLE_VARS (doubling
    search, Bentley and Yao 1976).  It needs no table limit: past
    2^MAX_SCAN_BITS rows with no hit it raises LimitExceededError.
    """
    count, start, low, masks = len(names), 0, min(len(names), BLOCK_BITS), []
    while start < 1 << min(count, errors.MAX_SCAN_BITS):
        high = count - low
        full = (1 << (1 << low)) - 1
        masks = masks if len(masks) == low else row_masks(low)
        env = dict(zip(names[high:], masks))
        for i, name in enumerate(names[:high]):
            env[name] = 0 if start >> (count - 1 - i) & 1 else full
        found = hits(env, full)
        if found:
            return _row_assignment(names, start + (found & -found).bit_length() - 1)
        start += 1 << low
        low = min(start.bit_length() - 1, errors.MAX_TABLE_VARS)
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

    @property
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
    if len(names) > errors.MAX_TABLE_VARS:
        raise LimitExceededError(
            f"{len(names)} variables exceed the {errors.MAX_TABLE_VARS}-variable table limit"
        )
    for i, name in enumerate(names):
        if name in names[i + 1:]:
            raise ValueError(f"variable {name!r} is listed twice")
    full = (1 << (1 << len(names))) - 1
    env = dict(zip(names, row_masks(len(names))))
    return TruthTable(names, _eval_masks(formula, env, full))


def find_counterexample(formula: PropFormula) -> Optional[dict[str, bool]]:
    """First falsifying assignment in canonical row order, or None; its keys
    run in `free_vars` order, as the row's bits do."""
    return _first_row(
        tuple(free_vars(formula)),
        lambda env, full: full ^ _eval_masks(formula, env, full),
    )


def is_tautology(formula: PropFormula) -> bool:
    return find_counterexample(formula) is None


# --- the names defined in `methods` ---------------------------------------

_METHODS = frozenset({
    "Tautology", "Falsified", "indirect_falsify", "xframe", "AnfPoly", "anf",
    "CongruenceReport", "merged_vars", "semantic_difference", "congruence_check",
})


def __getattr__(name: str):
    """Each name of `methods`, read from this module (PEP 562): `methods`
    is imported when one is first read, not with `truth`."""
    if name not in _METHODS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import methods

    return getattr(methods, name)
