"""Peirce's 1909 three-valued logic: V, L, F with F < L < V.

The connective matrices are stored literally as he tabulated them; that the
bar is an involution on {V,F} only, that (+) is the max and Z the min under
the order, and that both restrict to the bivalent tables are checked in the
tests rather than assumed.  Only the attested connectives exist here: there
is no trivalent claw.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Mapping

from .errors import LimitExceededError, MissingVariableError
from .formulas import Neg, Prod, PropFormula, Sum, Var, free_vars
from .truth import render_tsv, row_bits

MAX_TRI_VARS = 10  # 3^10 rows is the ceiling for a printable table


class TriValue(enum.Enum):
    V = "V"
    L = "L"
    F = "F"


V, L, F = TriValue.V, TriValue.L, TriValue.F

RANK = {F: 0, L: 1, V: 2}

_NEG_TABLE = {V: F, L: L, F: V}

_SUM_TABLE = {
    (V, V): V, (V, L): V, (V, F): V,
    (L, V): V, (L, L): L, (L, F): L,
    (F, V): V, (F, L): L, (F, F): F,
}

_PROD_TABLE = {
    (V, V): V, (V, L): L, (V, F): F,
    (L, V): L, (L, L): L, (L, F): F,
    (F, V): F, (F, L): F, (F, F): F,
}


def tri_neg(a: TriValue) -> TriValue:
    return _NEG_TABLE[a]


def tri_or(a: TriValue, b: TriValue) -> TriValue:
    return _SUM_TABLE[(a, b)]


def tri_and(a: TriValue, b: TriValue) -> TriValue:
    return _PROD_TABLE[(a, b)]


class UnsupportedConnectiveError(ValueError):
    """The 1909 fragment covers only negation, sum, and product."""

    def __init__(self, node: PropFormula):
        super().__init__(
            f"no trivalent matrix exists for {type(node).__name__} nodes"
        )
        self.node = node


def tri_eval(formula: PropFormula, assignment: Mapping[str, TriValue]) -> TriValue:
    if isinstance(formula, Var):
        try:
            return assignment[formula.name]
        except KeyError:
            raise MissingVariableError(formula.name) from None
    if isinstance(formula, Neg):
        return tri_neg(tri_eval(formula.inner, assignment))
    if isinstance(formula, Sum):
        return tri_or(tri_eval(formula.left, assignment), tri_eval(formula.right, assignment))
    if isinstance(formula, Prod):
        return tri_and(tri_eval(formula.left, assignment), tri_eval(formula.right, assignment))
    raise UnsupportedConnectiveError(formula)


def _tile(unit: int, period: int, total: int) -> int:
    """Repeat the `period`-bit pattern `unit` across `total` bits."""
    mask = unit
    while period < total:
        mask |= mask << period
        period *= 2
    return mask & ((1 << total) - 1)


# The letter of each row from its (>= L, = V) bits.
_LETTERS = {("1", "1"): "V", ("1", "0"): "L", ("0", "0"): "F"}


@dataclass(frozen=True)
class TriTable:
    """Rows in canonical order: V before L before F, first variable slowest.

    The values are two bit-planes over the rows: bit r of `not_f` is set when
    row r is V or L (at least L), bit r of `is_v` when it is V.
    """

    variables: tuple[str, ...]
    not_f: int
    is_v: int

    @cached_property
    def rows(self) -> tuple[tuple[tuple[TriValue, ...], TriValue], ...]:
        cells = product((V, L, F), repeat=len(self.variables))
        return tuple(zip(cells, self.values()))

    def _letters(self) -> str:
        size = 3 ** len(self.variables)
        planes = row_bits(self.not_f, size), row_bits(self.is_v, size)
        return "".join(map(_LETTERS.__getitem__, zip(*planes)))

    def values(self) -> tuple[TriValue, ...]:
        return tuple(map(TriValue, self._letters()))

    def to_tsv(self) -> str:
        return render_tsv(self.variables, ("V", "L", "F"), self._letters())


def tri_table(formula: PropFormula) -> TriTable:
    _check_supported(formula)
    names = tuple(free_vars(formula))
    if len(names) > MAX_TRI_VARS:
        raise LimitExceededError(
            f"{len(names)} variables exceed the {MAX_TRI_VARS}-variable trivalent limit"
        )
    size = 3 ** len(names)
    full = (1 << size) - 1
    # A variable whose value changes every 3^k rows is at least L on the
    # first two thirds of each period of 3^(k+1) rows, and V on the first.
    env = {}
    for name, k in zip(names, reversed(range(len(names)))):
        third = 3**k
        env[name] = (
            _tile((1 << 2 * third) - 1, 3 * third, size),
            _tile((1 << third) - 1, 3 * third, size),
        )

    def go(f: PropFormula) -> tuple[int, int]:
        if isinstance(f, Var):
            return env[f.name]
        if isinstance(f, Neg):
            not_f, is_v = go(f.inner)
            return full ^ is_v, full ^ not_f
        (lg, lv), (rg, rv) = go(f.left), go(f.right)
        if isinstance(f, Sum):
            return lg | rg, lv | rv
        return lg & rg, lv & rv  # Prod, the last node _check_supported admits

    return TriTable(names, *go(formula))


def _check_supported(formula: PropFormula) -> None:
    if isinstance(formula, Var):
        return
    if isinstance(formula, Neg):
        _check_supported(formula.inner)
        return
    if isinstance(formula, (Sum, Prod)):
        _check_supported(formula.left)
        _check_supported(formula.right)
        return
    raise UnsupportedConnectiveError(formula)
