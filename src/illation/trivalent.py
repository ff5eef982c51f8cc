"""Peirce's 1909 three-valued logic: V, L, F with F < L < V.

The connective matrices are stored literally as he tabulated them; that the
bar is an involution on {V,F} only, that (+) is the max and Z the min under
the order, and that both restrict to the bivalent tables are checked in the
tests rather than assumed.  Only the attested connectives exist here: there
is no trivalent claw.
"""

from __future__ import annotations

import enum
from itertools import product
from typing import Iterator

from . import errors
from ._record import record
from .formulas import PROPOSITIONAL, Neg, Prod, PropFormula, Sum, Var, walk
from .truth import _tile, render_tsv, row_bits


class TriValue(enum.Enum):
    V = "V"
    L = "L"
    F = "F"


V, L, F = TriValue.V, TriValue.L, TriValue.F

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


# The letter of each row from the byte 2 * (>= L) + (= V) of its '0'/'1' bits.
_LETTERS = bytes.maketrans(b"\x90\x92\x93", b"FLV")


class TriTable(metaclass=record):
    """Rows in canonical order: V before L before F, first variable slowest.

    The values are two bit-planes over the rows: bit r of `not_f` is set when
    row r is V or L (at least L), bit r of `is_v` when it is V.
    """

    variables: tuple[str, ...]
    not_f: int
    is_v: int

    @property
    def rows(self) -> tuple[tuple[tuple[TriValue, ...], TriValue], ...]:
        cells = product((V, L, F), repeat=len(self.variables))
        return tuple(zip(cells, self.values()))

    def _letters(self, start: int, size: int) -> str:
        """'V'/'L'/'F' for the `size` rows from row `start`.  Each plane's
        `row_bits`, read as a big-endian int, has a byte per row, so one sum
        makes every row's byte (no byte carries); a V row that is not at
        least L makes a non-ASCII byte, which fails to decode."""
        rows = (1 << size) - 1
        at_least_l, v = (int.from_bytes(row_bits(plane >> start & rows, size).encode(), "big")
                         for plane in (self.not_f, self.is_v))
        return (2 * at_least_l + v).to_bytes(size, "big").translate(_LETTERS).decode("ascii")

    def values(self) -> tuple[TriValue, ...]:
        return tuple(map(TriValue, self._letters(0, 3 ** len(self.variables))))

    def tsv_blocks(self) -> Iterator[str]:
        """The text of to_tsv in pieces: the header line, then blocks of
        whole rows, each made as it is taken."""
        return render_tsv(self.variables, ("V", "L", "F"), self._letters)

    def to_tsv(self) -> str:
        return "".join(self.tsv_blocks())


def tri_table(formula: PropFormula) -> TriTable:
    nodes = list(walk(formula, PROPOSITIONAL))
    for f in nodes:  # unsupported nodes before the limit, the first in preorder
        if type(f) not in (Var, Neg, Sum, Prod):
            raise UnsupportedConnectiveError(f)
    names = tuple(dict.fromkeys(f.name for f in nodes if type(f) is Var))
    if len(names) > errors.MAX_TRI_VARS:
        raise errors.LimitExceededError(
            f"{len(names)} variables exceed the {errors.MAX_TRI_VARS}-variable trivalent limit"
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
    # Preorder reversed: a node's sides are folded before it, the left on top.
    planes: list[tuple[int, int]] = []
    for f in reversed(nodes):
        cls = type(f)
        if cls is Var:
            planes.append(env[f.name])
        elif cls is Neg:
            not_f, is_v = planes.pop()
            planes.append((full ^ is_v, full ^ not_f))
        else:
            (lg, lv), (rg, rv) = planes.pop(), planes.pop()
            planes.append((lg | rg, lv | rv) if cls is Sum else (lg & rg, lv & rv))
    return TriTable(names, *planes[0])
