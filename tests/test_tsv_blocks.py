"""Truth tables streamed in row blocks.

`tsv_blocks` yields the header line, then blocks of whole rows, each the
largest power of the cell count that is at most 2^BLOCK_BITS rows.  Joined,
they are the text of the whole-table renderer (`helpers.ref_render_tsv`),
and the CLI writes them one at a time, so a table at the variable limit
never holds more than one block of its text.
"""

import os
import random
import tracemalloc
from contextlib import redirect_stdout

import pytest

from illation import cli, errors
from illation.formulas import Const
from illation.trivalent import TriTable
from illation.truth import BLOCK_BITS, TruthTable, truth_table

from helpers import ref_render_tsv

NAMES = "abcdefghijklmnop"
_LETTER = {("1", "1"): "V", ("1", "0"): "L", ("0", "0"): "F"}


def _row_bits(mask, size):
    return bin(mask)[2:].zfill(size)[::-1]


def truth_tables(count):
    """A random table over `count` variables; over none, both constants."""
    if count == 0:
        return [truth_table(Const(True)), truth_table(Const(False))]
    rng = random.Random(count)
    return [TruthTable(tuple(NAMES[:count]), rng.getrandbits(1 << count))]


def tri_tables(count):
    """A random table over `count` variables; over none, each constant."""
    if count == 0:
        return [TriTable((), 1, 1), TriTable((), 1, 0), TriTable((), 0, 0)]
    rng = random.Random(count)
    not_f = rng.getrandbits(3**count)
    return [TriTable(tuple(NAMES[:count]), not_f, not_f & rng.getrandbits(3**count))]


def first_difference(got, expected):
    """The first line where two texts differ, so that a failure does not
    diff megabytes."""
    pairs = zip(got.splitlines(), expected.splitlines())
    return next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), "different lengths")


def check_blocks(table, cells, column):
    count = len(table.variables)
    expected = ref_render_tsv(table.variables, cells, column)
    header, *blocks = table.tsv_blocks()
    for got in ("".join([header, *blocks]), table.to_tsv()):
        same = got == expected
        assert same, first_difference(got, expected)
    rows = 1
    while rows < len(cells) ** count and rows * len(cells) <= 1 << BLOCK_BITS:
        rows *= len(cells)
    assert len(blocks) == len(cells) ** count // rows
    for block in blocks:  # whole rows, each `count` cells and a value
        assert block.endswith("\n") and len(block) == rows * (2 * count + 2)
        assert {line.count("\t") for line in block.splitlines()} == {count}


@pytest.mark.parametrize("count", range(errors.MAX_TABLE_VARS + 1))
def test_two_valued_blocks_join_to_the_whole_table(count):
    for table in truth_tables(count):
        size = 1 << count
        column = _row_bits(table.mask, size).translate(str.maketrans("10", "vf"))
        check_blocks(table, ("v", "f"), column)


@pytest.mark.parametrize("count", range(errors.MAX_TRI_VARS + 1))
def test_three_valued_blocks_join_to_the_whole_table(count):
    for table in tri_tables(count):
        size = 3**count
        planes = zip(_row_bits(table.not_f, size), _row_bits(table.is_v, size))
        check_blocks(table, ("V", "L", "F"), "".join(_LETTER[p] for p in planes))


@pytest.mark.parametrize("argv", [
    ["table", "|".join(NAMES)],
    ["table", "--values", "3", "&".join(NAMES[:10])],
], ids=["16-variables", "10-variables-3-values"])
def test_the_cli_holds_one_block_of_a_table(argv):
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        cli.main(argv[:-1] + ["a"])  # the parser and the lexer, made before tracing
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20  # the whole 16-variable table is 2.2 MB of text
