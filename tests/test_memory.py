"""Memory held while a long formula is read and printed, traced by tracemalloc.

A formula node is a slotted record (48 bytes for a binary node), the Polish
reader builds the tree from the right with no list of the tokens, and the
printer joins its fragments a batch at a time: the parses below peak at
47-48 bytes per node.  With a slot that kept each node's hash, they peaked at
54.7-56.3.  With a `__dict__` per node, a list of every token and a list of
every fragment, the same parse peaked at ~104 bytes per node and printing
added 0.4-0.6 MB.
The algebraic reader lexes a slice of the text at a time; a list of every
token string of the whole text peaked at 78-90 bytes per node.  A slice also
ends after an operator, so a flat chain with no whitespace or bracket is not
lexed whole: cut only after those, `a|b|c|...` peaked at 72 bytes per node.
"""

import random
import tracemalloc

import pytest

from illation.formulas import PROPOSITIONAL, walk
from illation.notations import Notation, parse, print_formula

LEAVES = 20_000


def random_polish(rng: random.Random, leaves: int) -> str:
    """A Polish formula with `leaves` variable occurrences over 16 letters,
    split at random, with a negation over about one node in ten."""
    out, todo = [], [leaves]
    while todo:
        n = todo.pop()
        if rng.random() < 0.1:
            out.append("N")
        if n == 1:
            out.append(rng.choice("abcdefghijklmnop"))
            continue
        out.append(rng.choice("CKA"))
        k = rng.randint(1, n - 1)
        todo += (n - k, k)
    return "".join(out)


def test_polish_parse_and_print_hold_little_beyond_the_tree():
    text = random_polish(random.Random(22), LEAVES)
    tracemalloc.start()
    try:
        f = parse(text, Notation.POLISH)
        tree, parse_peak = tracemalloc.get_traced_memory()
        added = {}
        for notation in (Notation.POLISH, Notation.PEANO_RUSSELL):
            tracemalloc.reset_peak()
            printed = print_formula(f, notation)
            added[notation] = tracemalloc.get_traced_memory()[1] - tree
            del printed
    finally:
        tracemalloc.stop()
    assert print_formula(f, Notation.POLISH) == text
    nodes = len({id(g) for g in walk(f, PROPOSITIONAL)})  # 16 shared leaves
    assert nodes > LEAVES
    assert parse_peak / nodes <= 52, parse_peak / nodes
    assert max(added.values()) < 0.3 * 2**20, added


@pytest.mark.parametrize("notation", [Notation.PEANO_RUSSELL, Notation.PEIRCE,
                                      Notation.SCHROEDER], ids=lambda n: n.value)
def test_algebraic_parse_holds_little_beyond_the_tree(notation):
    f = parse(random_polish(random.Random(22), LEAVES), Notation.POLISH)
    text = print_formula(f, notation)
    tracemalloc.start()
    try:
        g = parse(text, notation)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == f
    nodes = len({id(h) for h in walk(g, PROPOSITIONAL)})  # 16 shared leaves
    assert nodes > LEAVES
    assert parse_peak / nodes <= 52, parse_peak / nodes


def test_a_flat_chain_is_lexed_a_slice_at_a_time():
    rng = random.Random(25)
    text = "|".join(rng.choice("abcdefghijklmnop") for _ in range(100_000))
    tracemalloc.start()
    try:
        g = parse(text, Notation.PEANO_RUSSELL)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes = len({id(h) for h in walk(g, PROPOSITIONAL)})  # 16 shared leaves
    assert nodes == 100_000 + 15
    assert parse_peak / nodes <= 52, parse_peak / nodes
