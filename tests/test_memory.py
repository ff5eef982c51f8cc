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
The counterexample scan's blocks grow to 2^15 rows over 16 variables, and a
chain of last sides, as in a | (b & ~(c > d)), holds two row masks however
long it is: on the four right-nested tautologies over 16 variables below,
the scan peaks at 0.1 MB.  Over blocks of 2^10 rows alone, each binary
node holding its left side's mask and the mask of the rows its right side
is reached on, they peaked at 2.2, 1.6, 3.9 and 0.5 MB; with the blocks
grown but a mask still held per level, at 0.9, 1.6, 42.8 and 8.5 MB.
"""

import random
import tracemalloc
from functools import partial

import pytest

from illation.formulas import (
    EQUIVALENCE_INDEX, PROPOSITIONAL, Claw, Conn16, Neg, Prod, Sum, Var, walk,
)
from illation.notations import Notation, parse, print_formula
from illation.truth import find_counterexample

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


def right_nested(shape, parts):
    acc = parts[-1]
    for part in reversed(parts[:-1]):
        acc = shape(part, acc)
    return acc


SIXTEEN = [Var(chr(ord("a") + i)) for i in range(16)]
A, O, P = SIXTEEN[0], SIXTEEN[14], SIXTEEN[15]
DEEP = {  # each a tautology read down to its last term on some rows of the scan
    "sum": right_nested(Sum, [SIXTEEN[i % 16] for i in range(9_999)] + [Neg(A)]),
    "claw": right_nested(Claw, [SIXTEEN[i % 16] for i in range(9_999)] + [A]),
    # the left sides are masks made on rows the scan does not decide
    "sum-of-products": right_nested(
        Sum, [Prod(x, Neg(x)) for x in SIXTEEN] + [Prod(O, P)] * 10_000 + [Sum(Neg(A), A)]),
    "equivalences": right_nested(
        partial(Conn16, EQUIVALENCE_INDEX),
        [x for x in SIXTEEN for _ in "xx"] + [Prod(O, P)] * 2_000 + [Sum(Neg(A), A)]),
}


@pytest.mark.parametrize("name", DEEP)
def test_a_deep_scan_holds_no_mask_per_level(name):
    """`x_1 | (x_2 | ... | ~a)` and `x_1 > (x_2 > ... > a)`, the x cycling
    through 16 variables; 16 contradictions `x & ~x`, 10^4 copies of
    `o & p`, then `~a | a`, in a right-nested sum; and the 16 variables,
    each twice, then 2,000 copies of `o & p`, in a right-nested chain of
    equivalences that ends in `~a | a`."""
    tracemalloc.start()
    try:
        assert find_counterexample(DEEP[name]) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2**20, peak
