"""How the time of a command grows with its input, read as a ratio of sizes.

Each case runs `cli.main` in this process on an input of size n and on one
of size 8n, and reads the best of 3 `time.process_time` readings of each.
A linear case reads about 8, a quadratic one about 64; the bound is 20, so a
case fails only where the work per element grows with the input (Goldsmith,
Aiken & Wilkerson, "Measuring empirical computational complexity", ESEC/FSE
2007).  Process start and argument parsing are not in the readings, and a
run takes a few milliseconds at size n, so they hardly count in the ratio.

Cases: `translate` of a flat chain and of nested negations, from and to each
notation, and `expand` under nested quantifiers.
"""

import io
import sys
import time
from contextlib import redirect_stdout
from functools import reduce

import pytest

from illation import cli
from illation.formulas import Neg, Prod, Sum, Var
from illation.notations import Notation, print_formula

N = 400
NAMES = "bcdefghijklmnopq"  # single letters, as Polish spells every name
RATIO = 20
NOTATIONS = list(Notation)


def seconds(argv: list[str], stdin: str) -> float:
    """The least process time of 3 runs of `cli.main(argv)` with `stdin`;
    each must answer with exit 0."""
    best, saved = float("inf"), sys.stdin
    try:
        for _ in range(3):
            sys.stdin = io.StringIO(stdin)
            start = time.process_time()
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            best = min(best, time.process_time() - start)
            assert code == 0, argv
    finally:
        sys.stdin = saved
    return best


def chain(n: int):
    """A sum, folded left, of products of two names: 2n leaves."""
    return reduce(Sum, [Prod(Var("a"), Var(NAMES[k % 16])) for k in range(n)])


def negations(n: int):
    """n negations, each over a product, nested n deep."""
    f = Var("a")
    for k in range(n):
        f = Neg(Prod(Var(NAMES[k % 16]), f) if k % 2 else f)
    return f


def nested_quantifiers(n: int) -> str:
    """n quantifiers nested, each over an atom that reads its own index and
    the outermost one.  Read over one element, since each further element
    doubles the expansion at every level."""
    text = f"Pi i{n - 1} . l(i0,i{n - 1})"
    for k in reversed(range(n - 1)):
        text = f"{('Pi', 'Sum')[k % 2]} i{k} . l(i0,i{k}) & ({text})"
    return text


@pytest.mark.parametrize("family", [chain, negations])
@pytest.mark.parametrize("src", NOTATIONS, ids=lambda n: n.value)
def test_translate_grows_linearly(family, src):
    dst = NOTATIONS[(NOTATIONS.index(src) + 1) % len(NOTATIONS)]
    argv = ["translate", "--from", src.value, "--to", dst.value, "-"]
    small, large = (seconds(argv, print_formula(family(n), src)) for n in (N, 8 * N))
    assert large / small < RATIO, (small, large)


def test_expand_under_nested_quantifiers_grows_linearly():
    argv = ["expand", "--domain", "1", "--to", "peano-russell", "-"]
    small, large = (seconds(argv, nested_quantifiers(n)) for n in (2 * N, 16 * N))
    assert large / small < RATIO, (small, large)
