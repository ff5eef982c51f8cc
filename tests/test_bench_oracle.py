"""The relational commands against the benchmark's reference model.

`bench/oracle.py` is written apart from the package and imports nothing
from it.  Random closed formulas are built as its tuples, printed with its
`render_relational`, and fed on stdin to the CLI run in this process; the
exit code and stdout of `sat`, `scan`, `scan --herbrand` and `expand` must be
the ones the oracle computes.  Domains stay at 1-3 and the predicates at
arity 1-2 over at most 12 cells, so every case is inside the package's
limits (the oracle has none).  The tables of the propositional commands are
not checked here: the oracle's table of a formula with no variables is not
yet the one `docs/grammars.md` describes.
"""

import importlib.util
import random
from pathlib import Path

from test_deep import run

_SPEC = importlib.util.spec_from_file_location(
    "bench_oracle", Path(__file__).resolve().parent.parent / "bench" / "oracle.py")
O = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(O)

ARITY = {"p": 1, "q": 1, "l": 2, "r": 2}
INDICES = ("i", "j", "k")
MAX_CELLS = 12


def closed_formula(rng, bound=(), size=6):
    """A closed oracle tuple of about `size` nodes; no quantifier shadows
    an index bound above it, as the package requires."""
    fresh = [ix for ix in INDICES if ix not in bound]
    if bound and (size <= 1 or rng.random() < 0.25):
        name = rng.choice(list(ARITY))
        return ("atom", name, tuple(rng.choice(bound) for _ in range(ARITY[name])))
    if fresh and (not bound or rng.random() < 0.3):
        ix = rng.choice(fresh)
        return (rng.choice(("pi", "sigma")), ix, closed_formula(rng, bound + (ix,), size - 1))
    if rng.random() < 0.25:
        return ("not", closed_formula(rng, bound, size - 1))
    left = rng.randint(1, max(1, size - 2))
    return (rng.choice(O.BINARY), closed_formula(rng, bound, left),
            closed_formula(rng, bound, size - 1 - left))


def cell_count(f, n):
    return sum(n**arity for arity in O.signature(f).values())


def test_relational_commands_print_what_the_oracle_computes():
    rng = random.Random(1881)
    for _ in range(100):  # 400 checks
        f = closed_formula(rng, size=rng.randint(2, 7))
        pick = rng.random()
        if pick < 0.25:  # valid at every size, so the Herbrand scan finds one
            f = rng.choice((("or", f, ("not", f)), ("imp", f, f)))
        elif pick < 0.45:  # no model at any size
            f = ("and", f, ("not", f))
        sizes = [n for n in (1, 2, 3) if cell_count(f, n) <= MAX_CELLS]
        n = rng.choice(sizes)
        text = O.render_relational(f)
        expansion = O.render(O.expand(f, n), "peirce") + "\n"
        code, out, _ = O.sat_output(f, n)
        assert run("sat", "--domain", str(n), "-", stdin=text) == (code, out, ""), text
        assert run("expand", "--domain", str(n), "-", stdin=text) == (0, expansion, ""), text
        code, out, _ = O.scan_output(f, n)
        assert run("scan", "--max-size", str(n), "-", stdin=text) == (code, out, ""), text
        code, out = O.herbrand_output(f, n)
        assert run("scan", "--herbrand", "--max-size", str(n), "-", stdin=text) == (
            code, out, ""), text
