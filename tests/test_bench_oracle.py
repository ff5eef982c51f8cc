"""The CLI against the benchmark's reference model.

`bench/oracle.py` is written apart from the package and imports nothing
from it.  Random formulas are built as its tuples, printed with its
`render` or `render_relational`, and fed on stdin to the CLI run in this
process; the exit code and stdout must be the ones the oracle computes.

- Propositional: `translate` between every pair of the four notations
  (Polish only for formulas without constants), `taut` and `anf`, on
  formulas with and without constants and with no variables at all.
- Relational: `sat`, `scan`, `scan --herbrand`, and `expand` printed in
  each of the four notations, on closed formulas.  Domains stay at 1-3 and
  the predicates at arity 1-2 over at most 12 cells, so every case is inside
  the package's limits (the oracle has none).
- Number structures: `axioms -` and `axioms - --json` on chains, chains
  broken in one way, and random relations on 1-7 elements: the verdict of
  each axiom, `all_hold` and the exit code.

- Tables: `table` and `table --values 3` on formulas with 1-5 variables,
  the three-valued ones over `not`, `and` and `or` alone, as Peirce's
  matrices define no other connective.  Formulas with no variables stay
  out: for them the oracle prints `value\n\tv\n` where the package prints
  `value\nv\n`, as `docs/grammars.md` says, and the oracle is mended in
  `bench/` (ROADMAP item 1).
"""

import importlib.util
import json
import random
import re
from pathlib import Path

from test_deep import run

_SPEC = importlib.util.spec_from_file_location(
    "bench_oracle", Path(__file__).resolve().parent.parent / "bench" / "oracle.py")
O = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(O)

NOTATIONS = ("peano-russell", "peirce", "schroeder", "polish")
ARITY = {"p": 1, "q": 1, "l": 2, "r": 2}
INDICES = ("i", "j", "k")
MAX_CELLS = 12


def prop_formula(rng, names, size):
    """An oracle tuple of about `size` nodes over the letters `names`;
    with none, every leaf is a constant."""
    if size <= 1:
        if not names or rng.random() < 0.2:
            return ("const", rng.random() < 0.5)
        return ("var", rng.choice(names))
    if rng.random() < 0.25:
        return ("not", prop_formula(rng, names, size - 1))
    left = rng.randint(1, max(1, size - 2))
    return (rng.choice(O.BINARY), prop_formula(rng, names, left),
            prop_formula(rng, names, size - 1 - left))


def test_propositional_commands_print_what_the_oracle_computes():
    rng = random.Random(1879)
    for _ in range(64):  # 872 checks, 22 formulas with no variables
        f = prop_formula(rng, rng.choice(("", "a", "ab", "abcde")), rng.randint(1, 9))
        texts = {name: O.render(f, name) for name in NOTATIONS
                 if name != "polish" or "const" not in repr(f)}
        for src, text in texts.items():
            for dst, printed in texts.items():
                assert run("translate", "--from", src, "--to", dst, "-", stdin=text) == (
                    0, printed + "\n", ""), (src, dst, text)
        src = rng.choice(list(texts))
        code, out = O.taut_line(f)
        assert run("taut", "--notation", src, "-", stdin=texts[src]) == (code, out, ""), f
        assert run("anf", "--notation", src, "-", stdin=texts[src]) == (
            0, O.anf_text(f) + "\n", ""), f


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
    for _ in range(100):  # 700 checks
        f = closed_formula(rng, size=rng.randint(2, 7))
        pick = rng.random()
        if pick < 0.25:  # valid at every size, so the Herbrand scan finds one
            f = rng.choice((("or", f, ("not", f)), ("imp", f, f)))
        elif pick < 0.45:  # no model at any size
            f = ("and", f, ("not", f))
        sizes = [n for n in (1, 2, 3) if cell_count(f, n) <= MAX_CELLS]
        n = rng.choice(sizes)
        text = O.render_relational(f)
        expansion = O.expand(f, n)
        code, out, _ = O.sat_output(f, n)
        assert run("sat", "--domain", str(n), "-", stdin=text) == (code, out, ""), text
        for notation in NOTATIONS:
            assert run("expand", "--domain", str(n), "--to", notation, "-", stdin=text) == (
                0, O.render(expansion, notation) + "\n", ""), (notation, text)
        code, out, _ = O.scan_output(f, n)
        assert run("scan", "--max-size", str(n), "-", stdin=text) == (code, out, ""), text
        code, out = O.herbrand_output(f, n)
        assert run("scan", "--herbrand", "--max-size", str(n), "-", stdin=text) == (
            code, out, ""), text


def number_structure(rng):
    """(carrier, one, R) on 1-7 elements: a chain, a chain broken in one way
    (two incomparable tops, a missing transitive pair, 1 off the bottom), or
    a random relation."""
    n = rng.randint(1, 7)
    names = [str(i) for i in range(1, n + 1)]
    rng.shuffle(names)
    kinds = ["chain", "shifted", "random"] + ["fork"] * (n >= 2) + ["gap"] * (n >= 3)
    kind = rng.choice(kinds)
    if kind == "random":
        rel = {(x, y) for x in names for y in names if rng.random() < 0.5}
        return names, rng.choice(names), rel
    rank = {x: i for i, x in enumerate(names)}
    rel = {(x, y) for x in names for y in names if rank[x] <= rank[y]}
    if kind == "fork":
        rel.discard((names[-2], names[-1]))
    elif kind == "gap":
        i = rng.randrange(n - 2)
        rel.discard((names[i], names[i + 2]))
    return names, rng.choice(names) if kind == "shifted" else names[0], rel


AXIOM_LINE = re.compile(r"axiom (\S+) \((.*?)\): (pass|fail)(  witness: .+)?")


def test_axioms_report_what_the_oracle_computes():
    rng = random.Random(1880)
    for _ in range(80):  # 160 checks
        carrier, one, rel = number_structure(rng)
        verdicts, _ = O.axiom_verdicts(carrier, one, rel)
        code = 0 if all(verdicts.values()) else 1
        blob = json.dumps({"carrier": carrier, "one": one, "R": sorted(map(list, rel))})
        status, out, err = run("axioms", "-", stdin=blob)
        assert (status, err) == (code, ""), blob
        reading, *lines = out.splitlines()
        assert reading == O.READING
        got = {}
        for line in lines:
            key, label, verdict, _ = AXIOM_LINE.fullmatch(line).groups()
            assert O.AXIOM_LABELS[key] == label
            got[key] = verdict == "pass"
        assert got == verdicts, blob
        status, out, err = run("axioms", "-", "--json", stdin=blob)
        assert (status, err) == (code, ""), blob
        report = json.loads(out)
        assert {key: axiom["holds"] for key, axiom in report["axioms"].items()} == verdicts
        assert report["all_hold"] is (code == 0)


def test_tables_print_what_the_oracle_computes():
    rng = random.Random(1909)
    checked = 0
    while checked < 60:  # 120 checks
        names = "abcde"[:rng.randint(1, 5)]
        f = prop_formula(rng, names, rng.randint(3 * len(names), 24))
        if not O.variables(f):
            continue
        src = rng.choice(NOTATIONS[:3] if "const" in repr(f) else NOTATIONS)
        assert run("table", "--notation", src, "-", stdin=O.render(f, src)) == (
            0, O.table_tsv(f), ""), f
        g = three_valued(rng, names, rng.randint(3 * len(names), 24))
        src = rng.choice(NOTATIONS)
        assert run("table", "--notation", src, "--values", "3", "-",
                   stdin=O.render(g, src)) == (0, O.tri_tsv(g), ""), g
        checked += 1


def three_valued(rng, names, size):
    """An oracle tuple of about `size` nodes over `names`, with `not`,
    `and` and `or` alone and no constants."""
    if size <= 1:
        return ("var", rng.choice(names))
    if rng.random() < 0.25:
        return ("not", three_valued(rng, names, size - 1))
    left = rng.randint(1, max(1, size - 2))
    return (rng.choice(("and", "or")), three_valued(rng, names, left),
            three_valued(rng, names, size - 1 - left))


def test_a_dense_anf_matches_the_oracle():
    """`a_1 | ... | a_16` has every nonempty product as a monomial: 65,535."""
    f = ("var", "a_1")
    for i in range(2, 17):
        f = ("or", f, ("var", f"a_{i}"))
    code, out, err = run("anf", "-", stdin=O.render(f, "peano-russell"))
    assert (code, out, err) == (0, O.anf_text(f) + "\n", "")
    assert out.count(" + ") == 2**16 - 2
