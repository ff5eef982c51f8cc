"""Deep inputs through the CLI and the evaluators: flat chains of 10^4 and
10^5 terms.

Peirce's sums and products fold left, so a chain of n terms is a tree n
levels deep.  Every command here walks such trees without recursing, so
each must answer as it does on a short input.  The expected text is built
directly from the chain's leaves, not by the printers under test.  The
parsers take brackets and negations nested 10^4 and 10^5 deep, and so do
`eval2`, `eval_in` and the witness checks of `sat` and `scan`.  Structure
JSON nested deeper than the standard decoder can read is a usage error.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce

import pytest

from illation import cli
from illation.formulas import PI, SIGMA, Neg, Prod, Quant, RAtom, Sum, Var
from illation.frege import render_frege
from illation.notations import Notation, parse
from illation.quantifiers import Structure, eval_in
from illation.truth import eval2

NAMES = "abcdefghijklmnop"
TERMS = 10_000
NOTATIONS = ["peano-russell", "peirce", "schroeder", "polish"]
# notation -> (product, sum) joiner between the leaves of a left-folded chain
JOINERS = {"peano-russell": ("&", "|"), "peirce": (" ", " + "), "schroeder": (" ", " + ")}


def leaves(count, variables=16):
    return [NAMES[i % variables] for i in range(count)]


def chain(kind, notation, names):
    """A left-folded product ("and") or sum ("or") chain, as text."""
    if notation == "polish":
        return ("K" if kind == "and" else "A") * (len(names) - 1) + "".join(names)
    return JOINERS[notation][kind == "or"].join(names)


def run(*argv, stdin=""):
    """(exit code, stdout, stderr) of the CLI run in this process."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("src", NOTATIONS)
def test_translate_every_pair_at_ten_thousand_terms(src):
    kind = "or" if src in ("peano-russell", "schroeder") else "and"
    names = leaves(TERMS)
    for dst in NOTATIONS:
        code, out, err = run("translate", "--from", src, "--to", dst, "-",
                             stdin=chain(kind, src, names))
        assert (code, err) == (0, "")
        assert out == chain(kind, dst, names) + "\n", (src, dst)


def test_table_at_ten_thousand_terms():
    long, short = chain("or", "peano-russell", leaves(TERMS)), chain("or", "peano-russell", NAMES)
    code, out, _ = run("table", "-", stdin=long)
    assert code == 0 and out == run("table", short)[1]
    assert out.count("\n") == 2**16 + 1


def test_trivalent_table_at_ten_thousand_terms():
    names = leaves(TERMS, variables=10)
    long, short = chain("and", "peano-russell", names), chain("and", "peano-russell", names[:10])
    code, out, _ = run("table", "--values", "3", "-", stdin=long)
    assert code == 0 and out == run("table", "--values", "3", short)[1]
    assert out.count("\n") == 3**10 + 1


def test_tautology_methods_at_ten_thousand_terms():
    conjunction = chain("and", "peano-russell", leaves(TERMS))
    for method in ("full", "indirect"):
        code, out, _ = run("taut", "--method", method, "-", stdin=conjunction)
        assert code == 1
        assert out == "counterexample: " + " ".join(f"{n}=v" for n in NAMES[:-1]) + " p=f\n"
    disjunction = chain("or", "peano-russell", leaves(TERMS))
    code, out, _ = run("taut", "--method", "indirect", "-", stdin=disjunction)
    assert code == 1
    assert out == "counterexample: " + " ".join(f"{n}=f" for n in NAMES) + "\n"


def test_anf_at_ten_thousand_terms():
    code, out, _ = run("anf", "-", stdin=chain("and", "peano-russell", leaves(TERMS)))
    assert (code, out) == (0, NAMES + "\n")


def test_expand_at_ten_thousand_terms():
    atoms = [f"{p}(i)" for p in "pq" * (TERMS // 2)]
    code, out, _ = run("expand", "--domain", "2", "-", stdin="Pi i . " + " & ".join(atoms))
    # Pi over {0, 1} is the product of the body at 0 and, bracketed, at 1
    body = [" ".join(f"{p}_{d}" for p in "pq" * (TERMS // 2)) for d in (0, 1)]
    assert (code, out) == (0, f"{body[0]}({body[1]})\n")


def test_hundred_thousand_postfix_negations():
    code, out, _ = run("translate", "--from", "polish", "--to", "schroeder", "-",
                       stdin="N" * 100_000 + "a")
    assert (code, out) == (0, "a" + "'" * 100_000 + "\n")
    code, out, _ = run("translate", "--from", "schroeder", "--to", "frege", "-",
                       stdin="a" + "'" * 100_000)
    assert (code, out) == (0, "-|" * 100_000 + "-- a\n")


def test_streamed_frege_drawing_equals_the_rendered_string():
    text = chain("or", "peano-russell", leaves(1_600))
    code, out, _ = run("translate", "--from", "peano-russell", "--to", "frege", "-", stdin=text)
    assert code == 0
    assert out == render_frege(parse(text, Notation.PEANO_RUSSELL)) + "\n"
    assert out.count("\n") == 2 * 1_600 - 1


DEPTH = 10_000
# notation -> its prefix negation, or None for Schroeder's postfix one
NEGATION = {"peano-russell": "~", "peirce": "-", "schroeder": None}


@pytest.mark.parametrize("src", list(NEGATION))
def test_ten_thousand_brackets_in_every_algebraic_notation(src):
    code, out, err = run("translate", "--from", src, "--to", "polish", "-",
                         stdin="(" * DEPTH + "a" + ")" * DEPTH)
    assert (code, out, err) == (0, "a\n", "")
    neg = NEGATION[src]
    text = (neg + "(") * DEPTH + "a" + ")" * DEPTH if neg else "(" * DEPTH + "a" + ")'" * DEPTH
    code, out, err = run("translate", "--from", src, "--to", "polish", "-", stdin=text)
    assert (code, out, err) == (0, "N" * DEPTH + "a\n", "")


@pytest.mark.parametrize("neg", ["~", "-"])
def test_hundred_thousand_prefix_negations(neg):
    src = "peano-russell" if neg == "~" else "peirce"
    code, out, _ = run("translate", "--from", src, "--to", "polish", "-", stdin=neg * 100_000 + "a")
    assert (code, out) == (0, "N" * 100_000 + "a\n")


def test_ten_thousand_brackets_in_the_relational_grammar():
    code, out, err = run("expand", "--domain", "1", "-",
                         stdin="Pi i . " + "(" * DEPTH + "p(i)" + ")" * DEPTH)
    assert (code, out, err) == (0, "p_0\n", "")
    code, out, err = run("expand", "--domain", "1", "--to", "polish", "-",
                         stdin="Pi i . " + "~(" * DEPTH + "Sum j . p(j)" + ")" * DEPTH)
    assert (code, out, err) == (0, "N" * DEPTH + "p_0\n", "")


def negated(f, times):
    return reduce(lambda acc, _: Neg(acc), range(times), f)


def unary_model(n, true):
    """The JSON `sat` and `scan` print for a structure on n elements whose
    unary predicates hold of the elements listed in `true`."""
    return json.dumps({"domain": n, "predicates": {
        name: {"arity": 1, "true": [[e] for e in elements]}
        for name, elements in sorted(true.items())
    }})


@pytest.mark.parametrize("negations", [DEPTH, DEPTH + 1], ids=["even", "odd"])
def test_sat_at_ten_thousand_negated_brackets(negations):
    text = "Pi i . " + "~(" * negations + "p(i)" + ")" * negations
    code, out, err = run("sat", "--domain", "1", "-", stdin=text)
    # an even number of negations leaves p(i), which the first model makes true
    holds = [0] if negations % 2 == 0 else []
    assert (code, out, err) == (0, unary_model(1, {"p": holds}) + "\n", "")


def test_sat_under_twenty_thousand_nested_quantifiers():
    """The closedness check keeps one set of bound indices, not a copy per
    quantifier, so it takes linear time at this depth."""
    text = "".join(f"Pi x{i} . " for i in range(2 * DEPTH)) + "p(x0)"
    code, out, err = run("sat", "--domain", "1", "-", stdin=text)
    assert (code, out, err) == (0, unary_model(1, {"p": [0]}) + "\n", "")


def test_scan_at_ten_thousand_terms():
    text = "Pi i . " + " & ".join(f"{p}(i)" for p in "pq" * (TERMS // 2))
    code, out, err = run("scan", "--max-size", "2", "-", stdin=text)
    # the one model of each size has p and q true of every element
    everywhere = [unary_model(n, {"p": range(n), "q": range(n)}) for n in range(4)]
    assert (code, err) == (0, "")
    assert out == "".join(f"size {n}: satisfiable {everywhere[n]}\n"
                          f"extend {n} -> {n + 1}: {everywhere[n + 1]}\n" for n in (1, 2))


def test_scan_bounds_the_extension_before_it_is_built():
    """The one model of size 1 would be checked at size 2 on 2^40 atom
    occurrences; the scan exits 3 at once instead."""
    text = "".join(f"Pi x{i} . " for i in range(40)) + "p(x0)"
    assert run("scan", "--max-size", "1", text) == (
        3, "", "limit exceeded: extension to size 2: expansion needs more than 65,536 "
        "atom occurrences\n")


def test_herbrand_scan_at_ten_thousand_terms():
    terms = ["p(i)", "~p(i)"] * (TERMS // 2)
    code, out, err = run("scan", "--herbrand", "--max-size", "2", "-",
                         stdin="Pi i . " + " | ".join(terms))
    # valid at size 1, where the expansion is the chain at i = 0, in Peirce's notation
    expansion = " + ".join(t.replace("~", "-").replace("(i)", "_0") for t in terms)
    assert (code, out, err) == (0, f"least valid size: 1\nexpansion: {expansion}\n", "")


def test_eval2_at_ten_thousand_terms_and_negations():
    variables = [Var(name) for name in leaves(TERMS)]
    product, total = reduce(Prod, variables), reduce(Sum, variables)
    for env in (dict.fromkeys(NAMES, True), {**dict.fromkeys(NAMES, True), "p": False},
                dict.fromkeys(NAMES, False)):
        assert eval2(product, env) is all(env.values())
        assert eval2(total, env) is any(env.values())
    for times in (DEPTH, DEPTH + 1):
        assert eval2(negated(Var("a"), times), {"a": True}) is (times % 2 == 0)


def test_eval_in_at_ten_thousand_terms_and_negations():
    atoms = [RAtom(p, ("i",)) for p in "pq" * (TERMS // 2)]
    every, some = Quant(PI, "i", reduce(Prod, atoms)), Quant(SIGMA, "i", reduce(Sum, atoms))
    for p_true, q_true in (((0, 1), (0, 1)), ((0, 1), (1,)), ((), ())):
        s = Structure(2, {"p": (1, frozenset((e,) for e in p_true)),
                          "q": (1, frozenset((e,) for e in q_true))})
        assert eval_in(every, s) is (len(p_true) == len(q_true) == 2)
        assert eval_in(some, s) is bool(p_true or q_true)
    s = Structure(1, {"p": (1, frozenset({(0,)}))})
    for times in (DEPTH, DEPTH + 1):
        assert eval_in(Quant(PI, "i", negated(RAtom("p", ("i",)), times)), s) is (times % 2 == 0)


def test_axioms_on_json_nested_too_deeply_for_the_decoder():
    code, out, err = run("axioms", "-", stdin="[" * 100_000 + "]" * 100_000)
    assert (code, out, err) == (2, "", "error: structure JSON is nested too deeply\n")
