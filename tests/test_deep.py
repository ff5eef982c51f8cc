"""Deep inputs through the CLI: flat chains of 10^4 and 10^5 terms.

Peirce's sums and products fold left, so a chain of n terms is a tree n
levels deep.  Every command here walks such trees without recursing, so
each must answer as it does on a short input.  The expected text is built
directly from the chain's leaves, not by the printers under test.  The
parsers take brackets and negations nested 10^4 and 10^5 deep; nesting that
the witness check of `sat` and `scan` cannot take ends in exit 3 with one
line on stderr.
"""

import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from illation import cli
from illation.frege import render_frege
from illation.notations import Notation, parse

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


# `sat` and `scan` check their witness with the recursive Tarskian evaluator,
# the one place where depth is bounded; past it the CLI exits 3.
@pytest.mark.parametrize("argv, stdin", [
    (["sat", "--domain", "1", "-"], "Pi i . " + "~(" * 1_500 + "p(i)" + ")" * 1_500),
    (["scan", "--max-size", "1", "-"], "Pi i . " + " & ".join(["p(i)"] * 1_500)),
], ids=["sat-1500-negated-brackets", "scan-1500-term-chain"])
def test_nesting_too_deep_for_the_witness_check_exits_3(argv, stdin):
    done = subprocess.run([sys.executable, "-m", "illation.cli"] + argv, input=stdin,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "limit exceeded: formula nested too deeply\n"
