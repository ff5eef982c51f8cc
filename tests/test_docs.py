"""The examples of the command-line paragraph and the limits section of
docs/grammars.md, run in process, and the limits table's values.

Each example's exit code is checked, and so is its one line of output (the
first line, for help), which must also appear word for word in the
paragraph, so the contract and its description cannot drift apart.  Each
row of the limits table names a constant of `illation.errors`, and its
value column must be that constant's value.
"""

from pathlib import Path

import pytest

from illation import errors
from test_deep import run

GRAMMARS = Path(__file__).resolve().parent.parent / "docs" / "grammars.md"
FORTY = "".join(f"Pi x{i} . " for i in range(40)) + "p(x0)"
REFLEXIVE = "Pi i . Sum j . l(i,j) > l(i,j)"

# (argv, the command as the paragraph spells it, exit code, output line)
EXAMPLES = {
    "sat-reads-5-of-25-cells": (
        ["sat", "--domain", "5", "Sum i . l(i,i)"], "sat --domain 5 'Sum i . l(i,i)'", 0,
        '{"domain": 5, "predicates": {"l": {"arity": 2, "true": [[4, 4]]}}}'),
    "domain-over-the-atom-limit": (
        ["sat", "--domain", "17", "Sum i . l(i,i)"], "sat --domain 17 'Sum i . l(i,i)'", 3,
        "limit exceeded: expansion needs more than 16 distinct atoms"),
    "expand-past-the-cell-limit": (
        ["expand", "--domain", "17", "Pi i . p(i)"], "expand --domain 17 'Pi i . p(i)'", 0,
        " ".join(f"p_{i}" for i in range(17))),
    "sat-25-cells-over-the-limit": (
        ["sat", "--domain", "5", REFLEXIVE], f"sat --domain 5 '{REFLEXIVE}'", 3,
        "limit exceeded: expansion needs more than 16 distinct atoms"),
    "herbrand-arity-clash": (
        ["scan", "--herbrand", "--max-size", "2", "Sum i . l(i) | ~l(i,i)"],
        "scan --herbrand --max-size 2 'Sum i . l(i) | ~l(i,i)'", 2,
        "error: predicate 'l' used with arities 1 and 2"),
    "expand-6-quantifiers": (
        ["expand", "--domain", "16", "Pi i . Pi j . Pi k . Pi l . Pi m . Pi o . p(i)"],
        "expand --domain 16 'Pi i . Pi j . Pi k . Pi l . Pi m . Pi o . p(i)'", 3,
        "limit exceeded: expansion needs more than 65,536 atom occurrences"),
    "scan-40-quantifiers": (
        ["scan", "--max-size", "1", FORTY],
        "`scan --max-size 1` on `Pi x0 . Pi x1 . ... Pi x39 . p(x0)`", 3,
        "limit exceeded: extension to size 2: expansion needs more than 65,536 atom "
        "occurrences"),
    "translate-15-nested-E": (
        ["translate", "--from", "polish", "--to", "peirce", "E" * 15 + "abcdefghijklmnop"],
        "`translate --from polish --to peirce` on 15 nested `E`, "
        "`EEEEEEEEEEEEEEEabcdefghijklmnop`", 3,
        "limit exceeded: connective expansions add more than 65,536 atom occurrences"),
}


# (argv, exit code, the first line of output); the paragraph spells each argv
COMMAND_LINE = {
    "peirce-negation-is-a-value": (["taut", "--notation", "peirce", "-a"], 1,
                                   "counterexample: a=v"),
    "double-dash-ends-the-options": (["taut", "--notation", "peirce", "--", "-a"], 1,
                                     "counterexample: a=v"),
    "help-after-the-command": (["pair-check", "-h"], 0,
                               "usage: illation pair-check [-h] [--atoms ATOMS]"),
    "help-after-a-refused-word": (["taut", "--bogus", "-h"], 2,
                                  "error: unknown option: '--bogus'"),
    "prefix-refused": (["taut", "--meth", "indirect", "a"], 2, "error: unknown option: '--meth'"),
    "bad-choice": (["taut", "--method", "bogus", "a"], 2,
                   "error: argument --method: invalid choice: 'bogus' (choose from 'full', "
                   "'indirect')"),
}


def paragraph(head, end="\n\n"):
    """The text from `head` to `end`, whitespace runs read as one space."""
    text = GRAMMARS.read_text()
    start = text.index(head)
    return " ".join(text[start:text.index(end, start)].split())


LIMITS = paragraph("Limits:", "\nDepth:")


@pytest.mark.parametrize("name", COMMAND_LINE)
def test_command_line_paragraph_examples_run_as_documented(name):
    argv, code, line = COMMAND_LINE[name]
    text = paragraph("Command line:")
    assert " ".join(argv) in text and line in text
    status, out, err = run(*argv)
    assert status == code
    shown, other = (err, out) if code == 2 else (out, err)
    assert shown.startswith(line + "\n") and other == ""


@pytest.mark.parametrize("name", EXAMPLES)
def test_limits_paragraph_examples_run_as_documented(name):
    argv, spelled, code, line = EXAMPLES[name]
    assert spelled in LIMITS and line in LIMITS
    out, err = ("", line + "\n") if code else (line + "\n", "")
    assert run(*argv) == (code, out, err)


def test_limits_table_gives_each_bound_its_value():
    text = GRAMMARS.read_text()
    rows = [line.strip("|").split("|") for line in text.splitlines() if line.startswith("| `MAX_")]
    table = {name.strip(" `"): int(value.strip().replace(",", "")) for name, value, *_ in rows}
    assert table == {name: getattr(errors, name) for name in dir(errors)
                     if name.startswith("MAX_")}
