"""The command line read from `cli._COMMANDS`, against argparse.

`helpers.ref_parse_args` builds argparse's tree of every command from the
same table, with options spelled in full only (`allow_abbrev=False`).  On
argument lists of option spellings (in full, cut to a prefix, with `=`),
values, `--`, `-`, negative numbers, words that start with `-`, help
requests and unknown words, in any order:

- where the reference accepts a list with no help word (one that starts
  with `-h` or `--help`), the CLI gives the same values;
- where the CLI accepts and the reference refuses, the list holds a word
  that starts with a single `-`, which the CLI reads as a value (Peirce's
  negation `-a`), or ends in a `--`, which the CLI reads as ending the
  options and argparse may leave over;
- everything else is help or a one-line usage error.

The help cases, where argparse's order differs from reading left to right,
and the refused prefixes are pinned by a table.  Every list drawn is also run
through `main`, which must end in exit 0-3 with at most one stderr line.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from illation import cli

from helpers import ref_parse_args
from test_deep import run

# words that stand where a positional may, and words that are seldom valid
POSITIONALS = [["a"], ["a|b"], ["-"], ["-5"], ["-.5"], ["-a b"], [""], ["a\nb"], ["--", "-a"],
               ["--", "--"], ["a", "--"], ["-a"], ["-a", "b"]]
ODD = ["--", "-h", "--help", "--he", "--h", "-hh", "-hx", "-h=h", "-h=", "--help=x", "--bogus",
       "--bogus=1", "-z", "-a", "-5x", "-5\n", "--=x", "---", "a", "3", "full"]


def option_pieces(name):
    """Each option of command `name` with a value (a choice, an int, a
    negative one, a bad one), spelled in full, cut to a prefix of three or
    four characters, and with `=`; with no value, and with `=--`."""
    pieces = []
    for flag, options in cli._COMMANDS.get(name, ("", []))[1]:
        if flag[0] != "-":
            continue
        if options.get("action") == "store_true":
            pieces += [[flag], [flag[:5]], [flag + "=x"]]
            continue
        values = [str(c) for c in options.get("choices", [3, -2, "x"])]
        for value in values:
            pieces += [[flag, value], [f"{flag}={value}"], [flag[:3], value], [flag[:4], value]]
        pieces += [[flag], [flag + "=--"], [f"{flag[:4]}={values[0]}"]]
    return pieces


@st.composite
def argvs(draw):
    """An argument list: program options (mostly none), a command (mostly
    one of the table's), then its options, a positional and an odd word,
    each group drawn mostly valid, in any order."""
    name = draw(st.sampled_from([*cli._COMMANDS, *cli._COMMANDS, "frobnicate", None]))
    options = option_pieces(name)
    groups = draw(st.lists(st.sampled_from(options), max_size=3)) if options else []
    groups.append(draw(st.sampled_from(POSITIONALS + [[], []])))
    groups += draw(st.lists(st.sampled_from([[w] for w in ODD]), max_size=1))
    words = [word for group in draw(st.permutations(groups)) for word in group]
    before = draw(st.lists(st.sampled_from(ODD), max_size=1))
    return before + ([name] if name else []) + words


def departs(argv):
    """Whether `argv` holds a word that argparse and the CLI read apart: one
    that starts with a single `-` (the CLI's value, argparse's option, unless
    it is `-`, a negative number or holds a space), or a trailing `--`."""
    return argv[-1:] == ["--"] or any(
        w[:1] == "-" and w[:2] != "--" and " " not in w
        and not re.fullmatch(r"-|-\d+|-\d*\.\d+", w) for w in argv)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(argvs())
@example(["taut", "a", "--method", "full", "--"])  # the CLI's: the `--` ends the options
@example(["taut", "--method", "full", "a", "--"])
@example(["taut", "--notation", "peirce", "-a"])  # the CLI's: `-a` is a value
@example(["sat", "--domain", "-5", "--", "-a"])
@example(["table", "--values=--", "a"])
@example(["taut", "-hh"])
def test_the_command_table_reads_argv_as_exact_option_argparse(argv):
    kind, values = ref_parse_args(argv)
    try:
        args = cli.build_parser(list(argv))
    except ValueError as err:
        assert "\n" not in str(err), err
        assert kind != "args" or any(w.startswith(("-h", "--help")) for w in argv), values
        answer = "error"
    else:
        if args.command is None:
            assert args.help.startswith("usage: illation")
            assert kind == "help" or departs(argv), kind
            answer = "help"
        else:
            assert kind == "args" or departs(argv), kind
            if kind == "args":
                assert vars(args) == values
            answer = "args"
    code, out, err = run(*argv)
    assert code in (0, 1, 2, 3) and err.count("\n") <= 1, (code, err)
    assert code == {"help": 0, "error": 2}.get(answer, code)


# Where reading left to right answers otherwise than argparse's order did,
# and the prefixes argparse took: (argv, "help", "error", or some values).
PINNED = [
    (["taut", "--bogus", "-h"], "error"),  # argparse printed help: it refused unknown words last
    (["taut", "--method", "bogus", "-h"], "error"),
    (["taut", "--method", "-h", "a"], "error"),  # `-h` is an option, so no value
    (["taut", "a", "-h"], "help"),
    (["taut", "--help=x"], "error"),
    (["scan", "--herbrand=x", "a"], "error"),
    (["-hh"], "error"),  # argparse read `-hh` as `-h -h`; the CLI only as a value
    (["taut", "-hh"], {"formula": "-hh"}),
    (["taut", "--", "-h"], {"formula": "-h"}),
    (["taut", "--meth", "indirect", "a"], "error"),  # argparse took a unique prefix
    (["scan", "-h", "--he", "a"], "help"),  # argparse refused an ambiguous prefix anywhere
    (["scan", "--he", "-h", "a"], "error"),
    (["taut", "--notation", "peirce", "-a"], {"notation": "peirce", "formula": "-a"}),
]


@pytest.mark.parametrize("argv, answer", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_help_and_prefixes_read_left_to_right(argv, answer):
    try:
        args = cli.build_parser(argv)
    except ValueError as err:
        assert "\n" not in str(err)
        got = "error"
    else:
        got = "help" if args.command is None else {key: vars(args)[key] for key in answer}
    assert got == answer
