"""The command line read from `cli._COMMANDS`, against argparse.

`helpers.ref_parse_args` builds argparse's tree of every command from the
same table, as the CLI did before it read the table itself.  On argument
lists of option spellings (in full, cut to a prefix, unique or not, with
`=`), values, `--`, `-`, negative numbers, words that start with `-`, help
requests and unknown words, in any order, the CLI must give the same values
wherever argparse accepts, help exactly where argparse prints help, and a
usage error everywhere else.  The one departure, `--option=--`, is refused
by the reference too (see `helpers._RefParser`).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from illation import cli

from helpers import ref_parse_args

# words that stand where a positional may, and words that are seldom valid
POSITIONALS = [["a"], ["a|b"], ["-"], ["-5"], ["-.5"], ["-a b"], [""], ["a\nb"], ["--", "-a"],
               ["--", "--"], ["a", "--"]]
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


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(argvs())
@example(["taut", "--bogus", "-h"])  # help: an unknown option waits for the end
@example(["taut", "--method", "bogus", "-h"])  # an error: a bad value is seen first
@example(["taut", "--method", "-h", "a"])  # an error: `-h` is no value
@example(["scan", "-h", "--he", "a"])  # an error: an ambiguous prefix is seen before all else
@example(["taut", "a", "--method", "full", "--"])  # an error: the `--` is left over
@example(["taut", "--method", "full", "a", "--"])
@example(["sat", "--domain", "-5", "--", "-a"])
@example(["table", "--values=--", "a"])
def test_the_command_table_reads_argv_as_argparse_did(argv):
    kind, values = ref_parse_args(argv)
    try:
        args = cli.build_parser(list(argv))
    except ValueError as err:
        assert kind == "error" and "\n" not in str(err), err
        return
    if args.command is None:
        assert kind == "help" and args.help.startswith("usage: illation")
    else:
        assert ("args", vars(args)) == (kind, values)
