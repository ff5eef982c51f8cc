"""Command line interface.

Exit codes: 0 success (and `-h`, which prints help), 1 semantic negative
(not a tautology, no model, not all axioms hold), 2 usage or parse errors
(stdout stays empty, one `error:` line on stderr), 3 an enumeration limit
was exceeded (one `limit exceeded:` line).  With stderr closed the line is
lost and the code kept.  Formulas are taken from the positional argument,
or from stdin when the argument is `-`.  Output is deterministic: the same
argv and stdin always produce byte-identical stdout.  A process ends as
soon as its output is flushed (see `console_entry`).
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import Optional

from . import arithmetic, frege, quantifiers, relsyntax, truth
from .errors import LimitExceededError
from .formulas import connective_vector
from .notations import Notation, ParseError, parse, print_formula

_NOTATION_NAMES = [n.value for n in Notation]


def _out(text: str) -> None:
    sys.stdout.write(text)


def _outline(text: str) -> None:
    sys.stdout.write(text + "\n")


def __getattr__(name: str):
    """`cli.trivalent`, imported when first read (PEP 562): only `table
    --values 3` runs it, so no other command compiles it."""
    if name != "trivalent":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import trivalent

    globals()[name] = trivalent
    return trivalent


def _errline(line: str) -> None:
    """Write `line` to stderr.  A stderr that is closed or missing loses
    the line, never to stdout, and the exit code still tells what ended the
    command."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(line + "\n")
    except OSError:
        pass


def _read_source(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    return value


def _assignment_line(assignment: dict[str, bool]) -> str:
    return " ".join(f"{name}={truth.spell(value)}" for name, value in assignment.items())


_FORMULA = ("formula", {})
_NOTATION = ("--notation", dict(choices=_NOTATION_NAMES, default="peano-russell"))
_DOMAIN = ("--domain", dict(type=int, required=True))

# Each command's help line and its arguments in help order, each a flag or
# a positional's name with its keywords: dest, type, choices, default,
# required, help, and action (only "store_true").  `build_parser` reads a
# command line from this table, and `_help` writes the help text from it.
# The keywords stay argparse's `add_argument` keywords because the tests
# build argparse's parser from this table as the reference reader.  The
# handler of a command `x-y` is `_cmd_x_y`, looked up when `main` runs.
_COMMANDS = {
    "translate": ("reprint a formula in another notation", [
        ("--from", dict(dest="src", required=True, choices=_NOTATION_NAMES)),
        ("--to", dict(dest="dst", required=True, choices=_NOTATION_NAMES + ["frege"])),
        ("--format", dict(choices=["ascii", "svg"], default=None,
                          help="rendering format (frege target only)")),
        _FORMULA]),
    "table": ("print a truth table as TSV", [
        _NOTATION, ("--values", dict(type=int, choices=[2, 3], default=2)), _FORMULA]),
    "taut": ("decide tautology status", [
        _NOTATION, ("--method", dict(choices=["full", "indirect"], default="full")), _FORMULA]),
    "connectives": ("the sixteen binary connectives and their icons", []),
    "anf": ("algebraic normal form (XOR of products)", [_NOTATION, _FORMULA]),
    "expand": ("expand quantifiers over a finite domain", [
        _DOMAIN, ("--to", dict(dest="dst", choices=_NOTATION_NAMES, default="peirce")),
        _FORMULA]),
    "sat": ("search for a satisfying structure", [_DOMAIN, _FORMULA]),
    "scan": ("satisfiability scan across domain sizes", [
        ("--max-size", dict(type=int, default=3)),
        ("--herbrand", dict(action="store_true",
                            help="scan for the least size whose expansion is a tautology")),
        _FORMULA]),
    "axioms": ("check the 1881 number axioms on a structure", [
        ("structure", dict(help="path to a structure JSON file, or - for stdin")),
        ("--json", dict(action="store_true", dest="as_json", help="print the report as JSON"))]),
    "pair-check": ("Wiener pair injectivity sweep", [("--atoms", dict(type=int, default=3))]),
}


_DESCRIPTION = ("Peirce's logic workbench: notations, truth tables, quantifier expansion,\n"
                "and the 1881 number axioms.")
_HELP_FLAGS = ("-h", "--help")


def _value(flag: str, options: dict, word: str):
    kind, choices = options.get("type"), options.get("choices")
    try:
        value = kind(word) if kind else word
    except ValueError:
        raise ValueError(f"argument {flag}: invalid {kind.__name__} value: {word!r}") from None
    if choices is not None and value not in choices:
        raise ValueError(f"argument {flag}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    return value


def _help(name: Optional[str]) -> str:
    """The help text of command `name`, or of the program for None.  It is
    fixed: no terminal width enters it."""
    if name is None:
        usage = "usage: illation [-h] {" + ",".join(_COMMANDS) + "} ..."
        head = [usage, "", _DESCRIPTION, "", "commands:"]
        rows = [(command, help_line) for command, (help_line, _) in _COMMANDS.items()]
        rows.append(("-h, --help", "print this help and exit; after a command, its help"))
    else:
        help_line, specs = _COMMANDS[name]
        usage, rows = ["usage: illation", name, "[-h]"], []
        for flag, options in specs:
            shown, notes = flag, [options.get("help")]
            if flag[0] == "-" and "action" not in options:
                choices = options.get("choices")
                shown += " " + ("{" + ",".join(map(str, choices)) + "}" if choices
                                else flag[2:].upper().replace("-", "_"))
                notes.append("required" if options.get("required") else None)
                if options.get("default") is not None:
                    notes.append(f"default {options['default']}")
            usage.append(shown if flag[0] != "-" or options.get("required") else f"[{shown}]")
            rows.append((shown, "; ".join(filter(None, notes))))
        rows.append(("-h, --help", "print this help and exit"))
        head = [" ".join(usage), "", help_line, "", "arguments:"]
    width = max(len(shown) for shown, _ in rows)
    return "\n".join(head + [f"  {shown:<{width}}  {note}".rstrip() for shown, note in rows]) + "\n"


def _is_option(word: str) -> bool:
    return word == "-h" or (word[:2] == "--" and word != "--")


def build_parser(argv: list[str]) -> SimpleNamespace:
    """The arguments `argv` gives: the command and its values, or, for
    `-h`, no command and the help text.  `argv[0]` is `-h`, `--help` or a
    command, whose words are read left to right: a word that is `-h` or
    starts with `--` is an option, spelled in full, and every other word,
    and every word after the first `--`, is a value.  The first word
    refused raises `ValueError`."""
    if not argv:
        raise ValueError("the following arguments are required: command")
    name = argv[0]
    if name in _HELP_FLAGS:
        return SimpleNamespace(command=None, help=_help(None))
    if name not in _COMMANDS:
        raise ValueError(f"argument command: invalid choice: {name!r} "
                         f"(choose from {', '.join(map(repr, _COMMANDS))})")
    values, positionals, required = {"command": name}, [], []
    flags = dict.fromkeys(_HELP_FLAGS, (None, {}))  # option -> (dest, options); None for help
    for flag, options in _COMMANDS[name][1]:
        dest = options.get("dest", flag.lstrip("-").replace("-", "_"))
        values[dest] = options.get("default", False if "action" in options else None)
        if flag[0] == "-":
            flags[flag] = dest, options
        else:
            positionals.append(dest)
        if flag[0] != "-" or options.get("required"):
            required.append((flag, dest))
    words, ended = iter(argv[1:]), False
    for word in words:
        if word == "--" and not ended:
            ended = True
        elif ended or not _is_option(word):
            if not positionals:
                raise ValueError(f"unexpected value: {word!r}")
            values[positionals.pop(0)] = word
        else:
            flag, equals, value = word.partition("=")
            if flag not in flags:
                raise ValueError(f"unknown option: {word!r}")
            dest, options = flags[flag]
            if dest is None or "action" in options:  # help and store_true take no value
                if equals:
                    raise ValueError(f"argument {flag}: takes no value, given {value!r}")
                if dest is None:
                    return SimpleNamespace(command=None, help=_help(name))
                values[dest] = True
                continue
            if not equals:
                value = next(words, "--")
                if value == "--" or _is_option(value):
                    raise ValueError(f"argument {flag}: expected one argument")
            values[dest] = _value(flag, options, value)
    missing = [flag for flag, dest in required if values[dest] is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**values)


def main(argv: Optional[list[str]] = None) -> int:
    """Run the command `argv` names and return its exit code; the process
    goes on.  Its output is flushed before it returns 0 or 1, so a write that
    fails, to a pipe whose reader has gone or to a closed stdout, ends in the
    one `error:` line and exit 2.  The cyclic collector is paused while it
    runs: a command builds trees of frozen records, which hold no cycle, so
    the collections their allocations set off would find nothing.  The
    collector is left as it was found, however `main` ends."""
    argv = sys.argv[1:] if argv is None else argv
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser(argv)
        if sys.stdout is None:  # the process started with no file descriptor 1
            raise OSError("stdout is closed")
        if args.command is None:  # -h or --help
            _out(args.help)
            code = 0
        else:
            code = globals()["_cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()
        return code
    except LimitExceededError as err:
        _errline(f"limit exceeded: {err}")
        return 3
    except (ParseError, ValueError, OSError) as err:  # PrintError and JSONDecodeError too
        _errline(f"error: {err}")
        return 2
    finally:
        if enabled:
            gc.enable()


def console_entry() -> None:
    """The process entry of `python -m illation.cli` and of the `illation`
    script.  It runs `main`, flushes stdout and stderr, and ends the process
    at once with `os._exit`: the interpreter's teardown (unloading modules,
    a last collection, freeing every object) has nothing left to write, and
    takes several milliseconds, more than most commands' own work.  So
    `atexit` handlers do not run.  A flush that fails here follows an exit 2 or 3 whose line is
    already out, and keeps that code.  Under a tracer or profiler the
    process exits through `sys.exit`, so that the tool writes its report."""
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # 3.12+: where cProfile and coverage hook in
    if (sys.gettrace() or sys.getprofile()
            or monitoring and any(map(monitoring.get_tool, range(6)))):
        sys.exit(code)
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            pass
    os._exit(code)


def _cmd_translate(args) -> int:
    formula = parse(_read_source(args.formula), Notation(args.src))
    if args.dst == "frege":
        for line in frege.render_lines(formula, args.format or "ascii"):
            _outline(line)
        return 0
    if args.format is not None:
        raise ValueError("--format applies only to the frege target")
    _outline(print_formula(formula, Notation(args.dst)))
    return 0


def _cmd_table(args) -> int:
    formula = parse(_read_source(args.formula), Notation(args.notation))
    if args.values == 2:
        table = truth.truth_table(formula)
    else:  # read from the module, so that its `__getattr__` imports `trivalent`
        table = sys.modules[__name__].trivalent.tri_table(formula)
    for block in table.tsv_blocks():
        _out(block)
    return 0


def _cmd_taut(args) -> int:
    formula = parse(_read_source(args.formula), Notation(args.notation))
    if args.method == "full":
        try:
            counterexample = truth.find_counterexample(formula)
        except LimitExceededError as err:
            raise LimitExceededError(f"{err}; try --method indirect") from None
        if counterexample is None:
            _outline("tautology")
            return 0
        _outline("counterexample: " + _assignment_line(counterexample))
        return 1
    result = truth.indirect_falsify(formula)
    if isinstance(result, truth.Tautology):
        _outline("tautology")
        for i, (name, value) in enumerate(result.trace):
            suffix = " (contradiction)" if i == len(result.trace) - 1 else ""
            _outline(f"force {name}={truth.spell(value)}{suffix}")
        return 0
    _outline("counterexample: " + _assignment_line(result.counterexample))
    return 1


def _cmd_connectives(args) -> int:
    _outline("index\tvv\tvf\tfv\tff")
    for index in range(1, 17):
        cells = "\t".join(truth.spell(v) for v in connective_vector(index))
        _outline(f"{index}\t{cells}")
    for index in range(1, 17):
        _outline("")
        _outline(str(index))
        _outline(truth.xframe(index))
    return 0


def _cmd_anf(args) -> int:
    formula = parse(_read_source(args.formula), Notation(args.notation))
    _outline(str(truth.anf(formula)))
    return 0


def _cmd_expand(args) -> int:
    formula = relsyntax.parse_relational(_read_source(args.formula))
    expansion = quantifiers.expand(formula, args.domain)
    _outline(print_formula(expansion, Notation(args.dst)))
    return 0


def _cmd_sat(args) -> int:
    import json

    formula = relsyntax.parse_relational(_read_source(args.formula))
    witness = quantifiers.sat_search(formula, args.domain)
    if witness is None:
        _outline("none")
        return 1
    _outline(json.dumps(quantifiers.structure_to_json(witness)))
    return 0


def _cmd_scan(args) -> int:
    import json

    if args.max_size < 1:
        raise ValueError("--max-size must be at least 1")
    formula = relsyntax.parse_relational(_read_source(args.formula))
    if args.herbrand:
        found = quantifiers.herbrand_scan(formula, args.max_size)
        if found is None:
            _outline(f"no valid size up to {args.max_size}")
            return 1
        size, expansion = found
        _outline(f"least valid size: {size}")
        _outline("expansion: " + print_formula(expansion, Notation.PEIRCE))
        return 0
    report = quantifiers.sat_scan(formula, args.max_size)
    extensions = dict(report.extensions)
    for size, witness in report.verdicts:
        if witness is None:
            _outline(f"size {size}: none")
            continue
        _outline(f"size {size}: satisfiable "
                 + json.dumps(quantifiers.structure_to_json(witness)))
        _outline(f"extend {size} -> {size + 1}: "
                 + json.dumps(quantifiers.structure_to_json(extensions[size])))
    return 0 if report.extensions else 1


def _cmd_axioms(args) -> int:
    import json

    if args.structure == "-":
        raw = sys.stdin.read()
    else:
        with open(args.structure, encoding="utf-8") as handle:
            raw = handle.read()
    try:
        data = json.loads(raw)
    except RecursionError:  # the stdlib decoder recurses once per bracket
        raise ValueError("structure JSON is nested too deeply") from None
    report = arithmetic.check_axioms(arithmetic.number_structure_from_json(data))
    if args.as_json:
        _outline(json.dumps(arithmetic.report_json(report)))
    else:
        _out(arithmetic.report_text(report))
    return 0 if report.all_hold() else 1


def _cmd_pair_check(args) -> int:
    if args.atoms < 1 or args.atoms > 4:
        raise ValueError("--atoms must be between 1 and 4")
    failures, atom_comparisons, nested_comparisons = arithmetic.pair_injectivity(args.atoms)
    if failures:
        _outline(f"pair injectivity: FAILED ({failures} violations)")
        return 1
    _outline(
        f"pair injectivity: ok ({atom_comparisons} atom-level comparisons, "
        f"{nested_comparisons} nested comparisons)"
    )
    return 0


if __name__ == "__main__":
    console_entry()
