"""Command line interface.

Exit codes: 0 success, 1 semantic negative (not a tautology, no model, not
all axioms hold), 2 usage or parse errors (stdout stays empty), 3 an
enumeration limit was exceeded.  Formulas are taken from the positional
argument, or from stdin when the argument is `-`.  Output is deterministic:
the same argv and stdin always produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Optional

from . import arithmetic, frege, quantifiers, relsyntax, trivalent, truth
from .errors import LimitExceededError
from .formulas import connective_vector, free_vars
from .notations import Notation, ParseError, parse, print_formula

_NOTATION_NAMES = [n.value for n in Notation]


def _out(text: str) -> None:
    sys.stdout.write(text)


def _outline(text: str) -> None:
    sys.stdout.write(text + "\n")


def _read_source(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    return value


def _assignment_line(assignment: dict[str, bool], order: list[str]) -> str:
    return " ".join(f"{name}={truth.spell(assignment[name])}" for name in order)


_FORMULA = ("formula", {})
_NOTATION = ("--notation", dict(choices=_NOTATION_NAMES, default="peano-russell"))
_DOMAIN = ("--domain", dict(type=int, required=True))

# Each subcommand's help line and `add_argument` specs, in help order.  The
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
        ("--json", dict(action="store_true", dest="as_json"))]),
    "pair-check": ("Wiener pair injectivity sweep", [("--atoms", dict(type=int, default=3))]),
}


def build_parser(argv: Optional[list[str]] = None) -> argparse.ArgumentParser:
    """The argument parser for `argv`.  When `argv[0]` names a command, only
    that command's subparser is built, and the usage line lists every
    command as before.  Otherwise (`-h`, no command, an unknown one) the
    whole tree is built, so argparse's own messages name `command`."""
    parser = argparse.ArgumentParser(
        prog="illation",
        description="Peirce's logic workbench: notations, truth tables, "
        "quantifier expansion, and the 1881 number axioms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = list(_COMMANDS)
    if argv and argv[0] in _COMMANDS:
        sub.metavar = "{" + ",".join(names) + "}"
        names = argv[:1]
    for name in names:
        help_line, specs = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, options in specs:
            p.add_argument(flag, **options)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run the command `argv` names.  The cyclic collector is paused while
    it runs: a command builds trees of frozen records, which hold no cycle,
    so the collections their allocations set off would find nothing.  The
    collector is left as it was found, however `main` ends."""
    argv = sys.argv[1:] if argv is None else argv
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser(argv).parse_args(argv)
        handler = globals()["_cmd_" + args.command.replace("-", "_")]
        return handler(args)
    except LimitExceededError as err:
        print(f"limit exceeded: {err}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError) as err:  # PrintError and JSONDecodeError too
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


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
    table = truth.truth_table(formula) if args.values == 2 else trivalent.tri_table(formula)
    for block in table.tsv_blocks():
        _out(block)
    return 0


def _cmd_taut(args) -> int:
    formula = parse(_read_source(args.formula), Notation(args.notation))
    order = free_vars(formula)
    if args.method == "full":
        try:
            counterexample = truth.find_counterexample(formula)
        except LimitExceededError as err:
            raise LimitExceededError(f"{err}; try --method indirect") from None
        if counterexample is None:
            _outline("tautology")
            return 0
        _outline("counterexample: " + _assignment_line(counterexample, order))
        return 1
    result = truth.indirect_falsify(formula)
    if isinstance(result, truth.Tautology):
        _outline("tautology")
        for i, (name, value) in enumerate(result.trace):
            suffix = " (contradiction)" if i == len(result.trace) - 1 else ""
            _outline(f"force {name}={truth.spell(value)}{suffix}")
        return 0
    _outline("counterexample: " + _assignment_line(result.counterexample, order))
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
    sys.exit(main())
