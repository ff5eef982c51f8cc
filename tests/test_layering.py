"""The syntax modules import no semantics.

`formulas`, `notations`, `relsyntax` and `frege` build, read, print and
draw formulas.  Evaluating them is the work of `truth`, `methods`,
`trivalent`, `quantifiers` and `arithmetic`, and `cli` wraps them all.  So nothing a
syntax module imports, directly or through another module of the package,
is one of those.  The check is syntactic: it reads every import statement
of a module, at any depth, so an import inside a function counts too.
Nor does any module read the environment: every limit is fixed in the source,
once, in `errors`, and each check reads it there when it runs.  The one name
any module takes from `os` is `_exit`, with which the CLI ends its process.
"""

import ast
import re
from pathlib import Path

import pytest

import illation
from illation import errors
from illation.arithmetic import chain
from illation.formulas import check_expansions
from illation.methods import indirect_falsify
from illation.notations import Notation, parse
from illation.quantifiers import expand, sat_search
from illation.relsyntax import parse_relational
from illation.trivalent import tri_table
from illation.truth import find_counterexample, truth_table

SYNTAX = ("formulas", "notations", "relsyntax", "frege")
SEMANTICS = {"truth", "methods", "trivalent", "quantifiers", "arithmetic", "cli"}
PACKAGE = Path(illation.__file__).parent
TESTS = Path(__file__).resolve().parent
BOUNDS = sorted(name for name in vars(errors) if name.startswith("MAX_"))


def imported(source: str) -> set[str]:
    """The modules of the package that `source` imports."""
    dotted = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("illation" if node.level else "", node.module)))
            dotted += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("illation.")}


def reached(module: str) -> set[str]:
    """`module` and every module of the package it imports, at any remove."""
    seen: set[str] = set()
    todo = [module]
    while todo:
        name = todo.pop()
        path = PACKAGE / f"{name}.py"
        if name in seen or not path.exists():  # a name imported from `illation` itself
            continue
        seen.add(name)
        todo += imported(path.read_text(encoding="utf-8"))
    return seen


def test_the_syntax_modules_import_no_semantics():
    assert {name: reached(name) & SEMANTICS for name in SYNTAX} == {
        name: set() for name in SYNTAX}


def test_the_check_sees_every_form_of_import():
    source = '''
from .truth import eval2
from . import quantifiers, formulas
import illation.trivalent
from illation.arithmetic import chain
from illation import cli

def late():
    from .errors import LimitExceededError
import re
from functools import cache
'''
    assert imported(source) == {"truth", "quantifiers", "formulas", "trivalent", "arithmetic",
                                "cli", "errors"}


# The names of `os` that read or write the environment.
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_reads(source: str) -> list[str]:
    """Each use in `source` of a name in `ENVIRONMENT`, and each thing it
    takes from `os` other than `_exit`: another name, a submodule, an alias,
    or `os` itself used other than by attribute (as in `getattr(os, ...)`)."""
    found = []
    names = attributes = 0  # the reads of the name `os`, and those as `os.X`
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "os" and (alias.name, alias.asname) != ("os", None)
                   for alias in node.names):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom):
            taken = [alias.name for alias in node.names]
            from_os = (node.module or "").split(".")[0] == "os"
            if (from_os and (node.module, taken) != ("os", ["_exit"])
                    or ENVIRONMENT.intersection(taken)):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Attribute):
            from_os = isinstance(node.value, ast.Name) and node.value.id == "os"
            attributes += from_os
            if node.attr in ENVIRONMENT or from_os and node.attr != "_exit":
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Name):
            names += node.id == "os"
            if node.id in ENVIRONMENT:
                found.append(node.id)
    return found + ["os"] * (names - attributes)


def test_no_module_reads_the_environment():
    """The one name any module of the package takes from `os` is `_exit`,
    which ends the process, and none names a reader or writer of the
    environment, so no variable can move a bound."""
    found = {path.name: environment_reads(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


@pytest.mark.parametrize("source", [
    "import os.path", "import os as system", "from os import environ", "from os import _exit, sep",
    "from os.path import join", "from posix import getenv", "os.environ['X']", "os.getenv('X')",
    "os.putenv('X', '1')", "getattr(os, 'putenv')", "system.unsetenv('X')",
    "sys.modules['os'].environb", "getenvb = 1"])
def test_the_environment_check_sees_every_form_of_read(source):
    allowed = "import os\nfrom os import _exit\nos._exit(0)\n"
    assert environment_reads(allowed) == []
    assert environment_reads(allowed + source) != []


def test_every_bound_is_set_once_in_errors():
    """The six bounds are assigned in `errors` alone, and neither the package
    nor its tests import one by name, so no module holds a copy that a
    `monkeypatch.setattr(errors, ...)` would miss."""
    assert BOUNDS == ["MAX_CARRIER", "MAX_EXPANSION_LEAVES", "MAX_INDIRECT_STATES",
                      "MAX_SCAN_BITS", "MAX_TABLE_VARS", "MAX_TRI_VARS"]
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names if alias.name in BOUNDS]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and path.parent == PACKAGE:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [getattr(t, "id", getattr(t, "attr", "")) for t in targets]
                names = [name for name in names if name.startswith("MAX_")]
            else:
                continue
            found += [(path.name, name) for name in names]
    assert found == [("errors.py", name) for name in vars(errors) if name in BOUNDS]


TAUTOLOGY_12 = "a | ~a | " + " | ".join("bcdefghijkl")


# One check of each kind that reads a bound: each follows a patch of `errors`.
@pytest.mark.parametrize("bound, value, check, message", [
    ("MAX_TABLE_VARS", 2, lambda: truth_table(parse("a & b & c", Notation.PEANO_RUSSELL)),
     "3 variables exceed the 2-variable table limit"),
    ("MAX_TABLE_VARS", 2, lambda: sat_search(parse_relational("Sum i . p(i)"), 3),
     "expansion needs more than 2 distinct atoms"),
    ("MAX_TRI_VARS", 2, lambda: tri_table(parse("a & b & c", Notation.PEANO_RUSSELL)),
     "3 variables exceed the 2-variable trivalent limit"),
    ("MAX_SCAN_BITS", 11, lambda: find_counterexample(parse(TAUTOLOGY_12, Notation.PEANO_RUSSELL)),
     "row scan stopped after clearing 2,048 of the 2^12 rows over 12 variables"),
    ("MAX_EXPANSION_LEAVES", 2, lambda: expand(parse_relational("Pi i . p(i)"), 3),
     "expansion needs more than 2 atom occurrences"),
    ("MAX_EXPANSION_LEAVES", 2, lambda: check_expansions(parse("EEabc", Notation.POLISH)),
     "connective expansions add more than 2 atom occurrences"),
    ("MAX_CARRIER", 2, lambda: chain(3), "carrier of 3 elements exceeds the 2-element limit"),
    ("MAX_INDIRECT_STATES", 1,
     lambda: indirect_falsify(parse("(a > b) | ~(a > b)", Notation.PEANO_RUSSELL)),
     "indirect search exceeded its state cap of 1 states"),
], ids=["table", "search-cells", "trivalent", "row-scan", "expansion", "connective-expansions",
        "carrier", "indirect-states"])
def test_one_patch_of_errors_moves_every_check(monkeypatch, bound, value, check, message):
    monkeypatch.setattr(errors, bound, value)
    with pytest.raises(errors.LimitExceededError, match=f"^{re.escape(message)}$"):
        check()
