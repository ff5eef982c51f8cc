"""The syntax modules import no semantics.

`formulas`, `notations`, `relsyntax` and `frege` build, read, print and
draw formulas.  Evaluating them is the work of `truth`, `trivalent`,
`quantifiers` and `arithmetic`, and `cli` wraps them all.  So nothing a
syntax module imports, directly or through another module of the package,
is one of those.  The check is syntactic: it reads every import statement
of a module, at any depth, so an import inside a function counts too.
Nor does any module read the environment: every limit is fixed in the source.
"""

import ast
from pathlib import Path

import illation

SYNTAX = ("formulas", "notations", "relsyntax", "frege")
SEMANTICS = {"truth", "trivalent", "quantifiers", "arithmetic", "cli"}
PACKAGE = Path(illation.__file__).parent


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


def test_no_module_reads_the_environment():
    """No module of the package imports `os`, or names `environ` or
    `getenv`, so no variable can move a bound."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "os" or name in ("environ", "getenv"):
                    found.setdefault(path.name, []).append(name)
    assert found == {}
