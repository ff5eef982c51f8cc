"""No function in the package calls itself.

Peirce's sums and products fold into long flat chains, and a walk that
recursed once per level would overflow the interpreter stack on them, so
every walk over a formula keeps an explicit stack.  The check is
syntactic: a function is self-recursive when its body calls its own name,
or, in a method, `self.<name>`, `cls.<name>` or `<Class>.<name>`.  Nested
closures count as functions of their own, named after the functions around
them, and a call to a function's name from a closure inside it counts for
that function too.

The syntactic check cannot see recursion through another object's methods,
such as `==` recursing into the fields' own `==`, so the record methods are
also run on deep formulas with only a few dozen frames of stack to spare.
"""

import ast
from functools import reduce
from pathlib import Path

import pytest

import illation
from illation.formulas import PI, Neg, Quant, RAtom
from illation.notations import Notation, parse
from illation.truth import truth_table

from helpers import shallow_stack

# The functions allowed to call themselves, each with its reason.
ALLOWED: dict[str, str] = {}


def self_recursive(source: str, module: str) -> list[str]:
    """Dotted names of the functions in `source` that call themselves."""
    found = []

    def visit(node: ast.AST, scope: list[str], owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = [n.func for n in ast.walk(child) if isinstance(n, ast.Call)]
                if any(_names(func, child.name, owner) for func in calls):
                    found.append(".".join(scope + [child.name]))
                visit(child, scope + [child.name], "")
            else:
                visit(child, scope, owner)

    visit(ast.parse(source), [module], "")
    return found


def _names(func: ast.expr, name: str, owner: str) -> bool:
    """Whether the called expression `func` is `name`, or, in a method of
    class `owner`, `self.name`, `cls.name` or `owner.name`."""
    if isinstance(func, ast.Name):
        return func.id == name
    return (isinstance(func, ast.Attribute) and func.attr == name and bool(owner)
            and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls", owner))


def test_only_the_allowlisted_functions_call_themselves():
    package = Path(illation.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        found.update(self_recursive(path.read_text(encoding="utf-8"), path.stem))
    assert found == set(ALLOWED)


def test_the_check_sees_every_form_of_self_call():
    source = '''
def direct(n):
    return direct(n - 1)

def outer():
    def inner(n):
        return inner(n - 1)
    return inner(3)

def caller_of_a_nested_self_call():
    def helper():
        return caller_of_a_nested_self_call()
    return helper

class Parser:
    def unary(self):
        return self.unary()

    def other(self):
        return Parser.other(self)

def not_recursive(items):
    return [not_recursive_helper(x) for x in items]
'''
    assert self_recursive(source, "m") == [
        "m.direct", "m.outer.inner", "m.caller_of_a_nested_self_call", "m.Parser.unary",
        "m.Parser.other",
    ]


DEPTH = 10_000


def test_equality_hash_and_repr_of_deep_formulas():
    text = "|".join("abcdefghijklmnop"[i % 16] for i in range(DEPTH))
    first, second = (parse(text, Notation.PEANO_RUSSELL) for _ in range(2))
    other = parse(text + "|a", Notation.PEANO_RUSSELL)
    with shallow_stack():
        assert first == second and first != other and not first == other.left.left
        assert hash(first) == hash(second) == hash((first.left, first.right))
        assert len({first, second, other}) == 2
        shown = repr(first)
    assert shown == "Sum(left=" * (DEPTH - 1) + "Var(name='a')" + "".join(
        f", right=Var(name='{text[i]}'))" for i in range(2, 2 * DEPTH, 2))


def test_truth_table_names_a_deep_relational_formula():
    atom = RAtom("p", ("i",))
    formula = Quant(PI, "i", reduce(lambda f, _: Neg(f), range(DEPTH), atom))
    with shallow_stack(), pytest.raises(TypeError) as caught:
        truth_table(formula)
    assert str(caught.value) == (
        "not a propositional formula: Quant(kind='Pi', var='i', body="
        + "Neg(inner=" * DEPTH + "RAtom(predicate='p', indices=('i',))" + ")" * DEPTH + ")")
