"""Every module-level function and class is reached from the product.

The package reaches its users through the CLI and the names in
`illation.__all__`, so code that only tests call is weight every command
pays for at import.  The check is syntactic: a module-level `def` or
`class` is reached when `__all__` exports it, when its name is read
anywhere in the package outside its own definition (a call, a decorator,
a table entry, the `__main__` block), or when it is a `_cmd_*` handler,
which `cli.main` looks up by name.
"""

import ast
from pathlib import Path

import illation

# The module-level functions and classes allowed without a use, each with its
# reason.
ALLOWED: dict[str, str] = {
    "__init__.__getattr__": "PEP 562: the interpreter calls it to read a name of `__all__`",
    "__init__.__dir__": "PEP 562: `dir(illation)` calls it to list the names not yet read",
    "truth.__getattr__": "PEP 562: the interpreter calls it to read a name defined in `methods`",
    "cli.__getattr__": "PEP 562: the interpreter calls it to read `cli.trivalent`",
}


def unreached(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Dotted names of the module-level definitions in `sources` (module
    name -> text) that no other code in them reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: dict[str, set[int]] = {}  # name -> ids of the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(name, set()).add(id(node))
    found = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            if name in exported or name.startswith("_cmd_"):
                continue
            if not reads.get(name, set()) - {id(node) for node in ast.walk(definition)}:
                found.append(f"{module}.{name}")
    return found


def test_only_the_allowlisted_definitions_go_unreached():
    package = Path(illation.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert set(unreached(sources, set(illation.__all__))) == set(ALLOWED)


def test_the_check_sees_every_kind_of_use():
    sources = {
        "m": '''
def exported(): pass
def _cmd_run(args): pass
def called(): pass
def decorator(f): return f
@decorator
def decorated(): pass
def in_a_table(): pass
TABLE = {"x": in_a_table}
def by_attribute(): pass
class Used: pass
def main():
    called()
    return Used()
if __name__ == "__main__":
    main()
def only_itself(n):
    return only_itself(n - 1)
class Unused:
    def method(self):
        return Unused()
def never_named(): pass
''',
        "n": '''
from . import m
m.by_attribute()
''',
    }
    assert unreached(sources, {"exported"}) == ["m.decorated", "m.only_itself", "m.Unused",
                                                "m.never_named"]
