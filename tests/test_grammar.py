"""Every source file parses under the Python 3.10 grammar.

`pyproject.toml` allows Python 3.10, and the suite may run on a newer
interpreter.  So each `.py` under `src/illation` and `tests` is parsed with
`ast.parse(..., feature_version=(3, 10))`, which refuses syntax that 3.10
lacks, such as `except*`.  That parse accepts PEP 646's stars, 3.11-only:
a starred item in an unbracketed subscript (`x[*a]`) or a starred
annotation (`*args: *Ts`), so a walk of the tree refuses those.  This checks
grammar only: a library gap, such as `tomllib` (new in 3.11), stays
unchecked.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

import illation

FILES = sorted(Path(illation.__file__).parent.glob("*.py")) + sorted(
    Path(__file__).resolve().parent.glob("*.py"))
SPACING = {tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def bracketed(text):
    """Whether one pair of round brackets encloses the whole of `text`: true
    of `(*a, b)`, false of `(a), *b` and `(a), *(b)`."""
    depth, depths = 0, []
    # inside one more pair, a text over several lines is one logical line
    for token in tokenize.generate_tokens(io.StringIO(f"({text})").readline):
        if token.type not in SPACING:
            depth += {"(": 1, ")": -1}.get(token.string, 0)
            depths.append(depth)
    # the text opens with a bracket, and its last token is the first to close it
    return text.startswith("(") and depths.index(1, 1) == len(depths) - 2


def parse_as_3_10(source, filename="<unknown>"):
    """The tree of `source` under the 3.10 grammar, or a SyntaxError."""
    tree = ast.parse(source, filename, feature_version=(3, 10))
    for node in ast.walk(tree):
        items = node.slice.elts if isinstance(node, ast.Subscript) and isinstance(
            node.slice, ast.Tuple) else ()
        # 3.10 takes a star only inside a bracketed tuple, x[(*a,)]
        if any(isinstance(item, ast.Starred) for item in items) and not bracketed(
                ast.get_source_segment(source, node.slice)):
            raise SyntaxError("starred subscripts are only supported in Python 3.11 and greater",
                              (filename, node.lineno, node.col_offset + 1, None))
        if isinstance(node, ast.arg) and isinstance(node.annotation, ast.Starred):
            raise SyntaxError("starred annotations are only supported in Python 3.11 and greater",
                              (filename, node.lineno, node.col_offset + 1, None))
    return tree


def test_every_source_file_parses_as_python_3_10():
    refused = []
    for path in FILES:
        try:
            parse_as_3_10(path.read_text(encoding="utf-8"), str(path))
        except SyntaxError as err:
            refused.append(f"{path.name}:{err.lineno}: {err.msg}")
    assert len(FILES) > 40 and refused == []


def test_the_check_refuses_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("source", [
    "x[*a]\n", "x[a, *b] = c\n", "x[(a), *b]\n", "x[(a), *(b)]\n", "x[\n    *a,\n]\n", "def f(*args: *Ts):\n    pass\n"])
def test_the_check_refuses_the_stars_of_pep_646(source):
    ast.parse(source, feature_version=(3, 10))  # the parse alone lets them through
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        parse_as_3_10(source)


@pytest.mark.parametrize("source", ["x[(*a,)]\n", "x[(*a, b)] = c\n", "x[((a), *b)]\n", "x[a, b]\n", "f(*a)\n"])
def test_the_check_keeps_what_python_3_10_parses(source):
    parse_as_3_10(source)
