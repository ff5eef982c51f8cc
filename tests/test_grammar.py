"""Every source file parses under the Python 3.10 grammar.

`pyproject.toml` allows Python 3.10, and the suite may run on a newer
interpreter.  So each `.py` under `src/illation` and `tests` is parsed with
`ast.parse(..., feature_version=(3, 10))`, which refuses syntax that 3.10
lacks, such as `except*`.  This checks grammar only: a library gap, such
as `tomllib` (new in 3.11), stays unchecked.
"""

import ast
from pathlib import Path

import pytest

import illation

FILES = sorted(Path(illation.__file__).parent.glob("*.py")) + sorted(
    Path(__file__).resolve().parent.glob("*.py"))


def test_every_source_file_parses_as_python_3_10():
    refused = []
    for path in FILES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as err:
            refused.append(f"{path.name}:{err.lineno}: {err.msg}")
    assert len(FILES) > 40 and refused == []


def test_the_check_refuses_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(source, feature_version=(3, 10))
