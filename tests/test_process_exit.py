"""How a CLI process ends.

`cli.console_entry` runs `main`, flushes stdout and stderr, and ends the
process with `os._exit`, so the interpreter's teardown is skipped.  These
tests run the CLI as a child process, with and without `PYTHONUNBUFFERED`
(users normally run with stdout buffered), and check that every answer is
written whole, that a write that fails is exit 2 with one line, that a
closed stderr keeps the exit code, and that a profiler still writes its
report.  The lines a failed write prints are
those the "Ending:" paragraph of docs/grammars.md shows.
"""

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from illation import cli
from test_docs import paragraph

CMD = [sys.executable, "-m", "illation.cli"]
SRC = str(Path(cli.__file__).resolve().parents[1])
ROOT = Path(SRC).parent
ENDING = paragraph("Ending:")


def child_env(unbuffered: bool) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_gone_is_exit_2_with_one_line(unbuffered):
    """The read end of stdout's pipe is closed before the child starts, so
    its first write (unbuffered) or `main`'s flush (buffered) fails."""
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run(CMD + ["connectives"], stdout=write, stderr=subprocess.PIPE,
                           text=True, env=child_env(unbuffered), timeout=60)
    finally:
        os.close(write)
    assert (r.returncode, r.stderr) == (2, "error: [Errno 32] Broken pipe\n")
    assert "(sleep 0.3; illation connectives) | true" in ENDING
    assert "error: [Errno 32] Broken pipe" in ENDING


def test_a_closed_stdout_is_exit_2_with_one_line():
    r = subprocess.run(["/bin/sh", "-c", '"$@" >&-', "sh", *CMD, "taut", "a|~a"],
                       capture_output=True, text=True, env=child_env(False), timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: stdout is closed\n")
    assert "illation taut 'a|~a' >&-" in ENDING and "error: stdout is closed" in ENDING


# A command that exits 2 (a parse error) and one that exits 3 (past the
# 16-variable table limit).
REFUSED = {2: ["taut", "a|"], 3: ["table", "&".join("abcdefghijklmnopq")]}


@pytest.mark.parametrize("code", sorted(REFUSED))
def test_a_closed_stderr_keeps_the_code_and_stdout_empty(code):
    r = subprocess.run(["/bin/sh", "-c", '"$@" 2>&-', "sh", *CMD, *REFUSED[code]],
                       capture_output=True, text=True, env=child_env(False), timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (code, "", "")
    assert "illation taut 'a|' 2>&-" in ENDING


@pytest.mark.parametrize("code", sorted(REFUSED))
def test_no_stderr_keeps_the_line_off_stdout(code, monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stderr", None)
    with redirect_stdout(out):
        assert cli.main(REFUSED[code]) == code
    assert out.getvalue() == ""


def test_an_answer_past_the_pipe_buffer_is_written_whole():
    """A frege SVG over 64 KiB, more than one pipe buffer and many stdout
    buffers, reaches the reader byte for byte as `main` writes it in process."""
    argv = ["translate", "--from", "peano-russell", "--to", "frege", "--format", "svg",
            ">".join(f"v{i}_0" for i in range(120))]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    expected = out.getvalue().encode()
    assert len(expected) > 65536
    r = subprocess.run(CMD + argv, capture_output=True, env=child_env(False), timeout=60)
    assert (r.returncode, r.stderr) == (0, b"")
    assert r.stdout == expected


# A handler that reports whether the interpreter's teardown ran.
PRELUDE = """
import atexit, sys
from illation import cli
atexit.register(lambda: print("teardown", file=sys.stderr))
sys.argv = ["illation", "taut", "a|~a"]
"""


def test_the_entry_skips_exit_handlers_and_keeps_tracebacks():
    """`os._exit` ends the process, so an `atexit` handler does not run.  An
    exception that escapes `main` still gets the interpreter's traceback,
    exit 1 and a normal teardown."""
    r = subprocess.run([sys.executable, "-c", PRELUDE + "cli.console_entry()"],
                       capture_output=True, text=True, env=child_env(False), timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, "tautology\n", "")
    r = subprocess.run([sys.executable, "-c", PRELUDE + "cli.main = lambda: 1 / 0\n"
                        "cli.console_entry()"],
                       capture_output=True, text=True, env=child_env(False), timeout=60)
    assert r.returncode == 1
    assert r.stderr.startswith("Traceback") and "ZeroDivisionError" in r.stderr
    assert r.stderr.endswith("teardown\n")


def test_a_profiler_still_writes_its_report():
    r = subprocess.run([sys.executable, "-m", "cProfile", "-m", "illation.cli", "taut", "a|~a"],
                       capture_output=True, text=True, env=child_env(False), timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("tautology\n")
    assert re.search(r"\d+ function calls", r.stdout)


def test_the_script_and_the_main_block_share_the_entry():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    script = re.findall(r'^illation = "illation\.cli:(\w+)"$', pyproject, re.MULTILINE)
    source = Path(cli.__file__).read_text(encoding="utf-8")
    block = re.findall(r'^if __name__ == "__main__":\n    (\w+)\(\)\n\Z', source, re.MULTILINE)
    assert script == block == ["console_entry"]
