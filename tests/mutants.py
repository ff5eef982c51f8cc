"""Mutants that tier-1 must kill: small edits to the package, each with the
tests that must fail on it.

    python tests/mutants.py [DIR]

Copies `src/` to DIR (a temporary directory if none is given), applies one
mutant at a time, and runs its tests with `-x -q` once per hash seed of
`seeds.SEEDS`.  A mutant is killed only if its tests fail under every seed;
the script prints each survivor, a gap in the tests, and exits 1 if there is
any.  A survivor is mended by a test that kills it, never by dropping it.

pytest does not collect this file (its name has no `test_` prefix);
`test_mutants.py` checks in tier-1 that each old text is still in its module
exactly once, so code that moves takes its mutants with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    module: str  # the file, under src/
    old: str  # text that occurs exactly once in it
    new: str
    tests: tuple[str, ...]  # node ids, of which at least one must fail


MUTANTS = [
    # The trace search's bound: a state closes one step past its trail at best.
    Mutant("illation/methods.py", "(mark + 1, level) >= best", "(mark, level) >= best",
           ("tests/test_truth.py::test_indirect_prunes_the_trace_search",)),
    # A branch point met again is skipped only if met before at no more branchings.
    Mutant("illation/methods.py", "if point in met and met[point][0] <= level:",
           "if point in met:",
           ("tests/test_truth.py::test_indirect_matches_the_oracle_where_branch_points_recur",)),
    # A branch point is the same only under the same assignment.
    Mutant("illation/methods.py", "point = (id(node), want, id(goals), held)",
           "point = (id(node), want, id(goals))",
           ("tests/test_truth.py::test_indirect_matches_the_oracle_where_branch_points_recur",)),
]


def killed(mutant: Mutant, src: Path) -> bool:
    """Whether the mutant's tests fail, under every hash seed, on `src` with
    the mutant applied; `src` is left as it was."""
    from seeds import SEEDS  # this file's directory is on sys.path when run as a script

    path = src / mutant.module
    text = path.read_text()
    path.write_text(text.replace(mutant.old, mutant.new, 1))
    try:
        for seed in SEEDS:
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed),
                       PYTHONDONTWRITEBYTECODE="1")
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "-o", f"pythonpath={src}", *mutant.tests],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            if run.returncode not in (0, 1):  # 1: a test failed; else pytest could not run them
                raise SystemExit(f"pytest exited {run.returncode} on {', '.join(mutant.tests)}")
            if run.returncode == 0:
                return False
        return True
    finally:
        path.write_text(text)


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(argv[0] if argv else scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"),
                        dirs_exist_ok=True)
        survivors = [m for m in MUTANTS if not killed(m, src)]
    for m in survivors:
        print(f"survived: {m.module}: {m.old!r} -> {m.new!r} (tests: {', '.join(m.tests)})")
    print(f"{len(MUTANTS)} mutants: {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
