"""Tier-1 under several string hash seeds: which tests change verdict.

    python tests/seeds.py

Runs the tier-1 suite once per seed of SEEDS, each in a child process with
PYTHONHASHSEED set to it, WORKERS at a time, and prints each test whose
verdict (passed, skipped or failed) is not the same under every seed, with
the seeds of each verdict.  It exits 1 if it prints any, else 0.  A test
that iterates a set or a dict built from one can pass under one seed and
fail under another; a run with no seed fixed then fails now and then.

pytest does not collect this file (its name has no `test_` prefix).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(12)
WORKERS = 2
# A test's verdict is the worst outcome of its phases (setup, call, teardown).
OUTCOMES = ("passed", "skipped", "failed")


class Verdicts:
    """A pytest plugin that keeps each test's verdict, by node id."""

    def __init__(self) -> None:
        self.seen: dict[str, str] = {}

    def _note(self, nodeid: str, outcome: str) -> None:
        self.seen[nodeid] = max(self.seen.get(nodeid, "passed"), outcome, key=OUTCOMES.index)

    def pytest_runtest_logreport(self, report) -> None:
        self._note(report.nodeid, report.outcome)

    def pytest_collectreport(self, report) -> None:
        if report.failed:
            self._note(report.nodeid, "failed")


def child(out: str) -> None:
    """Run tier-1 in this process and write its verdicts to `out` as JSON."""
    verdicts = Verdicts()
    pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                 str(ROOT / "tests")], plugins=[verdicts])
    Path(out).write_text(json.dumps(verdicts.seen))


def run(seed: int, scratch: Path) -> dict[str, str]:
    out = scratch / f"seed-{seed}.json"
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=src + os.pathsep + path if path else src)
    subprocess.run([sys.executable, __file__, "--child", str(out)], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    return json.loads(out.read_text())


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch, ThreadPoolExecutor(WORKERS) as pool:
        runs = dict(zip(SEEDS, pool.map(lambda seed: run(seed, Path(scratch)), SEEDS)))
    tests = sorted(set().union(*runs.values()))
    differing = 0
    for test in tests:
        by_verdict: dict[str, list[int]] = {}
        for seed, verdicts in runs.items():
            by_verdict.setdefault(verdicts.get(test, "absent"), []).append(seed)
        if len(by_verdict) > 1:
            differing += 1
            print(test, "  ".join(f"{v}: {seeds}" for v, seeds in sorted(by_verdict.items())))
    print(f"{len(tests)} tests under seeds {SEEDS.start}-{SEEDS.stop - 1}: "
          f"{differing} with a verdict that differs between seeds")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        sys.exit(main())
