"""Smoke test of the benchmark harness: every workload in both modes, at the
`--smoke` sizes, the refusal to run without the package's sources, and which
probe failures count as known.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload: str, trace: str) -> None:
    done = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace,
                 "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_a_tree_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "startup", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")


def test_only_the_recorded_probe_failure_is_known() -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import run
    import workloads

    probe = workloads.Request("notation/deep-chain", ["translate"], exit=0, stdout="x\n",
                              probe=True)
    crash = "Traceback (most recent call last):\n  ...\nRecursionError: maximum recursion depth"
    assert run.known_defect(probe, run.Outcome(1, "", crash, 0.1, 1))
    assert not run.known_defect(probe, run.Outcome(0, "wrong\n", "", 0.1, 1))
    assert not run.known_defect(probe, run.Outcome(1, "", "Traceback\nKeyError: 'a'", 0.1, 1))
    plain = workloads.Request("notation/other", ["translate"], exit=0, stdout="x\n")
    assert not run.known_defect(plain, run.Outcome(1, "", crash, 0.1, 1))
