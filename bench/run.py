"""End-to-end benchmark of the illation CLI.

    python3 bench/run.py --workload startup --seed 1 --seconds 25 --trace 0

Run from the repository root.  The load is a closed loop with one client:
one `python -m illation.cli ...` process at a time, with PYTHONPATH=src.
A run repeats whole passes over the seeded request list while another pass
still fits in --seconds (at least one), checks every answer against the
reference model, and prints a report followed by one JSON line.

--trace 0 reports the end-to-end metrics; --trace 1 makes one traced pass
through the package's public functions instead (see spans.py) and reports
the per-layer metrics.  --smoke shrinks every workload to a few fast
requests, for the harness's own test.

The shared host this runs on changes speed by a quarter and more from one
minute to the next, for every process alike.  So a bare interpreter start
(`python -c pass`) is timed just before every request, and the gated timings
are given in units of these starts: `latency_p50_rel` is the median of each
request's time over its own bare start, `wall_rel` a pass's time over that
of its bare starts.  The raw times are printed in the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PER_PASS = 15  # set-up samples in every pass: at least this many, or one per request
CHILD_TIMEOUT_S = 150


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    seconds: float
    maxrss_kb: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("ILLATION_MAX_ATOMS", None)  # the documented default limit applies
    return env


class Spawner:
    """Runs CLI requests through spawner.py; see there for why."""

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.io_dir = Path(tempfile.mkdtemp(prefix="io-", dir=OUT))
        self.env = child_env()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stdin: str = "") -> Outcome:
        """Wall time runs from spawn to exit, as the helper measures it."""
        files = {k: self.io_dir / k for k in ("stdin", "stdout", "stderr")}
        if stdin:
            files["stdin"].write_text(stdin)
        job = {"argv": [sys.executable] + argv, "cwd": str(ROOT), "env": self.env,
               "stdin": str(files["stdin"]) if stdin else None, "stdout": str(files["stdout"]),
               "stderr": str(files["stderr"]), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn helper exited")
        done = json.loads(reply)
        read = lambda k: files[k].read_bytes().decode(errors="replace")  # noqa: E731
        return Outcome(done["code"], read("stdout"), read("stderr"), done["seconds"],
                       done["maxrss_kb"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.io_dir, ignore_errors=True)


def contract_error(o: Outcome) -> Optional[str]:
    """The CLI's exit-code contract: 0-3, at most one stderr line, no traceback."""
    if o.code not in (0, 1, 2, 3):
        return f"exit code {o.code} is outside 0-3"
    if "Traceback" in o.err:
        return "traceback on stderr: " + (o.err.strip().splitlines() or [""])[-1]
    if len(o.err.rstrip("\n").splitlines()) > 1:
        return "stderr has more than one line"
    return None


def judge(req: workloads.Request, o: Outcome) -> Optional[str]:
    return contract_error(o) or req.verify(o.code, o.out)


def known_defect(req: workloads.Request, o: Outcome) -> bool:
    """A probe failing the way the deep chains fail at the seed commit: exit 1
    and a RecursionError traceback.  Any other failure of a probe, such as a
    wrong answer with exit 0, is unexpected."""
    last = (o.err.strip().splitlines() or [""])[-1]
    return req.probe and o.code == 1 and "Traceback" in o.err and last.startswith("RecursionError")


def cli_argv(req: workloads.Request) -> list[str]:
    return ["-m", "illation.cli"] + req.argv


def start_seconds(spawner: Spawner, code: str) -> float:
    """Wall time of a fresh interpreter that runs `python -c code`: a bare start
    with "pass" (the reference), the set-up cost with "import illation.cli"."""
    o = spawner.run(["-c", code])
    if o.code != 0:
        raise RuntimeError(f"python -c {code!r} failed: " + o.err.strip())
    return o.seconds


def stdout_digest(reqs: list[workloads.Request], outcomes: list[Outcome]) -> str:
    """Digest of every non-probe answer, in order, for the golden check."""
    h = hashlib.sha256()
    for req, o in zip(reqs, outcomes):
        if not req.probe:
            h.update(f"{req.name}\0{o.code}\0".encode())
            h.update(hashlib.sha256(o.out.encode()).digest())
    return h.hexdigest()


def golden_status(workload: str, seed: int, smoke: bool, digest: str) -> tuple[bool, str]:
    """Byte-identical output against digests recorded at the seed commit."""
    table = json.loads((HERE / "golden.json").read_text())
    recorded = table.get("smoke" if smoke else "full", {}).get(workload, {}).get(str(seed))
    if recorded is None:
        return True, f"golden: none recorded for seed {seed}; digest {digest}"
    if recorded != digest:
        return False, f"golden: MISMATCH for seed {seed} (got {digest[:16]}, want {recorded[:16]})"
    return True, f"golden: match for seed {seed}"


def commit() -> str:
    """HEAD of the checkout, read from .git so no process is needed (a
    checkout without .git reports 'unknown')."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace) -> dict:
    return {"commit": commit(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "loadavg": [round(x, 2) for x in os.getloadavg()],
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def end_to_end(args: argparse.Namespace, spawner: Spawner, reqs: list[workloads.Request]) -> dict:
    setup: list[float] = []
    spacing = max(1, len(reqs) // SETUP_PER_PASS)
    passes: list[float] = []
    pass_rel: list[float] = []
    elapsed: list[float] = []
    bare: list[float] = []
    latencies: list[float] = []
    latency_rel: list[float] = []
    peak_kb = 0
    answered = attempted = unexpected = 0
    failures: dict[str, str] = {}
    known: dict[str, str] = {}
    first: list[Outcome] = []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started
                         + statistics.median(elapsed) <= args.seconds):
        pass_started = time.perf_counter()
        outcomes = []
        pass_bare = []
        for i, req in enumerate(reqs):
            # a set-up sample every `spacing` requests of every pass, as the
            # machine's speed drifts over a run
            if i % spacing == 0:
                setup.append(start_seconds(spawner, "import illation.cli"))
            pass_bare.append(start_seconds(spawner, "pass"))
            outcomes.append(spawner.run(cli_argv(req), req.stdin))
        passes.append(sum(o.seconds for o in outcomes))
        pass_rel.append(passes[-1] / sum(pass_bare))
        latency_rel += [o.seconds / b for o, b in zip(outcomes, pass_bare)]
        bare += pass_bare
        first = first or outcomes
        for req, o in zip(reqs, outcomes):
            attempted += 1
            latencies.append(o.seconds)
            peak_kb = max(peak_kb, o.maxrss_kb)
            error = judge(req, o)
            if error is None:
                answered += 1
            elif known_defect(req, o):
                known.setdefault(req.name, error)
            else:
                unexpected += 1
                failures.setdefault(req.name, error)
        elapsed.append(time.perf_counter() - pass_started)
    golden_ok, golden_line = golden_status(args.workload, args.seed, args.smoke,
                                           stdout_digest(reqs, first))
    n = len(latencies)
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1] if n >= 100 else 0.0
    lines = [
        f"passes: {len(passes)} x {len(reqs)} requests, "
        + ", ".join(f"{p:.3f} s" for p in passes),
        f"bare start      {1000 * statistics.median(bare):.2f} ms  (median of {len(bare)} "
        "`python -c pass`, one just before every request: the unit x)",
        f"wall_rel        {statistics.median(pass_rel):.3f} x  (median pass, over its bare starts)",
        f"latency_p50_rel {statistics.median(latency_rel):.3f} x  (median request, over its bare "
        "start)",
        f"wall_s          {statistics.median(passes):.4f} s   (median pass, {len(passes)} passes; "
        "a pass is the sum of its requests' spawn-to-exit times)",
        f"latency_p50_ms  {1000 * p50:.2f} ms  (n={n})",
        (f"latency_p90_ms  {1000 * p90:.2f} ms  (n={n}, {sum(x > p90 for x in latencies)} beyond)"
         if n >= 100 else f"latency_p90_ms  n/a (n={n} < 100)"),
        f"setup_s         {statistics.median(setup):.4f} s   (median of {len(setup)} imports, "
        f"one every {spacing} requests)",
        f"peak_rss_mb     {peak_kb / 1024:.2f} MB",
        f"failed_ratio    {(attempted - answered) / attempted:.4f}  "
        f"({attempted - answered} of {attempted}; {unexpected} unexpected)",
        f"answered_ratio  {answered / attempted:.4f}",
        golden_line,
    ]
    lines += [f"known defect: {name}: {why}" for name, why in sorted(known.items())]
    lines += [f"FAILED: {name}: {why}" for name, why in sorted(failures.items())]
    metrics = {
        "wall_rel": (statistics.median(pass_rel), "x"),
        "latency_p50_rel": (statistics.median(latency_rel), "x"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "answered_ratio": (answered / attempted, "1"),
    }
    return {"lines": lines, "metrics": metrics, "attempted": attempted,
            "failed": unexpected, "correct": unexpected == 0 and golden_ok}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "illation" / "cli.py").is_file():
        print(f"error: no illation sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spawner = Spawner()  # first, while this process is small
    try:
        env = environment(args)
        print("env " + json.dumps(env), flush=True)
        reqs = workloads.generate(args.workload, args.seed, args.smoke)
        start_seconds(spawner, "import illation.cli")  # bytecode caches are written once, untimed
        if args.trace:
            import spans

            result = spans.traced_run(args, spawner, reqs, env)
        else:
            result = end_to_end(args, spawner, reqs)
    finally:
        spawner.close()
    for line in result["lines"]:
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
