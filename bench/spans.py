"""The traced run (--trace 1): per-layer time and work.

Each request is run three ways: once as a real CLI process (for its answer
and the golden check), and twice in this process through the CLI's own
`main`, with stdin, stdout and stderr redirected: once with spans and once
without.  The in-process exit code and stdout must equal the CLI process's
for every request.

Spans come from wrappers that are installed for the traced call only:

- the package's entry points where the CLI looks them up: `cli.parse`,
  `cli.print_formula`, `cli.build_parser`, `ArgumentParser.parse_args`, and
  the functions its handlers call through `cli.truth`, `cli.quantifiers`
  and the other modules (the CLI sees a stand-in module whose other names
  fall through).  Calls a layer makes to its own entry points are not split
  out, so `quantifiers.herbrand` includes the expansions and tautology
  checks the scan makes;
- the truth-table classes' `to_tsv` methods;
- the formulas helpers free_vars, ensure_closed and predicate_signature,
  wherever a package module looks them up, because the layers call them
  from inside (eval_in calls ensure_closed and predicate_signature once per
  candidate structure);
- the CLI's pair-check handler, which is the Wiener pair sweep itself (its
  loops call only arithmetic's wiener_pair and hf_equal).

A span records name, start, end, parent and request id.  Spans stay in
memory and are written to bench/out/trace-<workload>-<seed>.json when the
run ends.  A layer's time is the sum of its spans' self time: duration minus
the part covered by child spans.  The `request` span around each `main`
call has the CLI's own glue as its self time, reported as cli.self_ms.

Import cost is read from `python -X importtime -c "import illation.cli"`.
Work counts (rows, structures, subsets, comparisons) come from the reference
model's answer for each request (see workloads.Request.work).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import io
import json
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, fields
from typing import Callable, Optional

import run
import workloads

IMPORT_RUNS = 5
IMPORT_MODULES = ("cli", "formulas", "notations", "frege", "truth", "quantifiers", "arithmetic")
LAYER_SPANS = (
    "cli.argparse", "notations.parse", "notations.print", "relsyntax.parse", "frege.render",
    "formulas.free_vars", "formulas.ensure_closed", "formulas.predicate_signature",
    "truth.table", "truth.tsv", "truth.counterexample", "truth.indirect", "truth.anf",
    "trivalent.table", "trivalent.tsv", "quantifiers.expand", "quantifiers.sat_search",
    "quantifiers.sat_scan", "quantifiers.herbrand", "arithmetic.check_axioms",
    "arithmetic.pair",
)
WORK_COUNTS = ("truth.rows", "truth.counterexample_rows", "trivalent.rows", "quantifiers.atoms",
               "quantifiers.structures", "arithmetic.subsets", "arithmetic.comparisons")
# module -> {function: span}: what the CLI's handlers call through `cli.<module>`
ENTRY_POINTS = {
    "relsyntax": {"parse_relational": "relsyntax.parse"},
    "frege": {"render_frege": "frege.render"},
    "truth": {"truth_table": "truth.table", "find_counterexample": "truth.counterexample",
              "indirect_falsify": "truth.indirect", "anf": "truth.anf"},
    "trivalent": {"tri_table": "trivalent.table"},
    "quantifiers": {"expand": "quantifiers.expand", "sat_search": "quantifiers.sat_search",
                    "sat_scan": "quantifiers.sat_scan", "herbrand_scan": "quantifiers.herbrand"},
    "arithmetic": {"check_axioms": "arithmetic.check_axioms"},
}
HELPERS = ("free_vars", "ensure_closed", "predicate_signature")  # of illation.formulas


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: str
    size: int = 0  # characters parsed, or bytes rendered


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.request = ""

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             size: Optional[Callable] = None):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.request)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            self._open.pop()
        if size is not None:
            record.size = size(args, result)
        return result

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self.call(name, fn, args, kwargs, size)
        return spanned

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, children's time subtracted.  Children of
        one span never overlap (one thread), so their durations add up."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for s, child in zip(self.spans, covered):
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start - child)
        return totals


class StandIn:
    """A module as the CLI sees it: some functions spanned, the rest its own."""

    def __init__(self, module, spanned: dict[str, Callable]) -> None:
        self.__dict__.update(spanned)
        self._module = module

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def load_cli():
    sys.path.insert(0, str(run.ROOT / "src"))
    return importlib.import_module("illation.cli")


def instruments(cli, t: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, spanned replacement) for every wrapper."""
    parsed_chars = lambda args, _: len(args[0])  # noqa: E731
    rendered_bytes = lambda _, text: len(text.encode())  # noqa: E731
    sizes = {"notations.parse": parsed_chars, "frege.render": rendered_bytes}
    out = [
        (argparse.ArgumentParser, "parse_args", "cli.argparse"),
        (cli, "build_parser", "cli.argparse"),
        (cli, "parse", "notations.parse"),
        (cli, "print_formula", "notations.print"),
        (cli, "_cmd_pair_check", "arithmetic.pair"),
        (cli.truth.TruthTable, "to_tsv", "truth.tsv"),
        (cli.trivalent.TriTable, "to_tsv", "trivalent.tsv"),
    ]
    out = [(owner, attr, t.wrap(name, vars(owner)[attr], sizes.get(name)))
           for owner, attr, name in out]
    for module_name, functions in ENTRY_POINTS.items():
        module = getattr(cli, module_name)
        spanned = {f: t.wrap(name, getattr(module, f), sizes.get(name))
                   for f, name in functions.items()}
        out.append((cli, module_name, StandIn(module, spanned)))
    formulas = sys.modules["illation.formulas"]
    for helper in HELPERS:
        original = getattr(formulas, helper)
        spanned = t.wrap(f"formulas.{helper}", original)
        out += [(module, helper, spanned) for name, module in sorted(sys.modules.items())
                if name.split(".")[0] == "illation" and vars(module).get(helper) is original]
    return out


def run_in_process(cli, req: workloads.Request) -> tuple[int, str, str]:
    """(exit code, stdout, name of an uncaught exception or '') of cli.main."""
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(req.stdin)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            return cli.main(list(req.argv)), out.getvalue(), ""
    except SystemExit as stop:  # argparse refusing the arguments
        return (stop.code if isinstance(stop.code, int) else 1), out.getvalue(), ""
    except Exception as err:  # the CLI process would die with exit 1
        return 1, out.getvalue(), type(err).__name__
    finally:
        sys.stdin = stdin


def run_traced(cli, req: workloads.Request, t: Tracer,
               patches: list[tuple[object, str, object]]) -> tuple[int, str, str]:
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    for owner, attr, spanned in patches:
        setattr(owner, attr, spanned)
    t.request = req.name
    try:
        return t.call("request", run_in_process, (cli, req), {})
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def import_times(spawner: run.Spawner) -> dict[str, float]:
    """Medians over IMPORT_RUNS fresh interpreters, in ms: total self time of
    every import in the process, and each module's cumulative time."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_RUNS):
        o = spawner.run(["-X", "importtime", "-c", "import illation.cli"])
        found = {"import.total_ms": 0.0}
        for line in o.err.splitlines():
            if not line.startswith("import time:") or "|" not in line or "self [us]" in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            found["import.total_ms"] += int(own) / 1000
            module = name.strip()
            if module.startswith("illation.") and module[9:] in IMPORT_MODULES:
                found[f"import.{module[9:]}_ms"] = int(cumulative) / 1000
        for key, value in found.items():
            samples.setdefault(key, []).append(value)
    missing = {f"import.{m}_ms" for m in IMPORT_MODULES} - samples.keys()
    if missing:
        raise RuntimeError(f"-X importtime did not report {sorted(missing)}")
    return {key: statistics.median(values) for key, values in samples.items()}


def traced_run(args, spawner: run.Spawner, reqs: list[workloads.Request], env: dict) -> dict:
    own = len(reqs)
    if args.workload != "startup":  # one tiny request of every kind, so every layer reports
        reqs = reqs + workloads.generate("startup", args.seed, smoke=True)
    metrics: dict[str, tuple[float, str]] = {
        k: (v, "ms") for k, v in import_times(spawner).items()}
    cli = load_cli()
    traced = Tracer()
    patches = instruments(cli, traced)
    outcomes, lines, known = [], [], []
    untraced_s = 0.0
    failed = 0
    for i, req in enumerate(reqs):
        o = spawner.run(run.cli_argv(req), req.stdin)
        outcomes.append(o)
        error = run.judge(req, o)
        if error and run.known_defect(req, o):
            known.append(f"known defect: {req.name}: {error}")
        elif error:
            failed += 1
            lines.append(f"FAILED: {req.name}: {error}")
        for spanned in ((False, True) if i % 2 == 0 else (True, False)):
            start = time.perf_counter()
            if spanned:
                code, out, crash = run_traced(cli, req, traced, patches)
            else:
                code, out, crash = run_in_process(cli, req)
                untraced_s += time.perf_counter() - start
            if (code, out) != (o.code, o.out):
                failed += 1
                lines.append(f"PARITY: {req.name}: in-process exit {code} {crash} vs CLI exit "
                             f"{o.code}; stdout {'equal' if out == o.out else 'differs'}")
    golden_ok, golden_line = run.golden_status(args.workload, args.seed, args.smoke,
                                               run.stdout_digest(reqs[:own], outcomes[:own]))
    spent = traced.self_times()
    for name in LAYER_SPANS:
        metrics[f"{name}_ms"] = (1000 * spent.get(name, 0.0), "ms")
    metrics["cli.self_ms"] = (1000 * spent.get("request", 0.0), "ms")
    work = {k: sum(r.work.get(k, 0) for r in reqs) for k in WORK_COUNTS}
    for name, value in work.items():
        metrics[name] = (value, "count")
    parsed = sum(s.size for s in traced.spans if s.name == "notations.parse")
    metrics["notations.parse_kchars_per_s"] = (
        parsed / 1000 / max(spent.get("notations.parse", 0.0), 1e-9), "kchar/s")
    metrics["frege.out_bytes"] = (
        sum(s.size for s in traced.spans if s.name == "frege.render"), "B")
    metrics["truth.rows_per_s"] = (work["truth.rows"] / max(spent.get("truth.table", 0.0), 1e-9),
                                   "1/s")
    traced_s = sum(s.end - s.start for s in traced.spans if s.name == "request")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "1")

    run.OUT.mkdir(exist_ok=True)
    dump = run.OUT / f"trace-{args.workload}-{args.seed}.json"
    with dump.open("w") as handle:
        names = [f.name for f in fields(Span)]
        json.dump({"env": env, "fields": names,
                   "spans": [[getattr(s, n) for n in names] for s in traced.spans]}, handle)
    lines = [f"traced {len(reqs)} requests ({own} of the workload); spans in {dump}",
             golden_line] + known + lines
    lines += [f"{name:34s} {value:14.4f} {unit}" for name, (value, unit) in sorted(metrics.items())]
    return {"lines": lines, "metrics": metrics, "attempted": len(reqs), "failed": failed,
            "correct": failed == 0 and golden_ok}
