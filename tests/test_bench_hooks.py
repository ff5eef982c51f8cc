"""The names the benchmark's traced run looks up in the package.

`bench/run.py --trace 1` wraps functions it finds by name: `bench/spans.py`'s
`instruments` looks up `cli.parse`, `cli.print_formula`, `cli.build_parser`
and `cli._cmd_pair_check`, the module functions the CLI's handlers call, the
formulas helpers, and `to_tsv` in the dicts of the two table classes; its
import probe reads the import time of each module in `IMPORT_MODULES` under
`import illation.cli`.  A rename in the package would break only the traced
run, so both lookups are made here.  This reads `bench/` and edits nothing
there.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import illation

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("spans", "run", "workloads", "oracle")  # imported by their bare names


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # sys.path is restored afterwards
    saved = {name: sys.modules.pop(name) for name in BENCH_MODULES if name in sys.modules}
    yield importlib.import_module("spans")
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)
    sys.modules.update(saved)


def test_every_traced_name_is_found(spans):
    cli = spans.load_cli()
    assert cli is sys.modules["illation.cli"]
    patches = spans.instruments(cli, spans.Tracer())
    patched = {(owner, attr) for owner, attr, _ in patches}
    assert (cli, "_cmd_pair_check") in patched
    assert (cli.truth.TruthTable, "to_tsv") in patched
    assert (cli.trivalent.TriTable, "to_tsv") in patched
    assert {attr for _, attr, _ in patches} >= set(spans.ENTRY_POINTS) | set(spans.HELPERS)
    formulas = sys.modules["illation.formulas"]
    assert {(formulas, helper) for helper in spans.HELPERS} <= patched
    for owner, attr, _ in patches:
        assert attr in vars(owner), (owner, attr)


def test_cli_import_loads_every_module_the_benchmark_times(spans):
    code = "import sys, json, illation.cli; print(json.dumps(sorted(sys.modules)))"
    src = str(Path(illation.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert r.returncode == 0, r.stderr
    loaded = set(json.loads(r.stdout))
    assert [m for m in spans.IMPORT_MODULES if f"illation.{m}" not in loaded] == []
