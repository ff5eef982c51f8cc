"""The package's names, read on first use.

`import illation` loads none of the package's modules: each name of
`illation.__all__` is imported from its home module when it is first read.
The indirect method, the X-frame icons, ANF and Boole's congruence check
live in `illation.methods`, and `illation.truth` still resolves each of
their names, as `illation.cli` resolves `trivalent`.  Each name is one
object wherever it is read.
"""

import copy
import importlib
import io
import json
import os
import pickle
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import illation
from illation import cli, methods, trivalent, truth
from illation.formulas import Claw, Var

PACKAGE = Path(illation.__file__).parent

# The exported names, as `dir()` of the package listed them when its
# `__init__` imported every module.
EXPORTED = [
    "AnfPoly", "AxiomReport", "Claw", "CongruenceReport", "Conn16", "Const", "Falsified",
    "HFAtom", "HFNode", "HFSet", "LimitExceededError", "MissingVariableError", "Neg",
    "Notation", "NumberStructure", "PI", "ParseError", "PrintError", "Prod", "PropFormula",
    "Quant", "RAtom", "RClaw", "RNeg", "RProd", "RSum", "RelFormula", "SIGMA",
    "SatScanReport", "Structure", "Sum", "Tautology", "TriValue", "TruthTable", "Var", "aeio",
    "anf", "arithmetic", "chain", "check_axioms", "congruence_check", "connective_index",
    "connective_vector", "ensure_closed", "errors", "eval2", "eval_in", "expand",
    "extend_model", "find_counterexample", "formulas", "free_vars", "frege", "herbrand_scan",
    "hf_equal", "indirect_falsify", "indiscernible", "is_tautology", "mitchell", "notations",
    "parse", "parse_relational", "print_formula", "quantifiers", "relsyntax", "render_frege",
    "sat_scan", "sat_search", "substitute", "tri_and", "tri_neg", "tri_or", "tri_table",
    "trivalent", "truth", "truth_table", "wiener_pair", "xframe",
]
# The names defined in `methods`, which `truth` defined before.
MOVED = ["Tautology", "Falsified", "indirect_falsify", "xframe", "AnfPoly", "anf",
         "CongruenceReport", "merged_vars", "semantic_difference", "congruence_check"]


def modules() -> list:
    return [importlib.import_module(f"illation.{path.stem}")
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]


def fresh(code: str) -> str:
    """The stdout of `code` in a new interpreter under -S (no site hooks)."""
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), timeout=60)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_all_is_the_exported_list():
    assert illation.__all__ == EXPORTED


def test_each_name_is_its_home_modules_object():
    package = modules()
    for name in EXPORTED:
        value = getattr(illation, name)
        homes = [m for m in package if name in vars(m)]
        if not homes:  # a module exported by its name
            assert value is sys.modules[f"illation.{name}"]
        for home in homes:
            assert vars(home)[name] is value, (home.__name__, name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from illation import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == EXPORTED
    assert all(namespace[name] is getattr(illation, name) for name in EXPORTED)


def test_dir_lists_every_name_before_any_is_read():
    listed, loaded = json.loads(fresh(
        "import json, sys, illation\n"
        "listed = dir(illation)\n"
        "print(json.dumps([listed, sorted(m for m in sys.modules if m.startswith('illation'))]))"
    ))
    assert set(EXPORTED) <= set(listed)
    assert listed == sorted(listed)
    assert loaded == ["illation"]


def test_reading_a_name_loads_its_home_alone():
    loaded = fresh("import sys, illation\n"
                   "illation.render_frege\n"
                   "print(sorted(m for m in sys.modules if m.startswith('illation')))")
    assert loaded == ("['illation', 'illation._record', 'illation.errors', 'illation.formulas', "
                      "'illation.frege']\n")


@pytest.mark.parametrize("module", [illation, truth, cli], ids=lambda m: m.__name__)
def test_an_unknown_name_is_an_attribute_error(module):
    message = f"module '{module.__name__}' has no attribute 'nope'"
    with pytest.raises(AttributeError, match=message):
        module.nope


def test_truth_resolves_the_names_defined_in_methods():
    for name in MOVED:
        assert getattr(truth, name) is getattr(methods, name)
        assert name not in vars(truth)
    assert truth._DECIDING is methods._DECIDING  # the engine and the tableau read one table
    from illation.truth import indirect_falsify, anf  # noqa: F401  the old import still works
    assert (indirect_falsify, anf) == (methods.indirect_falsify, methods.anf)


def test_cli_resolves_trivalent():
    assert cli.trivalent is trivalent
    assert vars(cli)["trivalent"] is trivalent


def test_table_reads_trivalent_through_cli(monkeypatch):
    """A stand-in set as `cli.trivalent` is the module `table --values 3` runs."""
    calls = []

    class StandIn:
        def tri_table(self, formula):
            calls.append(formula)
            return trivalent.tri_table(formula)

    monkeypatch.setattr(cli, "trivalent", StandIn(), raising=False)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["table", "--values", "3", "a"]) == 0
    assert calls == [Var("a")]


@pytest.mark.parametrize("value", [
    methods.Tautology((("a", False), ("a", True))),
    methods.Falsified({"a": False}),
    methods.anf(Claw(Var("a"), Var("b"))),
    methods.congruence_check(Var("a"), Var("a"), Claw(Var("h"), Var("b")), "h"),
], ids=lambda v: type(v).__name__)
def test_moved_records_print_copy_and_pickle(value):
    cls = type(value)
    assert cls.__module__ == "illation.methods"
    assert repr(value).startswith(f"{cls.__name__}(")
    for same in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert same == value and type(same) is cls and repr(same) == repr(value)
    # A pickle made when the class was defined in `truth` still loads.
    old = pickle.dumps(value, 0).replace(b"illation.methods", b"illation.truth")
    assert b"illation.truth" in old and pickle.loads(old) == value
