"""The record decorator against the real dataclasses, and the modules each command loads.

Every record class in the package gets a frozen dataclass twin built from the
same annotations and `__post_init__`; the two must agree on repr text,
equality (within and across classes), hashing, frozen assignment and
validation errors.
"""

import copy
import dataclasses
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import illation
from illation import (
    _record, arithmetic, formulas, methods, notations, quantifiers, relsyntax, trivalent, truth,
)
from illation.formulas import PI, Claw, Const, Neg, Prod, RAtom, Sum, Var

A, B = Var("a"), Var("b")
ATOM = RAtom("l", ("i", "j"))
TABLE = truth.truth_table(Claw(A, B))

# One or two argument tuples per record class; the second differs from the first.
SAMPLES = {
    formulas.Var: [("a",), ("b",)],
    formulas.Const: [(True,), (False,)],
    formulas.Neg: [(A,), (B,)],
    formulas.Claw: [(A, B), (B, A)],
    formulas.Prod: [(A, B), (A, A)],
    formulas.Sum: [(A, B), (B, B)],
    formulas.Conn16: [(3, A, B), (4, A, B)],
    formulas.RAtom: [("l", ("i", "j")), ("p", ("i",))],
    formulas.Quant: [(PI, "i", ATOM), ("Sigma", "i", ATOM)],
    truth.TruthTable: [(("a", "b"), 11), (("a", "b"), 7)],
    methods.Tautology: [((("a", False),),)],
    methods.Falsified: [({"a": True},)],
    methods.AnfPoly: [((("a",),),), ((),)],
    methods.CongruenceReport: [(True, None, False, {"a": True}, TABLE, TABLE)],
    trivalent.TriTable: [(("a",), 3, 1), (("a",), 3, 3)],
    quantifiers.Structure: [(2, {"l": (2, frozenset({(0, 1)}))}), (3, {})],
    quantifiers.SatScanReport: [(((1, None),), ())],
    arithmetic.NumberStructure: [(("1", "2"), frozenset({("1", "2")}), "1")],
    arithmetic.AxiomVerdict: [(True, None), (False, "not reflexive at 1")],
    arithmetic.AxiomReport: [("reading", {})],
    notations._Style: [(">", "&", "|", "~", None, False)],
}


def record_classes() -> list[type]:
    """The record classes defined in every module of the package."""
    package = Path(illation.__file__).parent
    modules = [importlib.import_module(f"illation.{path.stem}")
               for path in sorted(package.glob("*.py")) if path.stem != "__init__"]
    return [
        c
        for m in modules
        for c in vars(m).values()
        if isinstance(c, type) and c.__module__ == m.__name__
        and getattr(c.__init__, "__module__", None) == _record.__name__
    ]


def frozen(cls: type) -> bool:
    return cls.__setattr__ is not object.__setattr__


def twin(cls: type) -> type:
    """The dataclass the record class replaced."""
    spec = list(vars(cls)["__annotations__"])
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    made = dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace, frozen=True)
    made.__qualname__ = cls.__qualname__
    return made


def test_every_record_class_is_sampled():
    assert set(record_classes()) == set(SAMPLES)
    assert len(SAMPLES) == 21
    assert [c for c in SAMPLES if not frozen(c)] == []


def test_relational_connectives_are_the_propositional_nodes():
    assert formulas.RNeg is formulas.Neg
    assert formulas.RClaw is formulas.Claw
    assert formulas.RProd is formulas.Prod
    assert formulas.RSum is formulas.Sum
    assert relsyntax.parse_relational("~p(i)") == Neg(RAtom("p", ("i",)))
    assert repr(formulas.RNeg(ATOM)) == "Neg(inner=RAtom(predicate='l', indices=('i', 'j')))"


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_matches_dataclass(cls):
    dc = twin(cls)
    mine = [cls(*args) for args in SAMPLES[cls]]
    theirs = [dc(*args) for args in SAMPLES[cls]]
    for x, tx in zip(mine, theirs):
        assert repr(x) == repr(tx)
        assert x == cls(*(getattr(x, n) for n in vars(cls)["__annotations__"]))
        assert x.__eq__(object()) is NotImplemented and tx.__eq__(object()) is NotImplemented
        assert x != tx  # a different class, as with two dataclasses
        try:
            assert hash(x) == hash(tx)
        except TypeError:  # a dict field makes both unhashable
            pytest.raises(TypeError, hash, tx)
        name = next(iter(vars(cls)["__annotations__"]))
        for attempt in (lambda o: setattr(o, name, None), lambda o: delattr(o, name)):
            with pytest.raises(AttributeError) as mine_err:
                attempt(x)
            with pytest.raises(AttributeError) as their_err:
                attempt(tx)
            assert str(mine_err.value) == str(their_err.value)
    for (x, tx), (y, ty) in zip(zip(mine, theirs), zip(mine[1:], theirs[1:])):
        assert (x == y, x != y) == (tx == ty, tx != ty) == (False, True)


def test_equality_needs_the_same_class():
    assert Prod(A, B) != Sum(A, B)
    assert Prod(A, B) == Prod(Var("a"), Var("b"))
    assert Neg(A) != A and Neg(A) != "Neg(a)" and A != "a"
    assert Const(True) != True  # noqa: E712
    assert len({Prod(A, B), Sum(A, B), Prod(A, B)}) == 2


def test_hash_is_the_hash_of_the_field_tuple():
    """Nested records too, on either side and before a plain field.  A
    nested record stands in its parent's tuple by its own hash, as the
    tuple's call of its `__hash__` gives, not by `hash` of that int, which
    differs for a large one."""
    assert hash(A) == hash(("a",))
    assert hash(Claw(A, B)) == hash((A, B))
    assert hash(formulas.Conn16(3, A, B)) == hash((3, A, B))
    large = next(f for f in (Const(True), Const(False), A, B, Var("c"), Var("d"))
                 if hash(hash(f)) != hash(f))
    left, right = formulas.Conn16(3, Neg(A), Prod(B, A)), Sum(Neg(B), Const(False))
    for f in (Neg(large), Claw(large, large), Neg(Neg(large)), Claw(left, right),
              Claw(right, left), Neg(Claw(left, right)), formulas.Quant(PI, "i", Neg(ATOM))):
        assert hash(f) == hash(tuple(getattr(f, n) for n in f.__record_fields__)), f
    assert hash(Claw(A, B)) != hash(Claw(B, A))


def test_repr_is_the_dataclass_text():
    assert repr(A) == "Var(name='a')"
    assert repr(Neg(A)) == "Neg(inner=Var(name='a'))"
    assert repr(arithmetic.AxiomVerdict(True, None)) == "AxiomVerdict(holds=True, witness=None)"
    with pytest.raises(TypeError, match=r"not a propositional formula: RAtom\(predicate='l'"):
        formulas.free_vars(ATOM)


@pytest.mark.parametrize(
    "cls, args",
    [
        (formulas.Var, ("A",)),
        (formulas.Var, ("",)),
        (formulas.Conn16, (17, A, B)),
        (formulas.RAtom, ("l", ())),
        (formulas.Quant, ("All", "i", ATOM)),
        (quantifiers.Structure, (0, {})),
        (arithmetic.NumberStructure, ((), frozenset(), "1")),
    ],
)
def test_post_init_errors_match_dataclass(cls, args):
    with pytest.raises(ValueError) as mine:
        cls(*args)
    with pytest.raises(ValueError) as theirs:
        twin(cls)(*args)
    assert str(mine.value) == str(theirs.value)


def test_keywords_and_defaults():
    """Fields bind by keyword as by position, and no field has a default."""
    Verdict = arithmetic.AxiomVerdict
    assert Verdict(holds=False, witness="w") == Verdict(False, "w")
    assert Verdict(witness="w", holds=False) == Verdict(False, "w")
    assert Var(name="a") == A
    assert Claw(consequent=B, antecedent=A) == Claw(A, B)
    for call in (lambda: Var(), lambda: Var("a", "b"), lambda: Var(nam="a"),
                 lambda: Verdict(True), lambda: Verdict(True, witness="w", holds=False)):
        with pytest.raises(TypeError, match=r"Var\.__init__\(\)|AxiomVerdict\.__init__\(\)"):
            call()


def test_structure_refuses_assignment():
    s = quantifiers.Structure(2, {})
    with pytest.raises(_record.FrozenInstanceError, match="cannot assign to field 'domain_size'"):
        s.domain_size = 3
    assert s == quantifiers.Structure(2, {})
    pytest.raises(TypeError, hash, s)  # its dict field is unhashable


def test_table_rows_are_read_from_the_fields():
    """`rows` is a plain property, the same on every read; the tables hold
    only their fields."""
    table = truth.truth_table(Claw(A, B))
    fresh = truth.TruthTable(table.variables, table.mask)
    assert table.rows == table.rows == fresh.rows
    assert [value for _, value in table.rows] == [True, False, True, True]
    assert table == fresh and hash(table) == hash(fresh)
    with pytest.raises(AttributeError):
        table.mask = 0
    tri = trivalent.tri_table(Neg(A))
    again = trivalent.TriTable(tri.variables, tri.not_f, tri.is_v)
    assert tri.rows == tri.rows == again.rows and len(tri.rows) == 3
    assert tri == again and hash(tri) == hash(again)
    for x in (table, fresh, tri, again):
        assert not hasattr(x, "__dict__"), x


def test_records_hold_their_fields_in_slots():
    """A record's slots are its fields: nothing else per instance."""
    for cls in SAMPLES:
        fields = tuple(vars(cls)["__annotations__"])
        assert cls.__slots__ == cls.__record_fields__ == fields
        for args in SAMPLES[cls]:
            assert not hasattr(cls(*args), "__dict__"), cls


def test_formula_nodes_have_no_dict():
    samples = [cls(*args) for cls in SAMPLES if cls.__module__ == formulas.__name__
               for args in SAMPLES[cls]]
    parsed = notations.parse("CKabNEcd", notations.Notation.POLISH)
    nodes = samples + list(formulas.walk(parsed, formulas.PROPOSITIONAL))
    assert (len(samples), len(nodes)) == (18, 26)
    assert formulas.PropFormula.__slots__ == formulas.RelFormula.__slots__ == ()
    for f in nodes:
        hash(f)  # a hash leaves nothing behind on the node
        assert not hasattr(f, "__dict__"), f


def test_a_formula_node_is_the_size_of_its_fields():
    """Each node takes what a bare object with the same slots takes: no
    slot and no dict beyond its fields."""
    for cls in SAMPLES:
        if cls.__module__ != formulas.__name__:
            continue
        bare = type("Bare", (), {"__slots__": cls.__record_fields__})()
        for args in SAMPLES[cls]:
            assert sys.getsizeof(cls(*args)) == sys.getsizeof(bare), cls


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_records_copy_and_pickle(cls):
    for x in (cls(*args) for args in SAMPLES[cls]):
        for same in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert same == x and type(same) is cls and repr(same) == repr(x)


def test_record_rejects_unsupported_shapes():
    with pytest.raises(TypeError, match="no record template for 4 fields"):
        class Wide(metaclass=_record.record):
            a: int
            b: int
            c: int
            d: int


# Modules the benchmark's import probe and its traced run look up under
# `import illation.cli`, and the heavy standard-library packages the CLI used
# to load (the XML escape pulled in urllib/http/email/ssl, dataclasses pulled
# in inspect, and argparse pulled in gettext and, when it ran, locale).
PROBED = ["illation.cli", "illation.formulas", "illation.notations", "illation.frege",
          "illation.truth", "illation.quantifiers", "illation.arithmetic"]
UNWANTED = ["dataclasses", "inspect", "xml", "urllib", "http", "email", "ssl",
            "argparse", "gettext", "locale"]


def test_cli_import_stays_light():
    # -S: no site hooks, so a module is present only if illation imported it.
    code = "import sys, json, illation.cli; print(json.dumps(sorted(sys.modules)))"
    src = str(Path(illation.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    loaded = set(json.loads(r.stdout))
    assert [m for m in PROBED if m not in loaded] == []
    assert sorted(m for m in loaded if m.split(".")[0] in UNWANTED) == []


def test_cli_import_leaves_json_to_the_commands_that_use_it():
    code = "import sys, illation.cli; print('json' in sys.modules)"
    src = str(Path(illation.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr


# What every command loads: `illation.cli` and the package modules it
# imports.  `trivalent` and `methods` load only with the commands that run
# them.
LOADED_BY_CLI = {"illation", "illation._record", "illation.arithmetic", "illation.cli",
                 "illation.errors", "illation.formulas", "illation.frege",
                 "illation.notations", "illation.quantifiers", "illation.relsyntax",
                 "illation.truth"}
# Each command (argv, stdin), the modules it loads beyond those, and an upper
# bound on the source bytes of all the package modules it loads: with no
# bytecode written, each process compiles every one of them.
COMMAND_LOADS = [
    (["taut", "a|~a"], "", set(), 108_000),
    (["table", "a&b"], "", set(), 108_000),
    (["translate", "--from", "polish", "--to", "frege", "Cab"], "", set(), 108_000),
    (["expand", "--domain", "2", "Pi i . p(i)"], "", set(), 108_000),
    (["sat", "--domain", "1", "Pi i . p(i)"], "", set(), 108_000),
    (["scan", "--herbrand", "Sum i . p(i)"], "", set(), 108_000),
    (["axioms", "-"], '{"carrier": ["1"], "one": "1", "R": [["1", "1"]]}', set(), 108_000),
    (["pair-check", "--atoms", "2"], "", set(), 108_000),
    (["-h"], "", set(), 108_000),
    (["table", "--values", "3", "a&b"], "", {"illation.trivalent"}, 113_000),
    (["taut", "--method", "indirect", "a|~a"], "", {"illation.methods"}, 119_000),
    (["anf", "a&b"], "", {"illation.methods"}, 119_000),
    (["connectives"], "", {"illation.methods"}, 119_000),
]
RUN_AND_LIST = """import io, json, os, sys
from contextlib import redirect_stdout
from illation import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "illation")
print(json.dumps([code, loaded, sum(os.path.getsize(sys.modules[m].__file__) for m in loaded)]))
"""


def run_light(code: str, *argv: str, stdin: str = "") -> subprocess.CompletedProcess:
    """`code` in a child under -S: no site hooks, so a module is present only
    if the child's own imports loaded it."""
    src = str(Path(illation.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-S", "-c", code, *argv], input=stdin,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)


@pytest.mark.parametrize("argv, stdin, extra, bound", COMMAND_LOADS,
                         ids=[" ".join(argv[:3]) for argv, *_ in COMMAND_LOADS])
def test_each_command_loads_only_what_it_runs(argv, stdin, extra, bound):
    r = run_light(RUN_AND_LIST, *argv, stdin=stdin)
    assert r.returncode == 0, r.stderr
    code, loaded, compiled = json.loads(r.stdout)
    assert code in (0, 1)  # the command ran to its answer
    assert set(loaded) == LOADED_BY_CLI | extra
    assert compiled <= bound


def test_the_package_import_loads_no_module():
    r = run_light("import sys, illation; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'illation'))")
    assert (r.returncode, r.stdout) == (0, "['illation']\n"), r.stderr
