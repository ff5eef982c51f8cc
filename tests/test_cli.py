import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from illation import cli, errors
from illation.notations import Notation, parse

from helpers import minterm_sum, ref_replays


CMD = [sys.executable, "-m", "illation.cli"]


def run(*args, stdin=None):
    return subprocess.run(CMD + list(args), input=stdin, capture_output=True, text=True)


def test_translate_table4_golden():
    r = run("translate", "--from", "polish", "--to", "peano-russell", "CCCNcaCNacCCNcaCCcaa")
    assert r.returncode == 0
    assert r.stdout == "((~c>a)>(~a>c))>((~c>a)>((c>a)>a))\n"


def test_translate_round_trip():
    r = run("translate", "--from", "peirce", "--to", "peirce", "a -< b")
    assert r.returncode == 0
    assert r.stdout == "a -< b\n"


def test_translate_negation_to_polish():
    r = run("translate", "--from", "peano-russell", "--to", "polish", "~a")
    assert (r.returncode, r.stdout) == (0, "Na\n")


def test_translate_parse_error():
    r = run("translate", "--from", "peano-russell", "--to", "polish", "a>")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "offset" in r.stderr
    r = run("translate", "--from", "polish", "--to", "peirce", "Ca1")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == ("error: syntax error at offset 2; found '1'; "
                        "expected one of: 'C', 'N', 'K', 'A', 'E', variable\n")


def test_translate_polish_const_print_error():
    r = run("translate", "--from", "peano-russell", "--to", "polish", "#t")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr != ""


def test_translate_frege_ascii():
    r = run("translate", "--from", "peano-russell", "--to", "frege", "x>y")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["-+-- y", " |", " +-- x"]


def test_translate_frege_svg():
    r = run("translate", "--from", "peano-russell", "--to", "frege", "--format", "svg", "x>y")
    assert r.returncode == 0
    assert r.stdout.startswith("<svg")
    assert "</svg>" in r.stdout


def test_stdin_dash():
    r = run("translate", "--from", "peano-russell", "--to", "polish", "-", stdin="a>b\n")
    assert (r.returncode, r.stdout) == (0, "Cab\n")


def test_table_claw():
    r = run("table", "a -< b", "--notation", "peirce")
    assert r.returncode == 0
    assert r.stdout == "a\tb\tvalue\nv\tv\tv\nv\tf\tf\nf\tv\tv\nf\tf\tv\n"


def test_table_default_notation_and_constant():
    r = run("table", "#t")
    assert (r.returncode, r.stdout) == (0, "value\nv\n")


def test_table_trivalent():
    r = run("table", "a + -a", "--notation", "peirce", "--values", "3")
    assert r.returncode == 0
    assert r.stdout == "a\tvalue\nV\tV\nL\tL\nF\tV\n"


def test_table_trivalent_rejects_claw():
    r = run("table", "a -< b", "--notation", "peirce", "--values", "3")
    assert r.returncode == 2
    assert r.stdout == ""


def test_taut_peirce_law():
    r = run("taut", "((a>b)>a)>a")
    assert (r.returncode, r.stdout) == (0, "tautology\n")


def test_taut_counterexample():
    r = run("taut", "a>b")
    assert r.returncode == 1
    assert r.stdout == "counterexample: a=v b=f\n"


def test_taut_full_has_no_variable_cap():
    # 18 variables: past the 16-variable table limit, which taut does not share
    names = "abcdefghijklmnopqr"
    either = "|".join(names)
    r = run("taut", f"({either})>({either})")
    assert (r.returncode, r.stdout) == (0, "tautology\n")
    r = run("taut", either)
    assert r.returncode == 1
    assert r.stdout == "counterexample: " + " ".join(f"{n}=f" for n in names) + "\n"


def test_taut_indirect_trace():
    r = run("taut", "--method", "indirect", "((a>b)>a)>a")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "tautology"
    assert lines[1] == "force a=v"
    assert lines[2] == "force a=f (contradiction)"


def test_taut_indirect_answers_a_decided_tautology():
    # the sum of all 64 minterms over six variables, which the row search
    # calls a tautology: the trace search finds a two-step trace inside the
    # cap, the least any trace has, and the trace replays on the tableau
    text = minterm_sum("abcdef")
    r = run("taut", "--method", "indirect", text)
    assert (r.returncode, r.stderr) == (0, "")
    first, *steps = r.stdout.splitlines()
    assert first == "tautology" and len(steps) == 2
    assert all(step.startswith("force ") for step in steps)
    assert steps[1].endswith(" (contradiction)")
    pairs = (step.removeprefix("force ").removesuffix(" (contradiction)").split("=")
             for step in steps)
    trace = tuple((name, value == "v") for name, value in pairs)
    assert ref_replays(parse(text, Notation.PEANO_RUSSELL), trace)


def test_taut_indirect_counterexample():
    r = run("taut", "--method", "indirect", "x>(y>z)")
    assert r.returncode == 1
    assert r.stdout == "counterexample: x=v y=v z=f\n"


def test_taut_indirect_state_cap_exits_3():
    # 18 clauses over 19 variables and a consequent d outside them: above the
    # table limit the search is unpruned, and its 2^18 open branches exceed the cap
    names = "abcefghijklmnopqrst"
    clauses = "&".join(f"({x}|{y})" for x, y in zip(names, names[1:]))
    r = run("taut", "--method", "indirect", f"({clauses})>d")
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == "limit exceeded: indirect search exceeded its state cap of 200,000 states\n"


def test_connectives_table():
    r = run("connectives")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "index\tvv\tvf\tfv\tff"
    assert lines[1] == "1\tf\tf\tf\tf"
    assert lines[13] == "13\tv\tf\tv\tv"
    assert lines[16] == "16\tv\tv\tv\tv"
    # frames follow, one per index
    assert "X" in r.stdout[r.stdout.index("\n\n"):]


def test_anf():
    r = run("anf", "a>b")
    assert (r.returncode, r.stdout) == (0, "1 + a + ab\n")
    r = run("anf", "a & -a", "--notation", "peirce")
    assert (r.returncode, r.stdout) == (2, "")  # & is not peirce syntax
    r = run("anf", "a-a", "--notation", "peirce")
    assert (r.returncode, r.stdout) == (0, "0\n")


def test_expand_golden():
    r = run("expand", "Pi i . Sum j . l(i,j)", "--domain", "2")
    assert (r.returncode, r.stdout) == (0, "(l_0_0 + l_0_1)(l_1_0 + l_1_1)\n")


def test_expand_to_peano_russell():
    r = run("expand", "Sum i . p(i)", "--domain", "2", "--to", "peano-russell")
    assert (r.returncode, r.stdout) == (0, "p_0|p_1\n")


def test_expand_limit_exit_3():
    r = run("expand", "Pi i . Pi j . l(i,j)", "--domain", "257")  # 257^2 atom occurrences
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == "limit exceeded: expansion needs more than 65,536 atom occurrences\n"


def test_expand_answers_past_the_sixteen_cells_of_the_searches():
    r = run("expand", "--domain", "17", "Pi i . p(i)")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == " ".join(f"p_{i}" for i in range(17)) + "\n"


def test_the_atom_budget_variable_is_ignored(monkeypatch):
    """The cell budget is the table limit, which no environment variable
    moves: a model over 5 cells is printed and a search over 25 exits 3,
    whatever `ILLATION_MAX_ATOMS` says."""
    searches = (["sat", "--domain", "5", "Sum i . l(i,i)"],
                ["sat", "--domain", "5", "Pi i . Sum j . l(i,j) > l(i,j)"])
    monkeypatch.delenv("ILLATION_MAX_ATOMS", raising=False)
    unset = [in_process(cli.main, argv) for argv in searches]
    assert [code for code, _, _ in unset] == [0, 3]
    for value in ("0", "many", "3", "100"):
        monkeypatch.setenv("ILLATION_MAX_ATOMS", value)
        assert [in_process(cli.main, argv) for argv in searches] == unset, value


def test_sat_witness_json():
    r = run("sat", "Sum i . Sum j . l(i,j)", "--domain", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "domain": 1,
        "predicates": {"l": {"arity": 2, "true": [[0, 0]]}},
    }


def test_sat_none_exit_1():
    r = run("sat", "Sum i . l(i,i) & ~l(i,i)", "--domain", "2")
    assert r.returncode == 1
    assert r.stdout == "none\n"


def test_scan_sizes_and_extensions():
    r = run("scan", "Sum i . l(i,i)", "--max-size", "2")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("size 1: satisfiable ")
    assert lines[1].startswith("extend 1 -> 2: ")
    assert lines[2].startswith("size 2: satisfiable ")
    assert lines[3].startswith("extend 2 -> 3: ")
    ext = json.loads(lines[1].split(": ", 1)[1])
    assert ext["domain"] == 2


def test_scan_unsat_exit_1():
    r = run("scan", "Pi i . l(i,i) & ~l(i,i)", "--max-size", "2")
    assert r.returncode == 1
    assert r.stdout == "size 1: none\nsize 2: none\n"


def test_scan_herbrand():
    r = run("scan", "(Pi i . p(i)) > Sum j . p(j)", "--max-size", "3", "--herbrand")
    assert r.returncode == 0
    assert r.stdout == "least valid size: 1\nexpansion: p_0 -< p_0\n"


def test_scan_herbrand_none():
    r = run("scan", "Sum i . p(i)", "--max-size", "3", "--herbrand")
    assert r.returncode == 1
    assert r.stdout == "no valid size up to 3\n"


def test_axioms_chain3(tmp_path):
    blob = {
        "carrier": ["1", "2", "3"],
        "one": "1",
        "R": [["1", "1"], ["1", "2"], ["1", "3"], ["2", "2"], ["2", "3"], ["3", "3"]],
    }
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps(blob))
    r = run("axioms", str(path))
    assert r.returncode == 1  # 4b fails
    assert "axiom 4b (no maximum): fail" in r.stdout
    assert "witness: maximum element 3" in r.stdout
    for key in ("axiom 1", "axiom 2", "axiom 3", "axiom 4a", "axiom 5"):
        assert f"{key} (" in r.stdout


def test_axioms_json_output(tmp_path):
    blob = {"carrier": ["1"], "one": "1", "R": [["1", "1"]]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(blob))
    r = run("axioms", str(path), "--json")
    assert r.returncode == 1
    parsed = json.loads(r.stdout)
    assert parsed["axioms"]["4b"]["holds"] is False
    assert parsed["all_hold"] is False


def test_axioms_stdin():
    blob = json.dumps({"carrier": ["1"], "one": "1", "R": [["1", "1"]]})
    r = run("axioms", "-", stdin=blob)
    assert r.returncode == 1
    assert "axiom 1" in r.stdout


@pytest.mark.parametrize("blob, code, stdout_line, stderr", [
    ({"carrier": [1, 2], "one": 1, "R": [[1, 1], [2, 2]]}, 1,
     "axiom 5 (induction): fail  witness: closed proper subset {1}", ""),
    ({"carrier": [None, "2"], "one": None, "R": [[None, None], ["2", "2"], [None, "2"]]}, 2,
     None, "error: number structure JSON: one must be a string or number, got None\n"),
    ({"carrier": ["1"], "one": "1"}, 2,
     None, "error: number structure JSON needs carrier/one/R: 'R'\n"),
], ids=["numbers", "null", "no-R"])
def test_axioms_reads_numbers_and_rejects_null(blob, code, stdout_line, stderr):
    r = run("axioms", "-", stdin=json.dumps(blob))
    assert (r.returncode, r.stderr) == (code, stderr)
    if stdout_line is None:
        assert r.stdout == ""
    else:
        assert stdout_line in r.stdout.splitlines()


def test_axioms_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    r = run("axioms", str(path))
    assert r.returncode == 2
    assert r.stdout == ""


def test_axioms_missing_file():
    r = run("axioms", "/nonexistent/number.json")
    assert r.returncode == 2
    assert r.stdout == ""


def test_pair_check():
    r = run("pair-check", "--atoms", "3")
    assert r.returncode == 0
    assert r.stdout == "pair injectivity: ok (81 atom-level comparisons, 6561 nested comparisons)\n"


def test_pair_check_atom_bounds():
    r = run("pair-check", "--atoms", "0")
    assert r.returncode == 2
    r = run("pair-check", "--atoms", "5")
    assert r.returncode == 2


def _address_space_cap():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# 16 distinct cells, within the cell limit of the searches, but 16^6 atom occurrences.
SIX_QUANTIFIERS = "Pi i . Pi j . Pi k . Pi l . Pi m . Pi o . p(i)"
# Each E prints as its expansion, which repeats both sides: 3 * 2^40 - 2 leaves.
FORTY_NESTED_E = "E" * 40 + "".join(chr(ord("a") + i % 26) for i in range(41))
# Its negation has 24 cells at size 4 and 35 at 5, past the 16-cell table limit.
HERBRAND_35_CELLS = "(Sum i . (((Sum o . (t(i,o,i) > q(o))) > s(i,i,i)) > s(i,i,i)))"
# A tautology over 40 variables that no row scan of 2^26 rows decides.
FORTY_VARIABLE_TAUTOLOGY = "a | ~a | " + " | ".join(f"b_{i}" for i in range(1, 40))
# The same, with 400 seeded products of 5 literals over its 40 variables after
# `a | ~a`: ~2,000 leaves, and each block of the scan walks the formula.
_FORTY = random.Random(40)
FORTY_VARIABLES_400_PRODUCTS = "a | ~a | " + " | ".join(
    " & ".join(_FORTY.choice(("", "~")) + name
               for name in _FORTY.sample(["a"] + [f"b_{i}" for i in range(1, 40)], 5))
    for _ in range(400))


# Each limit is checked before its enumeration starts, or in the row scans
# after the first 2^26 rows: the run ends at once, or within seconds, with one
# line on stderr, where a late check would exhaust time or memory first (the
# run's address space is capped at 1 GiB).
@pytest.mark.parametrize("argv, stdin, code", [
    (["expand", "--domain", str(10**9), "Pi i . p(i)"], None, 3),
    (["sat", "--domain", str(10**9), "Pi i . p(i)"], None, 3),
    (["scan", "--herbrand", "--max-size", str(10**9), "Pi i . p(i)"], None, 3),
    (["scan", "--max-size", "0", "Pi i . p(i)"], None, 2),
    (["scan", "--herbrand", "--max-size", "0", "Pi i . p(i)"], None, 2),
    (["axioms", "-"], json.dumps({"carrier": [str(i) for i in range(13)], "one": "0", "R": []}),
     3),
    (["pair-check", "--atoms", "5"], None, 2),
    (["table", "&".join(chr(ord("a") + i) for i in range(17))], None, 3),
    (["expand", "--domain", "16", SIX_QUANTIFIERS], None, 3),
    (["sat", "--domain", "16", SIX_QUANTIFIERS], None, 3),
    (["translate", "--from", "polish", "--to", "peirce", FORTY_NESTED_E], None, 3),
    (["translate", "--from", "polish", "--to", "frege", "--format", "svg", FORTY_NESTED_E],
     None, 3),
    (["scan", "--herbrand", "--max-size", "5", HERBRAND_35_CELLS], None, 3),
    (["taut", FORTY_VARIABLE_TAUTOLOGY], None, 3),
    (["taut", FORTY_VARIABLES_400_PRODUCTS], None, 3),
], ids=["expand-domain-1e9", "sat-domain-1e9", "herbrand-max-size-1e9", "scan-max-size-0",
        "herbrand-max-size-0", "axioms-13-elements", "pair-check-5-atoms", "table-17-variables",
        "expand-16-to-the-6-leaves", "sat-16-to-the-6-leaves", "peirce-40-nested-E",
        "frege-svg-40-nested-E", "herbrand-35-cells", "taut-40-variables",
        "taut-40-variables-400-products"])
def test_limits_fail_before_enumeration(argv, stdin, code):
    done = subprocess.run(CMD + argv, input=stdin, capture_output=True, text=True, timeout=20,
                          preexec_fn=_address_space_cap)
    assert (done.returncode, done.stdout) == (code, "")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert done.stderr.startswith("limit exceeded: " if code == 3 else "error: ")


def test_row_scans_name_the_rows_they_cleared(monkeypatch):
    """Past its budget, here cut to 2^12 rows, a row scan names the rows it
    cleared, and the tautology check names the method that needs no table.
    A row that decides within the budget is answered."""
    monkeypatch.setattr(errors, "MAX_SCAN_BITS", 12)
    fourteen = "a | ~a | " + " | ".join(f"b_{i}" for i in range(1, 14))
    contradiction = "Pi i . Pi j . (l(i,j) & ~l(i,j))"  # n*n cells at size n, no model
    assert in_process(cli.main, ["taut", fourteen]) == (3, "", (
        "limit exceeded: row scan stopped after clearing 4,096 of the 2^14 rows over 14 "
        "variables; try --method indirect\n"))
    assert in_process(cli.main, ["taut", f"~({fourteen})"]) == (1, "counterexample: " + " ".join(
        ["a=v"] + [f"b_{i}=v" for i in range(1, 14)]) + "\n", "")
    r = run("taut", "--method", "indirect", FORTY_VARIABLE_TAUTOLOGY)  # at the full budget
    assert (r.returncode, r.stdout) == (0, "tautology\nforce a=f\nforce a=v (contradiction)\n")
    assert in_process(cli.main, ["sat", "--domain", "4", contradiction]) == (3, "", (
        "limit exceeded: row scan stopped after clearing 4,096 of the 2^16 rows over 16 "
        "variables\n"))
    assert in_process(cli.main, ["scan", "--max-size", "4", contradiction])[::2] == (
        3, "limit exceeded: size 4: row scan stopped after clearing 4,096 of the 2^16 rows "
           "over 16 variables\n")


def test_unknown_subcommand():
    r = run("frobnicate")
    assert r.returncode == 2
    assert r.stdout == ""


def test_runs_are_deterministic():
    for args in (
        ("table", "a>b|c"),
        ("taut", "--method", "indirect", "((a>b)>c)>a"),
        ("scan", "Sum i . l(i,i)", "--max-size", "2"),
        ("connectives",),
    ):
        first = run(*args)
        second = run(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


# Run in a fresh interpreter, so no other test's garbage is counted.  Every
# line of output is one JSON value.
COLLECTOR_SCRIPT = r"""
import contextlib, gc, io, itertools, json, sys
from illation import cli

def run(*argv, stdin=""):
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))

def chain(n):
    return " | ".join("x_%d" % i for i in range(n))

def conjuncts(k):
    return " & ".join(["(Pi i . Sum j . r(i, j) > ~p(j))"] * k)

minterms = " | ".join("(" + " & ".join(sign + v for sign, v in zip(signs, "abcd")) + ")"
                      for signs in itertools.product(["", "~"], repeat=4))
translate = ["translate", "--from", "peano-russell", "--to", "peirce", "-"]
expand = ["expand", "--domain", "2", "-"]
taut = ["taut", "--method", "indirect", "-"]
gc.disable()
gc.collect()
left = []
for argv, stdin in [(translate, chain(10)), (translate, chain(10_000)),
                    (expand, conjuncts(1)), (expand, conjuncts(240)),
                    (taut, "a | ~a"), (taut, minterms)]:
    code = run(*argv, stdin=stdin)
    left.append([argv[0], code, gc.collect()])
print(json.dumps(left))
during = []  # the collector's state while `taut` runs
handler = cli._cmd_taut
cli._cmd_taut = lambda args: during.append(gc.isenabled()) or handler(args)
ends = []
for enabled in (True, False):
    for argv in (["taut", "a | ~a"], ["taut", "a"], ["taut", "a &"],
                 ["table", chain(17)], ["table", "--values", "4", "a"]):
        (gc.enable if enabled else gc.disable)()
        code = run(*argv)
        ends.append([enabled, code, gc.isenabled()])
print(json.dumps(ends))
print(json.dumps(during))
"""


def test_main_pauses_the_collector_and_leaves_it_as_it_was():
    """`main` runs a command with the cyclic collector off.  Its premise: a
    command leaves no more cyclic garbage on a long input than on a short
    one, as the trees it builds hold no cycle.  And the collector is as the
    caller left it on every exit: 0, 1, 2 (a parse error), 3 (a limit) and
    2 (a usage error)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, "-c", COLLECTOR_SCRIPT], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert r.returncode == 0, r.stderr
    left, ends, during = map(json.loads, r.stdout.splitlines())
    assert [code for _, code, _ in left] == [0] * 6
    for (command, _, short), (_, _, long) in zip(left[::2], left[1::2]):
        assert short == long, (command, short, long)
    codes = [0, 1, 2, 3, 2]
    assert ends == [[True, code, True] for code in codes] + [[False, code, False]
                                                            for code in codes]
    assert during == [False] * 6  # the three `taut` runs, from each state


def test_sat_cell_limit_exits_3_before_building_cells():
    r = subprocess.run(
        CMD + ["sat", "--domain", "3000", "Pi i . Pi j . Pi k . r(i,j,k)"],
        capture_output=True, text=True, timeout=10,
    )
    assert (r.returncode, r.stdout) == (3, "")
    # a domain over the cell limit is refused before the formula is walked
    assert r.stderr == "limit exceeded: expansion needs more than 16 distinct atoms\n"


def test_axioms_rejects_a_string_carrier():
    blob = json.dumps({"carrier": "12", "one": "1", "R": [["1", "1"]]})
    r = run("axioms", "-", stdin=blob)
    assert (r.returncode, r.stdout) == (2, "")
    assert "carrier must be a list" in r.stderr


@pytest.mark.parametrize(
    "blob, field",
    [
        ({"carrier": [[1]], "one": "1", "R": []}, "carrier element"),
        ({"carrier": ["1"], "one": ["1"], "R": []}, "one"),
    ],
)
def test_axioms_rejects_a_list_element(blob, field):
    r = run("axioms", "-", stdin=json.dumps(blob))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith(f"error: number structure JSON: {field} must be a string or number")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("pair", [["1", "1", "2"], "12"])
def test_axioms_rejects_a_malformed_r_pair(pair):
    blob = {"carrier": ["1", "2"], "one": "1", "R": [["1", "1"], pair, ["2", "2"]]}
    r = run("axioms", "-", stdin=json.dumps(blob))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == (
        f"error: number structure JSON: R pair must be a list of two elements, got {pair!r}\n"
    )


def test_table_values_3_names_an_unsupported_connective_before_the_limit():
    formula = "a>b|" + "|".join("cdefghijk")  # 11 variables and a claw
    r = run("table", "--values", "3", formula)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: no trivalent matrix exists for Claw nodes\n"


def in_process(call, argv):
    """(exit code, stdout, stderr) of `call(argv)` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = call(list(argv))
    return code, out.getvalue(), err.getvalue()


# Argument lists that `main` answers with help or with a usage error, from
# before the command and after it, as docs/grammars.md reads the command line.
USAGE_ANSWERS = [
    ([], "error"), (["-h"], "help"), (["--help"], "help"), (["frobnicate", "a"], "error"),
    (["--"], "error"), (["-hh"], "error"), (["-x", "taut", "a"], "error"),
    *(([name, "-h"], "help") for name in cli._COMMANDS),
    (["taut", "a", "--help"], "help"), (["scan", "-h", "--he"], "help"),
    (["taut", "--method", "bogus", "a"], "error"), (["taut"], "error"),
    (["sat", "--domain", "x", "a"], "error"), (["taut", "--bogus", "a"], "error"),
    (["taut", "--bogus", "-h"], "error"), (["taut", "--meth", "indirect", "a"], "error"),
    (["taut", "a", "b"], "error"), (["scan", "--herbrand=1", "a"], "error"),
]


@pytest.mark.parametrize("argv, answer", USAGE_ANSWERS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ANSWERS])
def test_one_subparser_answers_as_the_full_tree(argv, answer, monkeypatch):
    """Help is printed on stdout with exit 0, and is the same at any
    terminal width; a usage error exits 2 with one `error:` line and no
    usage block.  Only the named command's table is read, and it answers
    as the whole command line would."""
    answers = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        answers.append(in_process(cli.main, argv))
    code, out, err = answers[0]
    if answer == "help":
        assert (code, err) == (0, "") and out.startswith("usage: illation")
        assert answers[1] == answers[0]
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_peirce_formulas_that_start_with_a_minus_need_no_double_dash():
    """Peirce's negation is a leading `-`, and a word that starts with one
    `-` is a value, so the formula needs no `--` before it."""
    assert in_process(cli.main, ["taut", "--notation", "peirce", "-a"]) == (
        1, "counterexample: a=v\n", "")
    table = in_process(cli.main, ["table", "--notation", "peirce", "-a b"])
    assert table == in_process(cli.main, ["table", "--notation", "peirce", "--", "-a b"])
    assert table[0] == 0 and table[1].startswith("a\tb\tvalue\n")
    assert in_process(cli.main, ["sat", "--domain", "-5", "Sum i . l(i,i)"]) == (
        2, "", "error: domain must have at least one element\n")


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_every_option_the_help_shows_is_read(name):
    """Each argument of `name`'s help, spelled as shown there and given its
    first choice (or 1 where it shows a metavariable; `a` for the
    positional), is read, and its value kept."""
    argv, given = [name], []
    for row in cli._help(name).split("arguments:\n")[1].splitlines():
        shown = row.split("  ")[1]
        flag, _, value = shown.partition(" ")
        if flag[0] != "-":
            argv.append("a")
            given.append("a")
        elif flag != "-h,":
            value = value and (value.strip("{}").split(",")[0] if value[0] == "{" else "1")
            argv += [flag, value] if value else [flag]
            given.append(value or "True")
    read = cli.build_parser(argv)
    assert read.command == name
    assert set(given) <= {str(value) for value in vars(read).values()}


@pytest.mark.parametrize("argv, line", [
    (["translate", "--from", "peirce", "--to", "polish", "--format", "svg", "a"],
     "error: --format applies only to the frege target\n"),
    (["scan", "--max-size", "0", "Pi i . p(i)"], "error: --max-size must be at least 1\n"),
    (["pair-check", "--atoms", "0"], "error: --atoms must be between 1 and 4\n"),
    (["pair-check", "--atoms", "5"], "error: --atoms must be between 1 and 4\n"),
])
def test_option_checks_exit_2_with_one_line(argv, line):
    assert in_process(cli.main, argv) == (2, "", line)
