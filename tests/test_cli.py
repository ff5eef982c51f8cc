import json
import os
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "illation.cli"]


def run(*args, stdin=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), input=stdin, capture_output=True, text=True, env=env
    )


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


def test_taut_indirect_counterexample():
    r = run("taut", "--method", "indirect", "x>(y>z)")
    assert r.returncode == 1
    assert r.stdout == "counterexample: x=v y=v z=f\n"


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
    r = run("expand", "Pi i . Sum j . l(i,j)", "--domain", "2",
            env_extra={"ILLATION_MAX_ATOMS": "3"})
    assert r.returncode == 3
    assert r.stdout == ""
    assert "limit" in r.stderr


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
