import itertools
import random
from functools import partial

import pytest

from illation import errors
from illation.errors import LimitExceededError
from illation.formulas import (EQUIVALENCE_INDEX, PROPOSITIONAL, SUBFORMULAS, Claw, Conn16, Const,
                               Neg, Prod, RAtom, Sum, Var, check_expansions, free_vars,
                               sop_expansion, walk)
from illation.frege import render_frege
from illation.notations import Notation, ParseError, PrintError, parse, print_formula

from helpers import formulas_up_to_depth, random_formula, ref_eval, all_envs
from test_bench_oracle import O as ORACLE  # the benchmark's reference model

A, B, C = Var("a"), Var("b"), Var("c")

TABLE4_FORMS = {
    Notation.POLISH: "CCCNcaCNacCCNcaCCcaa",
    Notation.PEANO_RUSSELL: "((~c>a)>(~a>c))>((~c>a)>((c>a)>a))",
    Notation.PEIRCE: "((-c -< a) -< (-a -< c)) -< ((-c -< a) -< ((c -< a) -< a))",
    Notation.SCHROEDER: "((c' =< a) =< (a' =< c)) =< ((c' =< a) =< ((c =< a) =< a))",
}


def test_notation_by_name():
    assert Notation("peirce") is Notation.PEIRCE
    assert Notation("peano-russell") is Notation.PEANO_RUSSELL
    with pytest.raises(ValueError, match="'frege' is not a valid Notation"):
        Notation("frege")


def test_table4_all_notations_parse_identically():
    asts = [parse(text, n) for n, text in TABLE4_FORMS.items()]
    assert all(f == asts[0] for f in asts)


def test_table4_structure():
    f = parse(TABLE4_FORMS[Notation.POLISH], Notation.POLISH)
    nca = Claw(Neg(C), A)
    assert f == Claw(Claw(nca, Claw(Neg(A), C)), Claw(nca, Claw(Claw(C, A), A)))


def test_table4_golden_prints():
    f = parse(TABLE4_FORMS[Notation.POLISH], Notation.POLISH)
    assert print_formula(f, Notation.POLISH) == "CCCNcaCNacCCNcaCCcaa"
    assert (
        print_formula(f, Notation.PEANO_RUSSELL)
        == "((~c>a)>(~a>c))>((~c>a)>((c>a)>a))"
    )


def test_simple_parses():
    assert parse("a -< a", Notation.PEIRCE) == Claw(A, A)
    assert parse("(c' =< a) =< (a' =< c)", Notation.SCHROEDER) == Claw(
        Claw(Neg(C), A), Claw(Neg(A), C)
    )
    assert parse("~a", Notation.PEANO_RUSSELL) == Neg(A)
    assert parse("Na", Notation.POLISH) == Neg(A)
    assert print_formula(Claw(Neg(C), A), Notation.POLISH) == "CNca"
    assert print_formula(A, Notation.PEIRCE) == "a"
    assert print_formula(A, Notation.SCHROEDER) == "a"
    assert print_formula(A, Notation.POLISH) == "a"


def test_precedence_and_associativity():
    # claw is right associative, loosest
    assert parse("a>b>c", Notation.PEANO_RUSSELL) == Claw(A, Claw(B, C))
    # product binds tighter than sum, both left associative
    assert parse("a|b&c", Notation.PEANO_RUSSELL) == Sum(A, Prod(B, C))
    assert parse("a&b&c", Notation.PEANO_RUSSELL) == Prod(Prod(A, B), C)
    assert parse("a|b|c", Notation.PEANO_RUSSELL) == Sum(Sum(A, B), C)
    # negation binds tightest
    assert parse("~a&b", Notation.PEANO_RUSSELL) == Prod(Neg(A), B)
    assert parse("~a>b", Notation.PEANO_RUSSELL) == Claw(Neg(A), B)


def test_peirce_juxtaposition():
    assert parse("ab + c", Notation.PEIRCE) == Sum(Prod(A, B), C)
    assert parse("a b c", Notation.PEIRCE) == Prod(Prod(A, B), C)
    assert parse("a*b", Notation.PEIRCE) == Prod(A, B)
    assert parse("-a-b", Notation.PEIRCE) == Prod(Neg(A), Neg(B))
    assert parse("a(b + c)", Notation.PEIRCE) == Prod(A, Sum(B, C))


def test_schroeder_postfix_negation():
    assert parse("ab'", Notation.SCHROEDER) == Prod(A, Neg(B))
    assert parse("(ab)'", Notation.SCHROEDER) == Neg(Prod(A, B))
    assert parse("a''", Notation.SCHROEDER) == Neg(Neg(A))
    assert parse("a' =< b", Notation.SCHROEDER) == Claw(Neg(A), B)


def test_maximal_munch():
    # "-<" is one token, never negation followed by anything
    assert parse("a-<b", Notation.PEIRCE) == Claw(A, B)
    assert parse("a -< -b", Notation.PEIRCE) == Claw(A, Neg(B))


def test_constants():
    assert parse("#t", Notation.PEANO_RUSSELL) == Const(True)
    assert parse("#f & a", Notation.PEANO_RUSSELL) == Prod(Const(False), A)
    assert parse("#t -< a", Notation.PEIRCE) == Claw(Const(True), A)
    assert parse("#f'", Notation.SCHROEDER) == Neg(Const(False))
    assert print_formula(Const(True), Notation.PEANO_RUSSELL) == "#t"
    assert print_formula(Const(False), Notation.PEIRCE) == "#f"


def test_expansion_atom_names_parse():
    f = parse("(l_0_0 + l_0_1)(l_1_0 + l_1_1)", Notation.PEIRCE)
    assert f == Prod(
        Sum(Var("l_0_0"), Var("l_0_1")), Sum(Var("l_1_0"), Var("l_1_1"))
    )


def test_polish_rejects_whitespace_and_constants():
    with pytest.raises(ParseError):
        parse("C ab", Notation.POLISH)
    with pytest.raises(ParseError):
        parse("C#ta", Notation.POLISH)
    # leading/trailing whitespace is tolerated, interior is not
    assert parse("  Cab  ", Notation.POLISH) == Claw(A, B)


def test_polish_e_is_the_equivalence_connective():
    f = parse("Eab", Notation.POLISH)
    assert f == Conn16(8, A, B)
    env_vals = {
        (True, True): True,
        (True, False): False,
        (False, True): False,
        (False, False): True,
    }
    for (va, vb), want in env_vals.items():
        assert ref_eval(f, {"a": va, "b": vb}) == want


def test_polish_const_unprintable():
    with pytest.raises(PrintError):
        print_formula(Const(True), Notation.POLISH)
    with pytest.raises(PrintError):
        print_formula(Claw(A, Const(False)), Notation.POLISH)


def test_polish_length_invariant():
    rng = random.Random(431)
    for _ in range(200):
        f = random_formula(rng, 5, "abc", with_consts=False)
        text = print_formula(f, Notation.POLISH)
        assert len(text) == _node_count(f)


def _node_count(f):
    kind = type(f).__name__
    if kind == "Var":
        return 1
    if kind == "Neg":
        return 1 + _node_count(f.inner)
    return 1 + _node_count(f.left if kind != "Claw" else f.antecedent) + _node_count(
        f.right if kind != "Claw" else f.consequent
    )


def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse("a >", Notation.PEANO_RUSSELL)
    assert exc.value.offset == 3
    assert "expected" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse("(a > b", Notation.PEANO_RUSSELL)
    assert "')'" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse("a $ b", Notation.PEANO_RUSSELL)
    assert exc.value.offset == 2
    with pytest.raises(ParseError) as exc:
        parse("Cab)", Notation.POLISH)
    assert exc.value.offset == 3
    with pytest.raises(ParseError):
        parse("", Notation.PEIRCE)
    with pytest.raises(ParseError):
        parse("Ca", Notation.POLISH)
    # offsets count characters: two no-break spaces (four UTF-8 bytes) before the bad one
    with pytest.raises(ParseError) as exc:
        parse("\u00a0\u00a0\u00e9", Notation.PEIRCE)
    assert exc.value.offset == 2


def test_trailing_input_rejected():
    for text, n in [("a b", Notation.PEANO_RUSSELL), ("Caba", Notation.POLISH)]:
        with pytest.raises(ParseError):
            parse(text, n)


def test_round_trip_exhaustive_depth3():
    # Conn16 prints as its expansion, so restrict to the structural nodes;
    # Polish additionally has no constants.
    for notation in Notation:
        with_consts = notation is not Notation.POLISH
        for f in formulas_up_to_depth(3, "ab", with_consts=with_consts):
            text = print_formula(f, notation)
            assert parse(text, notation) == f, (notation, text)


def test_round_trip_random_deep():
    rng = random.Random(1880)
    for notation in Notation:
        with_consts = notation is not Notation.POLISH
        for _ in range(150):
            f = random_formula(rng, 7, "abcde", with_consts=with_consts)
            assert parse(print_formula(f, notation), notation) == f


def test_cross_notation_translation_preserves_ast():
    rng = random.Random(527)
    pairs = list(itertools.permutations(Notation, 2))
    for _ in range(80):
        f = random_formula(rng, 5, "abc", with_consts=False)
        for src, dst in pairs:
            text = print_formula(f, src)
            assert parse(text, src) == f
            assert parse(print_formula(f, dst), dst) == f


def test_conn16_prints_as_expansion():
    # alone, and as a side of a product
    for f, names in ((Conn16(8, A, B), "ab"), (Prod(Conn16(8, A, B), C), "abc")):
        for notation in Notation:
            text = print_formula(f, notation)
            g = parse(text, notation)
            assert not isinstance(g, Conn16) or notation is Notation.POLISH
            for env in all_envs(names):
                assert ref_eval(g, env) == ref_eval(f, env)
    # degenerate columns print without constants too
    for k in (1, 16):
        for notation in Notation:
            g = parse(print_formula(Conn16(k, A, B), notation), notation)
            want = k == 16
            for env in all_envs("ab"):
                assert ref_eval(g, env) == want


# Every way a formula is printed: each notation, and the drawing in ASCII and SVG.
PRINTERS = [*(partial(print_formula, notation=n) for n in Notation),
            render_frege, partial(render_frege, format="svg")]


def nested_equivalences(k):
    """E(...E(E(a, b), c)..., z): k nested E, which print 3 * 2^k - 2 leaves."""
    f = Var("a")
    for i in range(1, k + 1):
        f = Conn16(EQUIVALENCE_INDEX, f, Var(chr(ord("a") + i)))
    return f


def test_nested_connectives_print_up_to_the_expansion_bound():
    # 20 nested: 3 * 2^20 - 23 added occurrences, far past 2^16; none is printed
    f = nested_equivalences(20)
    for print_it in PRINTERS:
        with pytest.raises(LimitExceededError, match="^connective expansions add more than "
                                                     "65,536 atom occurrences$"):
            print_it(f)
    # 14 nested: 49,135 added, and the text reads back as the nested expansions
    f = nested_equivalences(14)
    want = Var("a")
    for name in free_vars(f)[1:]:
        want = sop_expansion(EQUIVALENCE_INDEX, want, Var(name))
    assert parse(print_formula(f, Notation.PEIRCE), Notation.PEIRCE) == want


def test_the_expansion_bound_counts_what_the_printers_repeat(monkeypatch):
    rng = random.Random(1880)
    cases = []
    for _ in range(60):
        f = random_formula(rng, 5, "abc", with_consts=False, with_conn16=True)
        # each time a variable is printed is one lowercase letter of the Polish text
        printed = sum(c.islower() for c in print_formula(f, Notation.POLISH))
        cases.append((f, printed - sum(type(node) is Var for node in walk(f, PROPOSITIONAL))))
    for f, added in cases:
        monkeypatch.setattr(errors, "MAX_EXPANSION_LEAVES", added)
        check_expansions(f)
        if not added:
            continue
        monkeypatch.setattr(errors, "MAX_EXPANSION_LEAVES", added - 1)
        for print_it in [check_expansions, *PRINTERS]:
            with pytest.raises(LimitExceededError, match=f"more than {added - 1:,} atom"):
                print_it(f)


@pytest.mark.parametrize("f", [RAtom("p", ("i",)), Conn16(8, A, RAtom("p", ("i",)))],
                         ids=["alone", "under-a-connective"])
def test_a_relational_node_is_a_type_error_in_every_printer(f):
    for print_it in [check_expansions, *PRINTERS]:
        with pytest.raises(TypeError, match=r"^not a propositional formula: RAtom\("):
            print_it(f)


@pytest.mark.parametrize("f", ["a", Prod(A, "a"), Conn16(8, A, "a")],
                         ids=["alone", "under-a-product", "under-a-connective"])
def test_a_str_node_is_a_type_error_in_every_printer(f):
    """The printer keeps its text on its stack as str, and takes no str
    node for such text."""
    for print_it in [check_expansions, *PRINTERS]:
        with pytest.raises(TypeError, match=r"^not a propositional formula: 'a'$"):
            print_it(f)


def test_print_is_deterministic():
    rng = random.Random(946)
    for _ in range(50):
        f = random_formula(rng, 6, "abc", with_consts=False)
        for notation in Notation:
            assert print_formula(f, notation) == print_formula(f, notation)


_ORACLE_TAGS = {Neg: "not", Prod: "and", Sum: "or", Claw: "imp"}


def oracle_tuple(f):
    """`f` as the reference model's tuple."""
    if type(f) is Var:
        return ("var", f.name)
    if type(f) is Const:
        return ("const", f.value)
    return (_ORACLE_TAGS[type(f)], *map(oracle_tuple, SUBFORMULAS[type(f)](f)))


def test_prints_match_the_independent_reference():
    """The exact text, against `bench/oracle.render`: the fewest brackets,
    nested claws bracketed on both sides, and juxtaposed factors spaced only
    between two names, here names that end and start with letters, digits
    and underscores.  A constant in Polish is a ValueError in both."""
    rng = random.Random(36)
    names = ("a", "v", "p_1", "x2_10", "q0_3")
    refused = 0
    for _ in range(2000):
        f = random_formula(rng, rng.randint(1, 8), names)
        ref = oracle_tuple(f)
        for notation in Notation:
            try:
                want = ORACLE.render(ref, notation.value)
            except ValueError:
                refused += 1
                assert notation is Notation.POLISH and "const" in repr(ref)
                with pytest.raises(ValueError):
                    print_formula(f, notation)
                continue
            assert print_formula(f, notation) == want, (ref, notation)
    assert 0 < refused < 2000  # some trees have no constant
