import pytest

from illation.formulas import (
    PI,
    SIGMA,
    Claw,
    Conn16,
    Const,
    Neg,
    Prod,
    Quant,
    RAtom,
    RClaw,
    RNeg,
    RProd,
    RSum,
    Sum,
    Var,
    ensure_closed,
    free_vars,
    predicate_signature,
    substitute,
)
from illation.notations import Notation, parse

A, B, C, X = Var("a"), Var("b"), Var("c"), Var("x")


def test_structural_equality():
    assert Claw(A, B) == Claw(Var("a"), Var("b"))
    assert Claw(A, B) != Claw(B, A)
    assert Const(True) != Const(False)
    assert Neg(A) != A


def test_var_name_validation():
    Var("q")
    Var("l_0_1")
    Var("p_10")
    for bad in ("", "A", "ab", "1a", "l_", "l_x", "a_1_", "#t", "a\n", "l_0_1\n"):
        with pytest.raises(ValueError):
            Var(bad)


def test_predicate_name_validation():
    RAtom("p", ("i",))
    RAtom("l2", ("i", "j"))
    for bad in ("", "P", "2p", "p_1", "p\n"):
        with pytest.raises(ValueError):
            RAtom(bad, ("i",))


def test_conn16_index_range():
    Conn16(1, A, B)
    Conn16(16, A, B)
    for bad in (0, 17, -3):
        with pytest.raises(ValueError):
            Conn16(bad, A, B)


def test_free_vars_first_occurrence_order():
    assert free_vars(Claw(A, B)) == ["a", "b"]
    assert free_vars(Const(True)) == []
    assert free_vars(Sum(Prod(B, A), B)) == ["b", "a"]
    table4 = parse("CCCNcaCNacCCNcaCCcaa", Notation.POLISH)
    assert free_vars(table4) == ["c", "a"]


def test_substitute_examples():
    assert substitute(Neg(X), "x", Const(True)) == Neg(Const(True))
    assert substitute(X, "x", Prod(A, B)) == Prod(A, B)
    # every occurrence of the hole is filled
    assert substitute(Claw(X, X), "x", A) == Claw(A, A)
    # other variables are untouched
    assert substitute(Claw(X, B), "x", A) == Claw(A, B)


def test_substitute_deep():
    ctx = Sum(Neg(Claw(X, A)), Conn16(8, X, B))
    got = substitute(ctx, "x", Neg(C))
    assert got == Sum(Neg(Claw(Neg(C), A)), Conn16(8, Neg(C), B))


def test_hash_consistent_with_equality():
    assert hash(Claw(A, B)) == hash(Claw(Var("a"), Var("b")))
    seen = {Claw(A, B), Claw(A, B), Claw(B, A)}
    assert len(seen) == 2


def test_relational_closedness():
    closed = Quant(PI, "i", Quant(SIGMA, "j", RAtom("l", ("i", "j"))))
    ensure_closed(closed)
    with pytest.raises(ValueError):
        ensure_closed(RAtom("l", ("i", "j")))
    with pytest.raises(ValueError):
        ensure_closed(Quant(PI, "i", RAtom("l", ("i", "j"))))
    # rebinding an index in scope is rejected
    with pytest.raises(ValueError):
        ensure_closed(Quant(PI, "i", Quant(SIGMA, "i", RAtom("l", ("i", "i")))))


def test_predicate_signature():
    f = Quant(PI, "i", RProd(RAtom("p", ("i",)), Quant(SIGMA, "j", RAtom("l", ("i", "j")))))
    assert predicate_signature(f) == {"p": 1, "l": 2}
    clash = Quant(PI, "i", RSum(RAtom("p", ("i",)), Quant(SIGMA, "j", RAtom("p", ("i", "j")))))
    with pytest.raises(ValueError):
        predicate_signature(clash)


def test_relational_connective_nodes():
    a = RAtom("p", ("i",))
    f = Quant(PI, "i", RClaw(RNeg(a), RSum(a, RProd(a, a))))
    ensure_closed(f)
    assert f.body.antecedent == RNeg(a)


def test_quant_kind_values():
    assert PI == "Pi"
    assert SIGMA == "Sigma"
    with pytest.raises(ValueError):
        Quant("All", "i", RAtom("p", ("i",)))
