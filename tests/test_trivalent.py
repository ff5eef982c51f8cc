import itertools
import random

import pytest

from illation import errors
from illation.errors import LimitExceededError
from illation.formulas import Claw, Conn16, Const, Neg, Prod, RAtom, Sum, Var, free_vars
from illation.trivalent import (
    F,
    L,
    V,
    TriValue,
    UnsupportedConnectiveError,
    tri_and,
    tri_neg,
    tri_or,
    tri_table,
)
from illation.truth import truth_table

from helpers import ref_tri_eval

A, B = Var("a"), Var("b")

# The three 1909 matrices, every cell spelled out.
NEG_CELLS = {V: F, L: L, F: V}

OR_CELLS = {
    (V, V): V, (V, L): V, (V, F): V,
    (L, V): V, (L, L): L, (L, F): L,
    (F, V): V, (F, L): L, (F, F): F,
}

AND_CELLS = {
    (V, V): V, (V, L): L, (V, F): F,
    (L, V): L, (L, L): L, (L, F): F,
    (F, V): F, (F, L): F, (F, F): F,
}


def test_negation_matrix():
    for x, want in NEG_CELLS.items():
        assert tri_neg(x) is want


def test_sum_matrix():
    for (x, y), want in OR_CELLS.items():
        assert tri_or(x, y) is want


def test_product_matrix():
    for (x, y), want in AND_CELLS.items():
        assert tri_and(x, y) is want


def test_spot_cells():
    assert tri_or(L, L) is L
    assert tri_or(V, F) is V
    assert tri_or(F, F) is F
    assert tri_and(V, L) is L
    assert tri_and(L, F) is F
    assert tri_and(F, V) is F


def test_sum_is_max_product_is_min():
    order = {F: 0, L: 1, V: 2}
    for x, y in itertools.product((V, L, F), repeat=2):
        assert order[tri_or(x, y)] == max(order[x], order[y])
        assert order[tri_and(x, y)] == min(order[x], order[y])


def test_restriction_to_two_values_is_bivalent():
    to_tri = {True: V, False: F}
    for x, y in itertools.product((True, False), repeat=2):
        assert tri_or(to_tri[x], to_tri[y]) is to_tri[x or y]
        assert tri_and(to_tri[x], to_tri[y]) is to_tri[x and y]
    for x in (True, False):
        assert tri_neg(to_tri[x]) is to_tri[not x]


def test_involution_and_de_morgan():
    for x in (V, L, F):
        assert tri_neg(tri_neg(x)) is x
    for x, y in itertools.product((V, L, F), repeat=2):
        assert tri_neg(tri_or(x, y)) is tri_and(tri_neg(x), tri_neg(y))
        assert tri_neg(tri_and(x, y)) is tri_or(tri_neg(x), tri_neg(y))


def test_commutative_associative():
    vals = (V, L, F)
    for op in (tri_or, tri_and):
        for x, y in itertools.product(vals, repeat=2):
            assert op(x, y) is op(y, x)
        for x, y, z in itertools.product(vals, repeat=3):
            assert op(op(x, y), z) is op(x, op(y, z))


def test_tri_eval():
    f = Sum(A, Neg(A))
    assert ref_tri_eval(f, {"a": V}) is V
    assert ref_tri_eval(f, {"a": L}) is L
    assert ref_tri_eval(f, {"a": F}) is V
    g = Prod(A, Neg(A))
    assert ref_tri_eval(g, {"a": V}) is F
    assert ref_tri_eval(g, {"a": L}) is L
    assert ref_tri_eval(g, {"a": F}) is F


def test_tri_table_excluded_middle_fails_at_l():
    t = tri_table(Sum(A, Neg(A)))
    assert t.values() == (V, L, V)
    t = tri_table(Prod(A, Neg(A)))
    assert t.values() == (F, L, F)


def test_tri_table_row_order():
    t = tri_table(A)
    assert t.values() == (V, L, F)
    t2 = tri_table(Prod(A, B))
    assert [cells for cells, _ in t2.rows] == list(itertools.product((V, L, F), repeat=2))
    assert len(t2.rows) == 9


def test_tri_table_lists_the_variables_in_first_occurrence_order():
    """As `free_vars` lists them: random products, sums and negations over
    five names, each name read at many places."""
    rng = random.Random(1909)

    def grow(depth):
        if depth == 0 or rng.random() < 0.2:
            return Var(rng.choice("edcba"))
        kind = rng.choice((Neg, Sum, Prod))
        return Neg(grow(depth - 1)) if kind is Neg else kind(grow(depth - 1), grow(depth - 1))

    for _ in range(200):
        f = grow(5)
        assert tri_table(f).variables == tuple(free_vars(f))


def test_tri_table_tsv():
    t = tri_table(Sum(A, Neg(A)))
    assert t.to_tsv() == "a\tvalue\nV\tV\nL\tL\nF\tV\n"


def test_unsupported_connectives_rejected():
    for bad in (Claw(A, B), Conn16(8, A, B), Const(True)):
        with pytest.raises(UnsupportedConnectiveError):
            ref_tri_eval(bad, {"a": V, "b": V})
        with pytest.raises(UnsupportedConnectiveError):
            tri_table(bad)
    # nested occurrences are found too
    with pytest.raises(UnsupportedConnectiveError):
        tri_table(Sum(A, Claw(A, B)))


def test_a_non_propositional_node_is_a_type_error_as_in_truth_table():
    for bad in (Sum(A, RAtom("p", ("i",))), Prod(Claw(A, B), "a")):
        for table in (truth_table, tri_table):
            with pytest.raises(TypeError, match="^not a propositional formula: "):
                table(bad)


def test_unsupported_is_a_value_error():
    with pytest.raises(ValueError):
        tri_table(Claw(A, B))


def test_tri_var_limit():
    f = Var("a")
    for i in range(errors.MAX_TRI_VARS):
        f = Sum(f, Var(chr(ord("b") + i)))
    with pytest.raises(LimitExceededError):
        tri_table(f)


def test_unsupported_connective_wins_over_the_variable_limit():
    f = Claw(Var("a"), Var("b"))
    for i in range(errors.MAX_TRI_VARS - 1):
        f = Sum(f, Var(chr(ord("c") + i)))
    with pytest.raises(UnsupportedConnectiveError, match="for Claw nodes"):
        tri_table(f)


def test_trivalue_spellings():
    assert TriValue.V.name == "V"
    assert [v.name for v in (V, L, F)] == ["V", "L", "F"]
