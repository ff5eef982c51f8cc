import itertools
import random
from functools import partial, reduce

import pytest

from illation import errors, truth
from illation.errors import LimitExceededError, MissingVariableError
from illation.formulas import (
    CLAW_INDEX,
    CONNECTIVE_VECTORS,
    EQUIVALENCE_INDEX,
    Claw,
    Conn16,
    Const,
    Neg,
    Prod,
    Sum,
    Var,
    connective_index,
    connective_vector,
    free_vars,
    sop_expansion,
    substitute,
)
from illation.methods import (
    AnfPoly,
    CongruenceReport,
    Falsified,
    Tautology,
    anf,
    congruence_check,
    indirect_falsify,
    merged_vars,
    semantic_difference,
    xframe,
)
from illation.notations import Notation, parse
from illation.truth import eval2, find_counterexample, is_tautology, table_over, truth_table

from helpers import (
    EXPECTED_VECTORS,
    all_envs,
    formulas_up_to_depth,
    minterm_sum,
    random_formula,
    ref_eval,
    ref_indirect,
    ref_replays,
)

A, B, C = Var("a"), Var("b"), Var("c")
PEIRCE_LAW = Claw(Claw(Claw(A, B), A), A)


def test_eval2_claw_cases():
    f = Claw(A, B)
    assert eval2(f, {"a": True, "b": False}) is False
    assert eval2(f, {"a": False, "b": False}) is True
    assert eval2(f, {"a": False, "b": True}) is True
    assert eval2(f, {"a": True, "b": True}) is True
    assert eval2(Const(True), {}) is True
    assert eval2(Const(False), {}) is False


def test_eval2_missing_variable():
    with pytest.raises(MissingVariableError) as exc:
        eval2(Claw(A, B), {"a": True})
    assert exc.value.variable == "b"
    assert "b" in str(exc.value)


def test_eval2_matches_reference_evaluator():
    rng = random.Random(1885)
    for _ in range(300):
        f = random_formula(rng, 6, "abc", with_conn16=True)
        for env in all_envs("abc"):
            assert eval2(f, env) == ref_eval(f, env)


def test_canonical_row_order():
    table = truth_table(Claw(A, B))
    assert [tuple(table.assignment(r).values()) for r in range(4)] == [
        (True, True),
        (True, False),
        (False, True),
        (False, False),
    ]


def test_truth_table_claw():
    t = truth_table(Claw(A, B))
    assert t.variables == ("a", "b")
    assert t.values() == (True, False, True, True)


def test_truth_table_tsv():
    t = truth_table(Claw(A, B))
    assert t.to_tsv() == (
        "a\tb\tvalue\n"
        "v\tv\tv\n"
        "v\tf\tf\n"
        "f\tv\tv\n"
        "f\tf\tv\n"
    )


def test_truth_table_constant():
    t = truth_table(Const(False))
    assert t.variables == ()
    assert t.values() == (False,)


def test_equivalence_three_term_pattern():
    # x, y, and the value column z: vvv, vff, fvf, ffv
    t = truth_table(Conn16(EQUIVALENCE_INDEX, Var("x"), Var("y")))
    rows = [cells + (value,) for cells, value in t.rows]
    assert rows == [
        (True, True, True),
        (True, False, False),
        (False, True, False),
        (False, False, True),
    ]


def test_table_over_explicit_variables():
    t = table_over(A, ["a", "b"])
    assert t.variables == ("a", "b")
    assert t.values() == (True, True, False, False)
    with pytest.raises(MissingVariableError):
        table_over(Claw(A, B), ["a"])
    for names in (["a", "a"], ["b", "a", "b"]):
        with pytest.raises(ValueError, match=f"variable '{names[-1]}' is listed twice"):
            table_over(A, names)


def test_table_var_limit():
    wide = A
    for i in range(17):
        wide = Sum(wide, Var(chr(ord("b") + i)))
    with pytest.raises(LimitExceededError):
        truth_table(wide)


def test_tautology_basics():
    assert is_tautology(PEIRCE_LAW)
    assert is_tautology(Claw(A, A))
    assert find_counterexample(PEIRCE_LAW) is None
    assert find_counterexample(Claw(A, B)) == {"a": True, "b": False}


def test_find_counterexample_is_first_in_row_order():
    # a|b fails only at (f,f); ~a fails first at (v,)
    assert find_counterexample(Sum(A, B)) == {"a": False, "b": False}
    assert find_counterexample(Neg(A)) == {"a": True}


def test_indirect_peirce_law():
    result = indirect_falsify(PEIRCE_LAW)
    assert isinstance(result, Tautology)
    assert result.trace == (("a", True), ("a", False))


def test_indirect_ms527_example():
    # {((a claw b) negated claw c) claw d} claw e
    f = Claw(Claw(Claw(Neg(Claw(A, B)), C), Var("d")), Var("e"))
    result = indirect_falsify(f)
    assert isinstance(result, Falsified)
    assert result.counterexample == {
        "a": True, "b": True, "c": True, "d": True, "e": False,
    }
    assert ref_eval(f, result.counterexample) is False


def test_indirect_claw_chain():
    f = Claw(Var("x"), Claw(Var("y"), Var("z")))
    result = indirect_falsify(f)
    assert isinstance(result, Falsified)
    assert result.counterexample == {"x": True, "y": True, "z": False}


def test_indirect_counterexample_is_lexicographically_least():
    # lexicographic in v-before-f order over first-occurrence variables
    rng = random.Random(547)
    def rank(f, cx):
        order = free_vars(f)
        return tuple(not cx[n] for n in order)
    for _ in range(120):
        f = random_formula(rng, 5, "abc")
        result = indirect_falsify(f)
        if isinstance(result, Falsified):
            order = free_vars(f)
            best = None
            for env in all_envs(order):
                if not ref_eval(f, env):
                    key = tuple(not env[n] for n in order)
                    best = key if best is None or key < best else best
            assert rank(f, result.counterexample) == best


def test_indirect_agrees_with_table_on_random_formulas():
    rng = random.Random(1902)
    for _ in range(250):
        f = random_formula(rng, 6, "abcd", with_conn16=True)
        assert isinstance(indirect_falsify(f), Tautology) == is_tautology(f)


def test_indirect_constant_connective_closes_with_a_constant_step():
    # index 1 is constant f and index 16 constant v: asked for the other
    # value, the branch closes as a constant's does, on the constant's step
    f1, f16 = Claw(A, Neg(Conn16(1, B, C))), Claw(A, Conn16(16, B, C))
    assert indirect_falsify(f1) == ref_indirect(f1) == Tautology((("a", True), ("#f", True)))
    assert indirect_falsify(f16) == ref_indirect(f16) == Tautology((("a", True), ("#t", False)))


def test_indirect_trace_replay():
    """Replaying a Tautology trace must hit an actual conflict."""
    rng = random.Random(630)
    seen_taut = 0
    for _ in range(200):
        f = random_formula(rng, 5, "abc")
        result = indirect_falsify(f)
        if isinstance(result, Tautology):
            seen_taut += 1
            assigned = {}
            conflict = False
            for name, value in result.trace:
                # constants witness a contradiction by demanding the wrong value
                if name == "#t" and value is False or name == "#f" and value is True:
                    conflict = True
                    break
                if name in assigned and assigned[name] != value:
                    conflict = True
                    break
                assigned[name] = value
            assert conflict, result.trace
            assert ref_replays(f, result.trace), (f, result.trace)
    assert seen_taut > 5


def test_replay_follows_one_branch_to_its_clash():
    # ((a>b)>a)>a assumed false: a=v, b=f, a=f closes one branch, a=v, a=f the other
    assert ref_replays(PEIRCE_LAW, (("a", True), ("a", False)))
    assert ref_replays(PEIRCE_LAW, (("a", True), ("b", False), ("a", False)))
    assert not ref_replays(PEIRCE_LAW, (("a", False), ("a", True)))
    assert not ref_replays(PEIRCE_LAW, (("a", True),))
    assert not ref_replays(PEIRCE_LAW, (("a", True), ("a", False), ("b", True)))


def test_indirect_matches_the_breadth_first_oracle():
    rng = random.Random(527)
    tautologies = 0
    for i in range(2_000):
        f = random_formula(rng, rng.randrange(2, 6), "abcde"[: rng.randrange(1, 6)],
                           with_conn16=True)
        if i % 2:  # about half forced into tautologies
            g = random_formula(rng, 4, "abcd", with_conn16=True)
            f = rng.choice((Sum(f, Neg(f)), Claw(Prod(f, g), f), Claw(f, Sum(g, f))))
        result = indirect_falsify(f)
        assert result == ref_indirect(f), f
        tautologies += isinstance(result, Tautology)
    assert 1_000 < tautologies < 2_000


def branch_point_formula(rng):
    """(C1 & ... & Ck) > D, k <= 8, whose branch points recur: every clause
    branches, and alternatives that end under the same assignment meet the
    next clause as the same point.  A clause is two literals over 4-6 names:
    a sum, a sum with one literal again one branching deeper (so a point
    recurs at fewer branchings), a Conn16, or a sum with a constant.  D is
    mostly one of the Ci, which makes a tautology.  On 800 of them, a memo
    that ignores the branchings gives a wrong trace 6 times."""
    names = "abcdef"[: rng.randrange(4, 7)]

    def literal():
        x = Var(rng.choice(names))
        return Neg(x) if rng.random() < 0.3 else x

    def clause():
        x, y = literal(), literal()
        return rng.choice((Sum(x, y), Sum(Sum(x, y), x), Sum(y, Sum(x, y)),
                           Conn16(rng.randrange(1, 17), x, y),
                           Sum(x, Const(rng.random() < 0.5))))

    parts = [clause() for _ in range(rng.randrange(2, 9))]
    consequent = rng.choice(parts) if rng.random() < 0.8 else clause()
    return Claw(reduce(Prod, parts), consequent)


def test_indirect_matches_the_oracle_where_branch_points_recur():
    rng = random.Random(35)
    tautologies = 0
    for _ in range(800):
        f = branch_point_formula(rng)
        result = indirect_falsify(f)
        assert result == ref_indirect(f), f
        tautologies += isinstance(result, Tautology)
    assert tautologies > 600


def clauses(names):
    """Positive two-literal clauses over consecutive pairs of `names`."""
    return [Sum(Var(x), Var(y)) for x, y in zip(names[::2], names[1::2])]


def conjunction(parts):
    acc = parts[0]
    for part in parts[1:]:
        acc = Prod(acc, part)
    return acc


def test_indirect_prunes_the_trace_search(monkeypatch):
    # (C1 & ... & C16) > Cj: assumed false, every clause branches before the
    # consequent closes the branch, so the whole tree has 2^17 - 1 states
    rng = random.Random(16)
    names = list("abcdefghijkl") + [rng.choice("abcdefghijkl") for _ in range(20)]
    rng.shuffle(names)
    parts = clauses(names)
    f = Claw(conjunction(parts), parts[9])
    expected = ref_indirect(f)
    # 1,758 states; without the bound of one step past the trail 14,228, and
    # without skipping repeated branch points 2,615
    monkeypatch.setattr(errors, "MAX_INDIRECT_STATES", 2_000)
    assert isinstance(expected, Tautology) and indirect_falsify(f) == expected


def test_indirect_answers_a_decided_tautology_well_inside_the_cap(monkeypatch):
    # The sum of all 64 minterms over six variables: the row search decides
    # it, and the trace search needs 638 states; walking ties and repeated
    # branch points again took it past 200,000
    f = parse(minterm_sum("abcdef"), Notation.PEANO_RUSSELL)
    monkeypatch.setattr(errors, "MAX_INDIRECT_STATES", 1_000)
    result = indirect_falsify(f)
    assert isinstance(result, Tautology) and len(result.trace) == 2  # the least a trace has
    assert ref_replays(f, result.trace)


def test_indirect_above_the_table_limit_matches_the_oracle():
    parts = clauses("abcdefghijklmnopqr")  # nine clauses over 18 variables
    tautology = Claw(conjunction(parts), parts[4])
    falsifiable = Claw(conjunction(parts), Prod(Var("a"), Var("b")))
    for f in (tautology, falsifiable):
        assert len(free_vars(f)) == 18
        assert indirect_falsify(f) == ref_indirect(f)
    assert isinstance(indirect_falsify(tautology), Tautology)
    assert isinstance(indirect_falsify(falsifiable), Falsified)


def test_indirect_picks_the_least_open_branch_above_the_table_limit():
    """Over 18 variables the search keys each open branch by the variables
    it assigns f; the least key is the oracle's least completion."""
    rng = random.Random(1885)
    names = "abcdefghijklmnopqr"
    falsified = 0
    for _ in range(40):
        order = list(names)
        rng.shuffle(order)
        f = Sum(conjunction(clauses(order)), random_formula(rng, 5, names))
        assert len(free_vars(f)) == 18
        result = indirect_falsify(f)
        assert result == ref_indirect(f), f
        falsified += isinstance(result, Falsified)
    assert falsified > 20


def test_each_counterexample_names_the_free_variables_in_order():
    """`taut` prints a counterexample in its dict's order, so each one that
    `find_counterexample` and `indirect_falsify` return has exactly the
    formula's free variables as its keys, in `free_vars` order: from the row
    scan up to 16 variables, and from the tableau's completion above."""
    rng = random.Random(431)
    names = list("abcdefghijklmnopqrst")
    checked = {False: 0, True: 0}  # counterexamples, by whether above the table limit
    unsorted = 0
    for i in range(240):
        rng.shuffle(names)
        if i % 4:
            f = random_formula(rng, rng.randrange(2, 8), names[: rng.randrange(1, 17)],
                               with_conn16=True)
        else:  # over 18 or more variables, false where a clause and the rest are
            f = Sum(conjunction(clauses(names[:18])), random_formula(rng, 4, names))
        order = list(free_vars(f))
        answers = (find_counterexample(f), getattr(indirect_falsify(f), "counterexample", None))
        for answer in filter(None, answers):
            assert list(answer) == order, f
            checked[len(order) > errors.MAX_TABLE_VARS] += 1
            unsorted += order != sorted(order)
    assert checked[False] > 250 and checked[True] > 100
    assert unsorted > 200  # most of these orders are not alphabetical


def test_connective_vectors_match_frozen_table():
    assert CONNECTIVE_VECTORS == EXPECTED_VECTORS
    assert CLAW_INDEX == 13
    assert EQUIVALENCE_INDEX == 8


def test_connective_vector_bijection():
    seen = set()
    for k in range(1, 17):
        v = connective_vector(k)
        assert connective_index(v) == k
        seen.add(v)
    assert len(seen) == 16
    # every possible 4-tuple is some column
    assert seen == set(itertools.product((True, False), repeat=4))


def test_connective_anchor_columns():
    assert connective_index((False, False, False, False)) == 1
    assert connective_index((True, True, True, True)) == 16
    assert connective_index((True, False, False, False)) == 5
    assert connective_vector(CLAW_INDEX) == (True, False, True, True)
    with pytest.raises(ValueError, match=r"^not a length-4 truth vector: \(True, False\)$"):
        connective_index((True, False))


@pytest.mark.parametrize("index", [0, 17, -1, True, False, 3.0, "3", None])
def test_connective_index_is_an_int_from_1_to_16(index):
    message = f"connective index out of range: {index!r}"
    with pytest.raises(ValueError) as caught:
        connective_vector(index)
    assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        Conn16(index, A, B)
    assert str(caught.value) == message


def test_conn16_agrees_with_its_vector():
    for k in range(1, 17):
        f = Conn16(k, A, B)
        t = truth_table(f)
        assert t.values() == connective_vector(k)


def test_xframe_geometry():
    closed = xframe(1)
    assert closed == "\\ /\n X \n/ \\"
    open_ = xframe(16)
    assert open_ == "   \n X \n   "
    # claw: false only at row (v,f), the NE quadrant
    assert xframe(CLAW_INDEX) == "  /\n X \n   "


def test_xframe_stroke_count_matches_false_count():
    for k in range(1, 17):
        frame = xframe(k)
        strokes = frame.count("/") + frame.count("\\")
        falses = sum(1 for b in connective_vector(k) if not b)
        assert strokes == falses
        assert frame.splitlines()[1] == " X "


def test_sop_expansion_semantics():
    for k in range(1, 17):
        g = sop_expansion(k, A, B)
        assert not isinstance(g, Conn16)
        for env in all_envs("ab"):
            assert ref_eval(g, env) == ref_eval(Conn16(k, A, B), env)


def test_sop_expansion_constant_free():
    def uses_const(f):
        if isinstance(f, Const):
            return True
        kids = [getattr(f, n) for n in ("inner", "left", "right", "antecedent", "consequent") if hasattr(f, n)]
        return any(uses_const(k) for k in kids)
    for k in (1, 16, 8, 13):
        assert not uses_const(sop_expansion(k, A, B))


def test_anf_examples():
    assert str(anf(A)) == "a"
    assert str(anf(Claw(A, B))) == "1 + a + ab"
    assert str(anf(Prod(A, Neg(A)))) == "0"
    assert str(anf(Const(True))) == "1"
    assert str(anf(Conn16(EQUIVALENCE_INDEX, A, B))) == "1 + a + b"


def test_anf_agrees_with_eval2():
    rng = random.Random(1909)
    for _ in range(200):
        f = random_formula(rng, 6, "abc", with_conn16=True)
        poly = anf(f)
        for env in all_envs(free_vars(f)):
            want = ref_eval(f, env)
            got = _eval_poly(poly, env)
            assert got == want


def _eval_poly(poly, env):
    total = False
    for monomial in poly.monomials:
        total ^= all(env[name] for name in monomial)
    return total


def test_anf_canonical_printing():
    p = anf(Sum(B, A))
    q = anf(Sum(A, B))
    assert str(p) == str(q) == "a + b + ab"


def test_congruence_examples():
    s, t = Neg(Neg(A)), A
    report = congruence_check(s, t, Claw(Var("x"), B), "x")
    assert report.operands_equal and report.contexts_equal
    assert report.operands_witness is None

    report = congruence_check(A, A, Claw(Var("x"), Var("x")), "x")
    assert report.contexts_equal

    report = congruence_check(A, B, Var("x"), "x")
    assert not report.operands_equal
    assert report.operands_witness == {"a": True, "b": False}
    assert not report.contexts_equal


def test_congruence_plugged_tables_cover_merged_variables():
    report = congruence_check(A, Neg(A), Claw(Var("x"), B), "x")
    assert not report.operands_equal
    assert report.plugged_s_table.variables == report.plugged_t_table.variables
    assert not report.contexts_equal
    assert report.contexts_witness is not None


def test_congruence_requires_hole():
    with pytest.raises(ValueError):
        congruence_check(A, B, Claw(A, B), "x")


def test_congruence_checks_the_table_limit_before_any_scan(monkeypatch):
    """24 merged variables are refused before either difference scan runs."""
    def no_scan(*args):
        raise AssertionError("a row scan ran before the table limit was checked")

    monkeypatch.setattr(truth, "_first_row", no_scan)
    s, t = (reduce(Sum, [Var(f"{name}_{i}") for i in range(12)]) for name in "st")
    with pytest.raises(LimitExceededError,
                       match=r"^24 variables exceed the 16-variable table limit$"):
        congruence_check(s, t, Var("x"), "x")


def test_congruence_preserved_under_any_context():
    """Semantically equal operands stay equal in every random context."""
    rng = random.Random(274)
    pairs = [
        (Claw(A, B), Sum(Neg(A), B)),
        (Neg(Neg(B)), B),
        (Prod(A, B), Neg(Sum(Neg(A), Neg(B)))),
    ]
    for s, t in pairs:
        for _ in range(40):
            # wrap the hole so it always occurs in the context
            shape = rng.choice([Claw, Prod, Sum])
            ctx = shape(random_formula(rng, 3, "ac"), Var("x"))
            report = congruence_check(s, t, ctx, "x")
            assert report.operands_equal
            assert report.contexts_equal


def test_congruence_contexts_witness_is_the_scan_of_the_contexts():
    """The contexts' witness, read off the two plugged tables, is the one
    `semantic_difference` of the plugged contexts finds, its keys in the
    same order: 300 random (s, t, context) triples, a third with t
    equivalent to s by construction."""
    rng = random.Random(1854)
    equal = 0
    for k in range(300):
        s = random_formula(rng, 3, "abc", with_conn16=True)
        t = (Neg(Neg(s)), Sum(s, Prod(s, B)), random_formula(rng, 3, "abd", with_conn16=True))[k % 3]
        sides = [random_formula(rng, 3, "bcx", with_conn16=True), Var("x")]
        rng.shuffle(sides)
        context = rng.choice([Claw, Prod, Sum, partial(Conn16, rng.randrange(1, 17))])(*sides)
        plugged = [substitute(context, "x", operand) for operand in (s, t)]
        shared = merged_vars(*plugged)
        operands_witness, contexts_witness = semantic_difference(s, t), semantic_difference(*plugged)
        report = congruence_check(s, t, context, "x")
        assert report == CongruenceReport(
            operands_equal=operands_witness is None,
            operands_witness=operands_witness,
            contexts_equal=contexts_witness is None,
            contexts_witness=contexts_witness,
            plugged_s_table=table_over(plugged[0], shared),
            plugged_t_table=table_over(plugged[1], shared),
        )
        assert list(report.contexts_witness or ()) == list(contexts_witness or ())
        equal += report.contexts_equal
    assert 100 < equal < 250


def test_claw_equals_sum_of_negated_antecedent():
    for env in all_envs("ab"):
        assert eval2(Claw(A, B), env) == eval2(Sum(Neg(A), B), env)


def test_table4_formula_is_tautology():
    f = parse("CCCNcaCNacCCNcaCCcaa", Notation.POLISH)
    assert is_tautology(f)
    assert isinstance(indirect_falsify(f), Tautology)
