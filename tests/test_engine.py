"""Differential and work-count tests of the bit-parallel truth-table engine.

Every fast path is checked row by row against eval2, tests/helpers.ref_eval
or tri_eval.  The wide cases have 11-13 variables, so they cross the
2^BLOCK_BITS-row blocks the counterexample search scans in.
"""

import itertools
import random

import pytest

from illation import truth
from illation.errors import LimitExceededError, MissingVariableError
from illation.formulas import Claw, Conn16, Const, Neg, Prod, Sum, Var, free_vars
from illation.quantifiers import herbrand_scan
from illation.relsyntax import parse_relational
from illation.trivalent import L, F, V, tri_eval, tri_table
from illation.truth import (
    BLOCK_BITS,
    anf,
    eval2,
    find_counterexample,
    semantic_difference,
    table_over,
)

from helpers import all_envs, random_formula, ref_eval

NAMES = "abcdefghijklm"
# Conn16 columns that depend on both sides (not constant, not a projection)
BINARY_COLUMNS = (2, 3, 4, 5, 8, 9, 12, 13, 14, 15)


def wide_formula(rng, names, extra=3):
    """A random formula in which every name occurs: the variables and a few
    random subformulas (with constants and Conn16) joined pairwise."""
    parts = [Var(n) for n in names]
    parts += [random_formula(rng, 4, names, with_conn16=True) for _ in range(extra)]
    rng.shuffle(parts)
    while len(parts) > 1:
        left, right = parts.pop(), parts.pop()
        kind = rng.choice(["claw", "prod", "sum", "conn"])
        if kind == "claw":
            joined = Claw(left, right)
        elif kind == "prod":
            joined = Prod(left, right)
        elif kind == "sum":
            joined = Sum(left, right)
        else:
            joined = Conn16(rng.choice(BINARY_COLUMNS), left, right)
        parts.insert(0, Neg(joined) if rng.random() < 0.2 else joined)
    return parts[0]


def first_false_row(f, names):
    return next((env for env in all_envs(names) if not ref_eval(f, env)), None)


def cases(seed):
    """Formulas of 0 variables, and of 11-13 variables shaped so that some
    are falsified only past the first block and some not at all."""
    rng = random.Random(seed)
    out = [random_formula(rng, 5, "", with_conn16=True) for _ in range(20)]
    for n in (11, 12, 13):
        names = NAMES[:n]
        f = wide_formula(rng, names)
        out += [
            f,
            Sum(Var(names[0]), f),  # true on the first half of the rows
            Sum(Prod(Var(names[0]), Var(names[1])), Neg(f)),
            Sum(f, Neg(f)),  # a tautology
        ]
    return out


def test_table_over_matches_eval2_on_every_row():
    for f in cases(1881):
        names = free_vars(f) + ["z"]  # a superset of the free variables
        table = table_over(f, names)
        assert table.values() == tuple(eval2(f, env) for env in all_envs(names))
        assert len(table.rows) == 2 ** len(names)


def test_find_counterexample_matches_row_scan():
    crossed = 0
    for f in cases(1885):
        names = free_vars(f)
        want = first_false_row(f, names)
        assert find_counterexample(f) == want
        if want is not None and list(all_envs(names)).index(want) >= 2**BLOCK_BITS:
            crossed += 1
    assert crossed >= 3


def test_semantic_difference_matches_row_scan():
    rng = random.Random(1902)
    for f in cases(1902):
        names = free_vars(f)
        # g differs from f at most where its first two variables are both f
        late = Prod(Neg(Var(names[0])), Neg(Var(names[1]))) if len(names) > 1 else Const(False)
        for g in (f, Sum(f, late), wide_formula(rng, NAMES[:11], extra=1)):
            merged = names + [n for n in free_vars(g) if n not in names]
            want = next(
                (env for env in all_envs(merged) if ref_eval(f, env) != ref_eval(g, env)),
                None,
            )
            assert semantic_difference(f, g) == want


def test_anf_evaluates_like_eval2_on_every_row():
    rng = random.Random(1909)
    formulas = [random_formula(rng, 5, "", with_conn16=True) for _ in range(10)]
    formulas += [wide_formula(rng, NAMES[:11], extra=1) for _ in range(3)]
    for f in formulas:
        poly = anf(f)
        for env in all_envs(free_vars(f)):
            assert poly.evaluate(env) == eval2(f, env)


def test_tri_table_matches_tri_eval_on_every_row():
    rng = random.Random(1909)
    for n in (1, 4, 7):
        names = NAMES[:n]
        for _ in range(5):
            f = wide_formula(rng, names, extra=0)
            f = _strip_to_tri(f)
            table = tri_table(f)
            order = table.variables
            cells = itertools.product((V, L, F), repeat=len(order))
            assert table.values() == tuple(tri_eval(f, dict(zip(order, c))) for c in cells)


def _strip_to_tri(f):
    """The same tree with every claw and Conn16 node made a Sum or Prod."""
    if isinstance(f, Var):
        return f
    if isinstance(f, Neg):
        return Neg(_strip_to_tri(f.inner))
    if isinstance(f, Claw):
        return Sum(Neg(_strip_to_tri(f.antecedent)), _strip_to_tri(f.consequent))
    shape = Sum if isinstance(f, Sum) or (isinstance(f, Conn16) and f.index % 2) else Prod
    return shape(_strip_to_tri(f.left), _strip_to_tri(f.right))


def test_missing_variable_raises_exactly_when_some_row_does():
    rng = random.Random(547)
    for _ in range(300):
        f = random_formula(rng, 5, "abcd", with_conn16=True)
        raised = False
        for env in all_envs("ab"):
            try:
                eval2(f, env)
            except MissingVariableError:
                raised = True
        if raised:
            with pytest.raises(MissingVariableError):
                table_over(f, ["a", "b"])
        else:
            table_over(f, ["a", "b"])
    # the right side of a product is skipped wherever the left is false
    assert table_over(Prod(Var("a"), Prod(Neg(Var("a")), Var("x"))), ["a"]).values() == (False, False)


def test_non_formula_raises_type_error_where_eval2_does():
    with pytest.raises(TypeError):
        table_over(Sum(Var("a"), "a"), ["a"])
    assert table_over(Prod(Const(False), "a"), []).values() == (False,)


def _chain(shape, names):
    acc = Var(names[0])
    for name in names[1:]:
        acc = shape(acc, Var(name))
    return acc


SIXTEEN = NAMES + "nop"
EIGHTEEN = SIXTEEN + "qr"


def _count_block_evaluations(monkeypatch):
    calls = []
    evaluate = truth._eval_masks

    def counted(formula, env, full):
        calls.append(full.bit_length())
        return evaluate(formula, env, full)

    monkeypatch.setattr(truth, "_eval_masks", counted)
    return calls


def test_counterexample_search_stops_at_the_first_block(monkeypatch):
    calls = _count_block_evaluations(monkeypatch)
    assert find_counterexample(Neg(_chain(Prod, SIXTEEN))) == dict.fromkeys(SIXTEEN, True)
    assert calls == [2**BLOCK_BITS]


def test_counterexample_search_scans_every_block_for_the_last_row(monkeypatch):
    calls = _count_block_evaluations(monkeypatch)
    assert find_counterexample(_chain(Sum, SIXTEEN)) == dict.fromkeys(SIXTEEN, False)
    assert calls == [2**BLOCK_BITS] * 2 ** (16 - BLOCK_BITS)


def test_no_variable_cap_on_counterexample_search():
    conjunction = _chain(Prod, EIGHTEEN)
    assert find_counterexample(Claw(conjunction, conjunction)) is None
    assert find_counterexample(_chain(Sum, EIGHTEEN)) == dict.fromkeys(EIGHTEEN, False)
    with pytest.raises(LimitExceededError):
        table_over(conjunction, EIGHTEEN)


def test_herbrand_scan_follows_the_atom_budget_past_sixteen():
    some_p = parse_relational("Sum i . p(i)")
    assert herbrand_scan(some_p, 18, max_atoms=18) is None
    with pytest.raises(LimitExceededError):
        herbrand_scan(some_p, 18, max_atoms=16)
