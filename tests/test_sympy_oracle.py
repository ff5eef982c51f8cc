"""Counterexample search and the indirect method against sympy's SAT solver.

sympy decides each formula by its own DPLL search, which shares no code with
the row engine or the indirect method.  The formulas are drawn from a seeded
generator over at most six variables; a `Conn16` node reaches sympy as its
sum-of-products expansion.  Each verdict must agree with whether `Not(f)` is
satisfiable, and each counterexample must make `f` false under sympy.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.logic.boolalg import And, Implies, Not, Or  # noqa: E402
from sympy.logic.inference import satisfiable  # noqa: E402

from illation.formulas import Claw, Conn16, Const, Neg, Prod, Sum, Var, sop_expansion  # noqa: E402
from illation.methods import Falsified, Tautology, indirect_falsify  # noqa: E402
from illation.truth import find_counterexample  # noqa: E402

NAMES = "abcdef"
CASES = 60


def to_sympy(f):
    """`f` as a sympy expression, built from the leaves up."""
    if isinstance(f, Var):
        return sympy.Symbol(f.name)
    if isinstance(f, Const):
        return sympy.true if f.value else sympy.false
    if isinstance(f, Neg):
        return Not(to_sympy(f.inner))
    if isinstance(f, Conn16):
        return to_sympy(sop_expansion(f.index, f.left, f.right))
    join = {Claw: Implies, Prod: And, Sum: Or}[type(f)]
    return join(*(to_sympy(getattr(f, n)) for n in f.__record_fields__))


def random_formula(rng, size):
    """A tree with `size` leaves over up to six variables and the constants."""
    if size == 1:
        return Const(rng.random() < 0.5) if rng.random() < 0.05 else Var(rng.choice(NAMES))
    left = rng.randint(1, size - 1)
    parts = random_formula(rng, left), random_formula(rng, size - left)
    kind = rng.randrange(5)
    f = Conn16(rng.randint(1, 16), *parts) if kind == 0 else (Claw, Prod, Sum, Claw)[kind - 1](*parts)
    return Neg(f) if rng.random() < 0.15 else f


def cases():
    """Random formulas, and as many that are tautologies by construction:
    a formula implies its sum with another."""
    rng = random.Random(431)
    for _ in range(CASES):
        f = random_formula(rng, rng.randint(1, 8))
        yield f
        yield Claw(f, Sum(random_formula(rng, rng.randint(1, 4)), f))


def test_verdicts_agree_with_sympy_satisfiable():
    verdicts = set()
    for f in cases():
        expr = to_sympy(f)
        falsifiable = satisfiable(Not(expr)) is not False
        found, indirect = find_counterexample(f), indirect_falsify(f)
        assert (found is not None) == falsifiable, f
        assert isinstance(indirect, Falsified if falsifiable else Tautology), f
        for env in ([found, indirect.counterexample] if falsifiable else []):
            values = {sympy.Symbol(name): sympy.true if v else sympy.false
                      for name, v in env.items()}
            assert expr.xreplace(values) is sympy.false, (f, env)
        verdicts.add(falsifiable)
    assert verdicts == {False, True}
