"""Property tests over random trees, deep ones included.

The trees come from hypothesis with a fixed seed (derandomize), so a run is
repeatable.  Besides small random trees, the strategies fold lists of them
into left- and right-deep chains and stack long runs of negations on them.
The code under test runs with only a few dozen frames of stack to spare,
so a walk that recursed once per level would fail; the recursive
reference evaluators run outside that limit.
"""

import itertools
import random
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from illation import frege
from illation.errors import LimitExceededError
from illation.formulas import PI, SIGMA, Claw, Conn16, Const, Neg, Prod, Quant, RAtom, Sum, Var
from illation.formulas import ensure_closed, free_vars, substitute
from illation.notations import Notation, parse, print_formula
from illation.quantifiers import Structure, assignment_from_structure, eval_in, expand
from illation.truth import eval2, table_over

from helpers import (
    all_envs, random_closed_formula, ref_ensure_closed, ref_eval, ref_eval_in, ref_expand,
    ref_frege_lines, ref_svg_rows, shallow_stack,
)

PROPERTIES = settings(derandomize=True, database=None, max_examples=60, deadline=None)
NAMES = "abcd"
BINARY = (Claw, Prod, Sum)


def _fold(parts, cls, left):
    """`parts` joined by `cls` into one left-deep or right-deep chain."""
    if left:
        return reduce(cls, parts)
    return reduce(lambda acc, part: cls(part, acc), reversed(parts))


def _negated(f, times):
    return reduce(lambda acc, _: Neg(acc), range(times), f)


def trees(constants=True, conn16=False):
    """Small random trees; chains of up to 100 of them, folded left or
    right; and small trees under up to 300 negations."""
    leaf = st.sampled_from(NAMES).map(Var)
    if constants:
        leaf = leaf | st.booleans().map(Const)

    def extend(kids):
        made = kids.map(Neg) | st.builds(lambda cls, left, right: cls(left, right),
                                         st.sampled_from(BINARY), kids, kids)
        if conn16:
            made = made | st.builds(Conn16, st.integers(1, 16), kids, kids)
        return made

    small = st.recursive(leaf, extend, max_leaves=12)
    chains = st.builds(_fold, st.lists(small, min_size=2, max_size=5).map(lambda p: p * 20),
                       st.sampled_from(BINARY), st.booleans())
    return small | chains | st.builds(_negated, small, st.integers(0, 300))


@PROPERTIES
@given(trees(constants=False))
def test_print_parse_round_trip_in_every_notation(f):
    for notation in Notation:
        with shallow_stack():
            text = print_formula(f, notation)
        # outside the limit: the parsers recurse per bracket and prefix negation
        assert parse(text, notation) == f, (notation, text)


@PROPERTIES
@given(trees(constants=True))
def test_print_parse_round_trip_with_constants(f):
    for notation in (Notation.PEANO_RUSSELL, Notation.PEIRCE, Notation.SCHROEDER):
        with shallow_stack():
            text = print_formula(f, notation)
        assert parse(text, notation) == f, (notation, text)


@PROPERTIES
@given(trees(conn16=True))
def test_the_frege_drawing_matches_the_joined_prefixes(f):
    with shallow_stack():
        ascii_lines, svg = list(frege._lines(f)), frege.render_svg(f)
    ref_lines = list(ref_frege_lines(f))
    assert ascii_lines == ref_lines
    assert svg == "\n".join(ref_svg_rows(ref_lines))


@PROPERTIES
@given(trees(conn16=True))
def test_table_over_agrees_with_the_reference_evaluator(f):
    with shallow_stack():
        names = free_vars(f)
        values = table_over(f, names).values()
        rows = tuple(eval2(f, env) for env in all_envs(names))
    assert values == rows == tuple(ref_eval(f, env) for env in all_envs(names))


@PROPERTIES
@given(trees(conn16=True), st.sampled_from(NAMES), trees(conn16=True))
def test_substitute_evaluates_as_the_filler_in_the_hole(context, hole, filler):
    with shallow_stack():
        plugged = substitute(context, hole, filler)
    for env in all_envs(NAMES):
        assert ref_eval(plugged, env) == ref_eval(context, {**env, hole: ref_eval(filler, env)})


def _closed(atoms, joins, negations, left):
    """Pi i . Sigma j . the atoms joined into a left- or right-deep chain,
    with some of the partial chains negated."""
    acc = atoms[0]
    for atom, cls, negate in zip(atoms[1:], joins, negations):
        acc = Neg(acc) if negate else acc
        acc = cls(acc, atom) if left else cls(atom, acc)
    return Quant(PI, "i", Quant(SIGMA, "j", acc))


def relational():
    atom = st.builds(lambda p, ix: RAtom(p, (ix,)), st.sampled_from("pq"), st.sampled_from("ij"))
    return st.integers(1, 150).flatmap(lambda n: st.builds(
        _closed, st.lists(atom, min_size=n, max_size=n),
        st.lists(st.sampled_from(BINARY), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n), st.booleans()))


def _bound(f, names):
    return reduce(lambda body, name: Quant(PI, name, body), names, f)


def indexed():
    """Relational trees whose atoms and quantifiers each take any of three
    indices, and chains of up to 100 of them, under up to three more
    quantifiers: free, shadowed and reused indices all occur."""
    index = st.sampled_from("ijk")
    atom = st.builds(lambda p, ixs: RAtom(p, tuple(ixs)), st.sampled_from("pq"),
                     st.lists(index, min_size=1, max_size=2))

    def extend(kids):
        return (kids.map(Neg) | st.builds(Quant, st.sampled_from((PI, SIGMA)), index, kids)
                | st.builds(lambda cls, left, right: cls(left, right),
                            st.sampled_from(BINARY), kids, kids))

    small = st.recursive(atom, extend, max_leaves=10)
    chains = st.builds(_fold, st.lists(small, min_size=2, max_size=5).map(lambda p: p * 20),
                       st.sampled_from(BINARY), st.booleans())
    return st.builds(_bound, small | chains, st.lists(index, max_size=3))


def _outcome(check, *args):
    """What `check` returned, or the type and text of what it raised."""
    try:
        return check(*args)
    except (TypeError, ValueError, LimitExceededError) as err:
        return type(err), str(err)


@PROPERTIES
@given(indexed())
def test_ensure_closed_raises_what_the_copying_check_raised(f):
    with shallow_stack():
        got = _outcome(ensure_closed, f)
    assert got == _outcome(ref_ensure_closed, f)


@PROPERTIES
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 30))
def test_expand_matches_the_expansion_with_bindings_per_copy(seed, n, max_atoms):
    """Random closed formulas, where sibling quantifiers often reuse an
    index; a small atom limit makes some expansions fail part way."""
    f = random_closed_formula(random.Random(seed), 6, {"p": 1, "l": 2})
    with shallow_stack():
        got = _outcome(expand, f, n, max_atoms)
    assert got == _outcome(ref_expand, f, n, max_atoms)


@PROPERTIES
@given(relational(), st.integers(1, 2))
def test_expand_agrees_with_eval_in_on_every_structure(f, n):
    with shallow_stack():
        expansion = expand(f, n)
        names = free_vars(expansion)
    subsets = [frozenset((e,) for e in range(n) if bits >> e & 1) for bits in range(1 << n)]
    for p, q in itertools.product(subsets, repeat=2):
        s = Structure(n, {"p": (1, p), "q": (1, q)})
        env = assignment_from_structure(s, names)
        with shallow_stack():
            value = eval_in(f, s)
        assert ref_eval(expansion, env) == value


@PROPERTIES
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_eval_in_agrees_with_the_recursive_reference(seed, n):
    rng = random.Random(seed)
    signature = {"p": 1, "l": 2}
    f = random_closed_formula(rng, 6, signature)
    for _ in range(4):
        s = Structure(n, {
            name: (arity, frozenset(row for row in itertools.product(range(n), repeat=arity)
                                    if rng.random() < 0.5))
            for name, arity in signature.items()
        })
        with shallow_stack():
            value = eval_in(f, s)
        assert value == ref_eval_in(f, s), (f, s)
