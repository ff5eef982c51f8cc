"""Differential and work-count tests of the bit-parallel truth-table engine.

Every fast path is checked row by row against tests/helpers.ref_eval or
ref_tri_eval.  The wide cases have 11-13 variables, so they cross the
blocks the counterexample search scans in: the first of 2^BLOCK_BITS rows,
then each as large as all before it, up to 2^MAX_TABLE_VARS.  The engine is
checked on each row of each block a scan walks, over 12, 14 and (with the
budget cut) 18 variables.  Chains of last sides, as a | (b & ~(c > d)),
which the engine folds into one stack entry, are checked on every row,
and for where a missing variable raises.  On relational formulas the
engine is checked against itself on the formula's expansion, on the
blocks the model search walks, and chains with Pi and Sigma among their
links row by row against ref_eval_in.
"""

import itertools
import random
from functools import partial

import pytest

from illation import errors, truth
from illation.errors import LimitExceededError, MissingVariableError
from illation.formulas import (
    PI, SIGMA, SUBFORMULAS, Claw, Conn16, Const, Neg, Prod, Quant, Sum, Var, free_vars,
)
from illation.methods import anf, semantic_difference
from illation.quantifiers import Structure, atom_name, expand, herbrand_scan
from illation.relsyntax import parse_relational
from illation.trivalent import L, F, V, TriTable, tri_table
from illation.truth import BLOCK_BITS, find_counterexample, table_over

from helpers import (
    all_envs, interpretation_cells, random_closed_formula, random_formula, ref_eval, ref_eval_in,
    ref_tri_eval,
)

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
        assert table.values() == tuple(ref_eval(f, env) for env in all_envs(names))
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
            assert poly.evaluate(env) == ref_eval(f, env)


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
            assert table.values() == tuple(ref_tri_eval(f, dict(zip(order, c))) for c in cells)
            # the bit-planes have no bit past the last row, and a V row is at least L
            assert table.not_f >> 3 ** len(order) == 0 and table.is_v & ~table.not_f == 0


def test_tri_letters_match_each_row_at_every_block_boundary():
    """`_letters` against the letter read off the planes row by row, on
    windows that start, end on or cross each boundary of the 729-row blocks
    `tsv_blocks` takes from a 7-variable table."""
    rng = random.Random(1910)
    table = tri_table(_strip_to_tri(wide_formula(rng, NAMES[:7], extra=0)))
    total = 3**7
    want = "".join("V" if table.is_v >> r & 1 else "L" if table.not_f >> r & 1 else "F"
                   for r in range(total))
    assert set(want) == {"V", "L", "F"}
    for edge in range(0, total + 1, 3**6):
        for start in (edge - 1, edge, edge + 1):
            for size in (1, 2, 3**6 - 1, 3**6, 3**6 + 1):
                if 0 <= start <= total - size:
                    assert table._letters(start, size) == want[start:start + size]
    with pytest.raises(ValueError):  # row 2 is V but not at least L; tri_table makes no such row
        TriTable(("a",), 0b011, 0b101)._letters(0, 3)


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


def random_chain(rng, names, links):
    """A chain of `links` last sides, as a | (b & ~(c > d)): each link a
    negation, or a product, sum, claw or any of the 16 columns with a small
    random left side."""
    f = Var(rng.choice(names))
    for _ in range(links):
        kind = rng.choice(["neg", "claw", "prod", "sum", "conn"])
        if kind == "neg":
            f = Neg(f)
            continue
        left = random_formula(rng, 3, names, with_conn16=True)
        shape = {"claw": Claw, "prod": Prod, "sum": Sum}.get(kind)
        f = shape(left, f) if shape else Conn16(rng.randrange(1, 17), left, f)
    return f


def test_missing_variable_raises_exactly_when_some_row_does():
    """Random formulas, and chains of 40 last sides, which the engine folds
    into one stack entry, over a and b and a missing variable: the table
    raises when some row's evaluation does, else matches ref_eval."""
    rng = random.Random(547)
    formulas = [random_formula(rng, 5, "abcd", with_conn16=True) for _ in range(300)]
    formulas += [random_chain(rng, "aabbx", 40) for _ in range(300)]
    for f in formulas:
        try:
            want = tuple(ref_eval(f, env) for env in all_envs("ab"))
        except KeyError:
            with pytest.raises(MissingVariableError):
                table_over(f, ["a", "b"])
        else:
            assert table_over(f, ["a", "b"]).values() == want
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
# The rows of each block a whole scan over 16 variables walks: the first
# block, then each as large as all before it (7 walks of the formula).
DOUBLING_16 = [2**10] + [2**k for k in range(10, 16)]


def _count_block_evaluations(monkeypatch):
    calls = []
    evaluate = truth._eval_masks

    def counted(formula, env, full, domain=None):
        calls.append(full.bit_length())
        return evaluate(formula, env, full, domain)

    monkeypatch.setattr(truth, "_eval_masks", counted)
    return calls


def test_counterexample_search_stops_at_the_first_block(monkeypatch):
    calls = _count_block_evaluations(monkeypatch)
    assert find_counterexample(Neg(_chain(Prod, SIXTEEN))) == dict.fromkeys(SIXTEEN, True)
    assert calls == [2**BLOCK_BITS]


def test_counterexample_search_scans_every_block_for_the_last_row(monkeypatch):
    calls = _count_block_evaluations(monkeypatch)
    assert find_counterexample(_chain(Sum, SIXTEEN)) == dict.fromkeys(SIXTEEN, False)
    assert calls == DOUBLING_16


def test_no_variable_cap_on_counterexample_search():
    conjunction = _chain(Prod, EIGHTEEN)
    assert find_counterexample(Claw(conjunction, conjunction)) is None
    assert find_counterexample(_chain(Sum, EIGHTEEN)) == dict.fromkeys(EIGHTEEN, False)
    with pytest.raises(LimitExceededError):
        table_over(conjunction, EIGHTEEN)


def test_herbrand_scan_follows_the_atom_budget_past_sixteen(monkeypatch):
    some_p = parse_relational("Sum i . p(i)")
    monkeypatch.setattr(errors, "MAX_TABLE_VARS", 18)
    assert herbrand_scan(some_p, 18) is None
    monkeypatch.setattr(errors, "MAX_TABLE_VARS", 16)
    with pytest.raises(LimitExceededError):
        herbrand_scan(some_p, 18)


def scan_blocks(names, blocks):
    """A whole row scan over `names`, its test finding no row: the (env,
    full) of each block it walks is appended to `blocks`, in order."""
    return truth._first_row(tuple(names), lambda env, full: blocks.append((dict(env), full)) or 0)


def block_rows(env, full):
    """Each row of a block as an assignment, read off the bits of `env`."""
    return [{name: bool(mask >> j & 1) for name, mask in env.items()}
            for j in range(full.bit_length())]


def assert_blocks_match_ref_eval(f, blocks):
    for env, full in blocks:
        bits = truth._eval_masks(f, env, full)
        assert [bool(bits >> j & 1) for j in range(full.bit_length())] == [
            ref_eval(f, row) for row in block_rows(env, full)]


def test_masks_match_ref_eval_on_every_block_of_a_scan(monkeypatch):
    """The scan's blocks cover every row once, in canonical order, and the
    engine agrees with ref_eval on each row of each block, past 1,024 rows
    too.  A scan past 16 variables, its budget cut to 2^13 rows and its
    blocks to 2^11, walks 2^10, 2^10 and three 2^11 rows, then names the
    rows it cleared as before."""
    rng = random.Random(1897)
    for names, count in ((NAMES[:12], 3), (SIXTEEN[:14], 1)):
        blocks = []
        assert scan_blocks(names, blocks) is None
        assert [full.bit_length() for _, full in blocks] == [2**10] + [
            2**k for k in range(10, len(names))]
        assert [row for block in blocks for row in block_rows(*block)] == list(all_envs(names))
        for _ in range(count):
            assert_blocks_match_ref_eval(wide_formula(rng, names, extra=2), blocks)
    monkeypatch.setattr(errors, "MAX_SCAN_BITS", 13)
    monkeypatch.setattr(errors, "MAX_TABLE_VARS", 11)
    blocks = []
    with pytest.raises(LimitExceededError, match=(
            r"^row scan stopped after clearing 8,192 of the 2\^18 rows over 18 variables$")):
        scan_blocks(EIGHTEEN, blocks)
    assert [full.bit_length() for _, full in blocks] == [2**10, 2**10, 2**11, 2**11, 2**11]
    assert [row for block in blocks for row in block_rows(*block)] == list(
        itertools.islice(all_envs(EIGHTEEN), 2**13))
    assert_blocks_match_ref_eval(wide_formula(rng, EIGHTEEN, extra=2), blocks)


def test_relational_masks_match_the_expansion_on_every_block():
    """Pi and Sigma folded by the engine against the expansion they fold to,
    on each block of rows the model search scans: up to 12 cells at n = 3,
    so blocks of 2^10, 2^10 and 2^11 rows, and up to 16 at n = 4, so blocks
    up to 2^15 rows."""
    rng = random.Random(1883)
    largest = 0
    for n, count, signature in ((1, 40, {"p": 1, "l": 2}), (2, 40, {"p": 1, "l": 2}),
                                (3, 12, {"p": 1, "l": 2}), (4, 6, {"l": 2})):
        for _ in range(count):
            f = random_closed_formula(rng, 5, signature)
            expansion = expand(f, n)
            blocks = []
            scan_blocks(interpretation_cells(f, n), blocks)
            for env, full in blocks:
                atoms = {atom_name(*cell): mask for cell, mask in env.items()}
                assert truth._eval_masks(f, env, full, n) == truth._eval_masks(
                    expansion, atoms, full
                ), (f, n, full.bit_length())
                largest = max(largest, full.bit_length())
    assert largest == 2**15


def random_closed_chain(rng, signature, links):
    """A closed chain of `links` last sides, as in
    Sigma i . (p(i) > ~Pi j . (l(i, j) & ...)): each link a negation, or a
    claw, product or sum with a small random closed left side, and one to
    three of them a Pi or Sigma, over i, j and k, whose body is the rest of
    the chain."""
    quantified = rng.sample(range(links), rng.randint(1, 3))
    made, bound = [], ()
    for link in range(links):
        if link in quantified:
            bound += ("ijk"[len(bound)],)
            made.append(partial(Quant, rng.choice((PI, SIGMA)), bound[-1]))
        else:
            kind = rng.choice((Neg, Claw, Prod, Sum))
            made.append(kind if kind is Neg else partial(kind, random_closed_formula(
                rng, 3, signature, bound)))
    f = random_closed_formula(rng, 2, signature, bound)
    for link in reversed(made):
        f = link(f)
    return f


def quantifier_links(f):
    """The classes of the links of `f`'s chain whose last side is a Pi or
    Sigma link, None for one at the top."""
    found = {None} if type(f) is Quant else set()
    while type(f) in SUBFORMULAS:
        side = SUBFORMULAS[type(f)](f)[-1]
        if type(side) is Quant:
            found.add(type(f))
        f = side
    return found


def test_quantifier_links_match_ref_eval_in_on_every_block():
    """Pi and Sigma as links of 40-link chains (`random_closed_chain`), each
    the last side of a negation, claw, product, sum or quantifier or at the
    top, on each block of rows the model search scans: row by row against
    ref_eval_in up to n = 3, whose 12 cells make blocks of 2^10, 2^10 and
    2^11 rows, and against the expansion at n = 4.  At n = 1 a quantifier's
    body is its last side at once; above, its body at element n-1 is."""
    rng = random.Random(1885)
    links, largest = set(), {}
    for n, count, signature in ((1, 40, {"p": 1, "l": 2}), (2, 30, {"p": 1, "l": 2}),
                                (3, 2, {"p": 1, "l": 2}), (4, 4, {"l": 2})):
        for _ in range(count):
            f = random_closed_chain(rng, signature, 40)
            links |= quantifier_links(f)
            blocks = []
            scan_blocks(interpretation_cells(f, n), blocks)
            for env, full in blocks:
                bits = truth._eval_masks(f, env, full, n)
                if n == 4:
                    atoms = {atom_name(*cell): mask for cell, mask in env.items()}
                    assert bits == truth._eval_masks(expand(f, n), atoms, full), f
                    continue
                structures = [Structure(n, {name: (arity, frozenset(
                    row for (p, row), v in cells.items() if p == name and v))
                    for name, arity in signature.items()}) for cells in block_rows(env, full)]
                assert [bool(bits >> j & 1) for j in range(full.bit_length())] == [
                    ref_eval_in(f, s) for s in structures], f
            largest[n] = max(largest.get(n, 0), *(full.bit_length() for _, full in blocks))
    assert links == {None, Neg, Claw, Prod, Sum, Quant}
    assert largest == {1: 4, 2: 64, 3: 2**11, 4: 2**15}
