"""First-model search on the bit-parallel engine.

sat_search and sat_scan are checked against the exhaustive search they
replace (tests/helpers.ref_sat_search: every structure built in order and
checked with eval_in), for block counts (early exit), and for the order
and text of their errors.  herbrand_scan, which searches the negation's
models, is checked against the scan that expanded every size and evaluated
every row of it (tests/helpers.ref_herbrand_scan).
"""

import random

import pytest

from illation import errors, quantifiers
from illation.errors import LimitExceededError
from illation.formulas import free_vars
from illation.quantifiers import (
    Structure, atom_name, extend_model, herbrand_scan, sat_scan, sat_search,
)
from illation.relsyntax import parse_relational
from illation.truth import BLOCK_BITS

from helpers import (
    RClaw, RNeg, RProd, RSum, interpretation_cells, random_closed_formula,
    ref_expand, ref_herbrand_scan, ref_sat_search,
)
from test_engine import DOUBLING_16, _count_block_evaluations

# More than ten cells, each first model past the first 2^BLOCK_BITS structures.
LATE_MODELS = [
    ("(Pi i . l(i,i)) & (Sum j . p(j))", 3),  # 12 cells
    ("Pi i . (p(i) > q(i)) & q(i) & (r(i) | ~s(i))", 4),  # 16 cells
]
NO_MODEL = ("Sum i . Pi j . l(i,j) & ~l(j,i) | p(i) & ~p(i)", 3)  # 12 cells
LOVES = parse_relational("Pi i . Sum j . l(i,j)")


def rank(formula, witness):
    """Position of `witness` in the search order."""
    cells = interpretation_cells(formula, witness.domain_size)
    last = len(cells) - 1
    return sum(1 << (last - i) for i, (name, row) in enumerate(cells) if witness.holds(name, row))


def test_sat_search_matches_exhaustive_search_on_random_formulas():
    rng = random.Random(1870)
    found = total = 0
    for n, count, signature in ((1, 40, {"p": 1, "l": 2, "r": 3}), (2, 40, {"p": 1, "l": 2}),
                                (3, 15, {"p": 1, "l": 2})):
        for _ in range(count):
            f = random_closed_formula(rng, 5, signature)
            want = ref_sat_search(f, n)
            assert sat_search(f, n) == want, (f, n)
            found += want is not None
            total += 1
    assert 0 < found < total  # both verdicts occur


def test_sat_search_over_the_cells_read_matches_the_search_over_every_cell():
    """Repeated indices (l(i,i)) and quantifiers that do not reach every
    position leave cells unread; the search skips them and still finds the
    model of the search over every cell, whose unread cells are absent."""
    rng = random.Random(1879)
    verdicts = set()
    for n, count, signature in ((1, 20, {"p": 1, "l": 2, "r": 3}), (2, 20, {"p": 1, "r": 3}),
                                (2, 10, {"l": 2, "r": 3}), (3, 15, {"l": 2})):
        for _ in range(count):
            f = RProd(random_closed_formula(rng, 4, signature),
                      random_closed_formula(rng, 4, signature))
            want = ref_sat_search(f, n)
            assert sat_search(f, n) == want, (f, n)
            if len(free_vars(ref_expand(f, n))) < len(interpretation_cells(f, n)):
                verdicts.add(want is None or any(rows for _, rows in want.predicates.values()))
    assert verdicts == {False, True}  # with cells unread: no model, or one with a present cell


def _outcome(scan, *args):
    try:
        return scan(*args)
    except LimitExceededError as err:
        return str(err)


def test_herbrand_scan_matches_the_scan_over_every_row(monkeypatch):
    rng = random.Random(1885)
    outcomes = set()
    for _ in range(100):
        f = random_closed_formula(rng, 4, {"p": 1, "l": 2})
        if rng.random() < 0.5:  # valid at every size
            g = random_closed_formula(rng, 3, {"p": 1, "l": 2})
            f = rng.choice((RSum(f, RNeg(f)), RClaw(f, RSum(g, f))))
        limit = rng.randint(2, 9)  # some scans pass the cell limit part way
        monkeypatch.setattr(errors, "MAX_TABLE_VARS", limit)
        got = _outcome(herbrand_scan, f, 3)
        assert got == _outcome(ref_herbrand_scan, f, 3), (f, limit)
        outcomes.add(type(got))
    assert outcomes == {tuple, type(None), str}


def test_herbrand_scan_expands_only_the_size_it_returns(monkeypatch):
    sizes = []
    real = quantifiers.expand
    monkeypatch.setattr(quantifiers, "expand", lambda f, n: sizes.append(n) or real(f, n))
    assert herbrand_scan(parse_relational("(Pi i . p(i)) > Sum j . p(j)"), 3)[0] == 1
    assert herbrand_scan(parse_relational("Sum i . p(i)"), 3) is None
    assert sizes == [1]


def test_sat_search_matches_exhaustive_search_past_the_first_block():
    for source, n in LATE_MODELS + [NO_MODEL]:
        f = parse_relational(source)
        assert len(interpretation_cells(f, n)) > BLOCK_BITS
        want = ref_sat_search(f, n)
        assert sat_search(f, n) == want, source
        if (source, n) == NO_MODEL:
            assert want is None
        else:
            assert rank(f, want) >= 2**BLOCK_BITS


def test_sat_scan_matches_exhaustive_search():
    rng = random.Random(1883)
    for _ in range(25):
        f = random_closed_formula(rng, 4, {"p": 1, "q": 1})
        report = sat_scan(f, 3)
        witnesses = [(k, ref_sat_search(f, k)) for k in (1, 2, 3)]
        assert report.verdicts == tuple(witnesses)
        assert report.extensions == tuple(
            (k, extend_model(f, w)) for k, w in witnesses if w is not None
        )


def test_model_at_the_all_absent_structure_costs_one_block(monkeypatch):
    calls = _count_block_evaluations(monkeypatch)
    assert sat_search(parse_relational("Pi i . Pi j . l(i,j) > l(i,j)"), 4) == Structure(
        4, {"l": (2, frozenset())}
    )
    assert calls == [2**BLOCK_BITS, 1]  # the block, then eval_in's check of the model


def test_last_structure_and_no_model_scan_every_block(monkeypatch):
    calls = _count_block_evaluations(monkeypatch)
    every = sat_search(parse_relational("Pi i . Pi j . l(i,j)"), 4)
    assert every.predicates["l"][1] == frozenset((i, j) for i in range(4) for j in range(4))
    assert calls == DOUBLING_16 + [1]  # the blocks, then eval_in's check of the model
    calls.clear()
    assert sat_search(parse_relational("Sum i . Sum j . l(i,j) & ~l(i,j)"), 4) is None
    assert calls == DOUBLING_16


def test_cell_limit_message_is_unchanged(monkeypatch):
    """The search reads as many cells as `expand` has atoms, and says so
    in `expand`'s words."""
    with pytest.raises(LimitExceededError, match=r"^expansion needs more than 16 distinct atoms$"):
        sat_search(LOVES, 5)
    with pytest.raises(LimitExceededError, match=r"^size 5: expansion needs more than 16 distinct"):
        sat_scan(LOVES, 5)
    monkeypatch.setattr(errors, "MAX_TABLE_VARS", 24)
    with pytest.raises(LimitExceededError, match=r"^expansion needs more than 24 distinct atoms$"):
        sat_search(LOVES, 5)
    monkeypatch.setattr(errors, "MAX_TABLE_VARS", 3)
    with pytest.raises(LimitExceededError, match=r"^expansion needs more than 3 distinct atoms$"):
        sat_search(LOVES, 2)


def test_cells_are_the_distinct_atoms_of_the_expansion():
    """The cells listed are the atoms of the expansion, each once; with more
    than MAX_TABLE_VARS of them the listing refuses, in the same words."""
    rng = random.Random(1903)
    refused = 0
    for _ in range(300):
        f = random_closed_formula(rng, rng.randint(2, 6), {"p": 1, "l": 2, "r": 3})
        n = rng.randint(1, 5)
        names = free_vars(ref_expand(f, n))
        if len(names) > errors.MAX_TABLE_VARS:
            with pytest.raises(LimitExceededError,
                               match=r"^expansion needs more than 16 distinct atoms$"):
                quantifiers._cells(f, n)
            refused += 1
        else:
            cells = quantifiers._cells(f, n)
            assert sorted(atom_name(*cell) for cell in cells) == sorted(names), (f, n)
    assert 0 < refused < 300


def test_formula_errors_come_before_the_cell_limit():
    with pytest.raises(ValueError, match="free index variable"):
        sat_search(parse_relational("Pi i . l(i,j)"), 5)
    with pytest.raises(ValueError, match="used with arities"):
        sat_search(parse_relational("Sum i . l(i) & l(i,i)"), 5)
