"""First-model search on the bit-parallel engine.

sat_search and sat_scan are checked against the exhaustive search they
replace (tests/helpers.ref_sat_search: every structure built in order and
checked with eval_in), for block counts (early exit), and for the order
and text of their errors.
"""

import random

import pytest

from illation.errors import LimitExceededError
from illation.quantifiers import Structure, extend_model, sat_scan, sat_search
from illation.relsyntax import parse_relational
from illation.truth import BLOCK_BITS

from helpers import interpretation_cells, random_closed_formula, ref_sat_search
from test_engine import _count_block_evaluations

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
    assert calls == [2**BLOCK_BITS] * 2 ** (16 - BLOCK_BITS) + [1]
    calls.clear()
    assert sat_search(parse_relational("Sum i . Sum j . l(i,j) & ~l(i,j)"), 4) is None
    assert calls == [2**BLOCK_BITS] * 2 ** (16 - BLOCK_BITS)


def test_cell_limit_message_is_unchanged(monkeypatch):
    with pytest.raises(LimitExceededError, match=r"^25 interpretation cells exceed the limit of 16$"):
        sat_search(LOVES, 5)
    with pytest.raises(LimitExceededError, match=r"^25 interpretation cells exceed the limit of 24$"):
        sat_search(LOVES, 5, max_atoms=24)
    with pytest.raises(LimitExceededError, match=r"^size 5: 25 interpretation cells exceed"):
        sat_scan(LOVES, 5)
    monkeypatch.setenv("ILLATION_MAX_ATOMS", "3")
    with pytest.raises(LimitExceededError, match=r"^4 interpretation cells exceed the limit of 3$"):
        sat_search(LOVES, 2)


def test_cell_limit_can_be_raised_by_the_override():
    reflexive = parse_relational("Pi i . Sum j . l(i,j) > l(i,j)")
    assert sat_search(reflexive, 5, max_atoms=25) == Structure(5, {"l": (2, frozenset())})


def test_formula_errors_come_before_the_cell_limit(monkeypatch):
    with pytest.raises(ValueError, match="free index variable"):
        sat_search(parse_relational("Pi i . l(i,j)"), 5)
    with pytest.raises(ValueError, match="used with arities"):
        sat_search(parse_relational("Sum i . l(i) & l(i,i)"), 5)
    monkeypatch.setenv("ILLATION_MAX_ATOMS", "many")
    with pytest.raises(ValueError, match="free index variable"):
        sat_search(parse_relational("Pi i . l(i,j)"), 5)
    with pytest.raises(ValueError, match="ILLATION_MAX_ATOMS must be an integer"):
        sat_search(LOVES, 5)
