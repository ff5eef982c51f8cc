import itertools
import json
import random
import re

import pytest

from illation import arithmetic, errors
from illation.errors import LimitExceededError
from illation.arithmetic import (
    EMPTY,
    HFAtom,
    HFNode,
    NumberStructure,
    chain,
    check_axioms,
    hf_equal,
    number_structure_from_json,
    pair_injectivity,
    report_json,
    report_text,
    wiener_pair,
)

from helpers import ref_check_induction, ref_pair_check

AXIOM_KEYS = ["1", "2", "3", "4a", "4b", "5"]


def test_chain_construction():
    c1 = chain(1)
    assert c1.carrier == ("1",)
    assert c1.relation == frozenset({("1", "1")})
    c2 = chain(2)
    assert c2.relation == frozenset({("1", "1"), ("1", "2"), ("2", "2")})
    assert c2.one == "1"


def test_chain_bounds():
    with pytest.raises(ValueError):
        chain(0)
    with pytest.raises(LimitExceededError):
        chain(errors.MAX_CARRIER + 1)


def test_chain3_report():
    report = check_axioms(chain(3))
    holds = {k: v.holds for k, v in report.verdicts.items()}
    assert holds == {"1": True, "2": True, "3": True, "4a": True, "4b": False, "5": True}
    assert report.verdicts["4b"].witness == "maximum element 3"
    assert not report.all_hold()


def test_chains_1_to_6_all_fail_only_4b():
    for n in range(1, 7):
        report = check_axioms(chain(n))
        for key, verdict in report.verdicts.items():
            assert verdict.holds == (key != "4b"), (n, key)


def test_chain4_induction_detail():
    # every succ-closed subset containing 1 is the whole carrier
    assert check_axioms(chain(4)).verdicts["5"].holds


def test_antisymmetry_violation():
    s = NumberStructure(("a", "b"), frozenset({("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}), "a")
    report = check_axioms(s)
    assert not report.verdicts["1"].holds
    w = report.verdicts["1"].witness
    assert "a" in w and "b" in w


def test_two_disjoint_chains_fail_comparability():
    s = NumberStructure(
        ("a", "b", "c", "d"),
        frozenset({("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"), ("a", "b"), ("c", "d")}),
        "a",
    )
    report = check_axioms(s)
    assert not report.verdicts["2"].holds
    assert "incomparable" in report.verdicts["2"].witness


def test_report_text_shape():
    text = report_text(check_axioms(chain(3)))
    lines = text.splitlines()
    assert lines[0].startswith("reading: ")
    assert len(lines) == 7
    assert text.endswith("\n")
    assert "axiom 4b" in lines[5] and "fail" in lines[5]


def test_report_json_shape():
    blob = report_json(check_axioms(chain(2)))
    parsed = json.loads(json.dumps(blob))
    assert sorted(parsed["axioms"]) == sorted(AXIOM_KEYS)
    assert parsed["axioms"]["4b"]["holds"] is False
    assert isinstance(parsed["axioms"]["4b"]["witness"], str)
    assert parsed["axioms"]["1"]["witness"] is None


def test_number_structure_json_round_trip():
    blob = json.loads(
        '{"carrier": ["1", "2", "3"], "one": "1",'
        ' "R": [["1", "1"], ["1", "2"], ["1", "3"], ["2", "2"], ["2", "3"], ["3", "3"]]}'
    )
    assert number_structure_from_json(blob) == chain(3)


def test_number_structure_validation():
    with pytest.raises(ValueError):
        NumberStructure(("a", "a"), frozenset(), "a")  # duplicate carrier
    with pytest.raises(ValueError):
        NumberStructure(("a",), frozenset({("a", "z")}), "a")  # dangling pair
    with pytest.raises(ValueError):
        NumberStructure(("a",), frozenset(), "z")  # one outside carrier
    with pytest.raises(LimitExceededError):
        NumberStructure(tuple(f"e{i}" for i in range(errors.MAX_CARRIER + 1)), frozenset(), "e0")


def test_no_finite_model_of_all_axioms():
    """Exhaustive up to three elements: some axiom always fails."""
    for n in (1, 2, 3):
        names = tuple(str(i + 1) for i in range(n))
        cells = list(itertools.product(names, repeat=2))
        for bits in itertools.product((False, True), repeat=len(cells)):
            rel = frozenset(c for c, b in zip(cells, bits) if b)
            for one in names:
                assert not check_axioms(NumberStructure(names, rel, one)).all_hold()


def random_relation(rng, n):
    """A relation with each ordered pair in it at one rate, on a shuffled
    carrier with a random 1."""
    names = [f"e{i}" for i in range(n)]
    rng.shuffle(names)
    rate = rng.choice([0.1, 0.3, 0.5, 0.7])
    rel = frozenset(c for c in itertools.product(names, repeat=2) if rng.random() < rate)
    return NumberStructure(tuple(names), rel, rng.choice(names))


def near_order(rng, n):
    """The chain of n elements under <=, on a shuffled carrier, with up to
    two ordered pairs flipped and, now and then, 1 moved off the bottom."""
    ranks = list(range(n))
    rng.shuffle(ranks)
    names = tuple(f"e{r}" for r in ranks)
    rel = {(f"e{i}", f"e{j}") for i in range(n) for j in range(i, n)}
    for _ in range(rng.choice([0, 0, 1, 2])):
        rel ^= {(f"e{rng.randrange(n)}", f"e{rng.randrange(n)}")}
    one = rng.choice(names) if rng.random() < 0.2 else "e0"
    return NumberStructure(names, frozenset(rel), one)


def test_induction_matches_the_subset_enumeration():
    rng = random.Random(1881)
    outcomes = {True: 0, False: 0}
    for k in range(600):
        make = near_order if k % 2 else random_relation
        s = make(rng, rng.randint(1, errors.MAX_CARRIER))
        witness = arithmetic._check_induction(s)
        assert witness == ref_check_induction(s), s
        outcomes[witness is None] += 1
    assert min(outcomes.values()) > 100, outcomes


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("pairing", [
    wiener_pair,
    lambda x, y: HFNode((x, y)),  # the unordered pair {x, y}
    lambda x, y: EMPTY,
], ids=["wiener", "unordered", "constant"])
def test_pair_injectivity_matches_the_pairwise_sweep(monkeypatch, atoms, pairing):
    monkeypatch.setattr(arithmetic, "wiener_pair", pairing)
    expected = ref_pair_check(atoms, pairing)
    assert pair_injectivity(atoms) == expected
    assert (expected[0] == 0) == (pairing is wiener_pair or atoms == 1)


# --- hereditarily finite sets and the 1914 pair -------------------------------


def test_hf_equality_basics():
    a, b = HFAtom("a"), HFAtom("b")
    assert hf_equal(a, HFAtom("a"))
    assert not hf_equal(a, b)
    assert hf_equal(EMPTY, HFNode(()))
    assert not hf_equal(EMPTY, HFNode((a,)))


def test_hf_extensionality():
    a, b = HFAtom("a"), HFAtom("b")
    assert hf_equal(HFNode((a, b)), HFNode((b, a)))
    assert hf_equal(HFNode((a, a, b)), HFNode((a, b)))
    assert len(HFNode((a, a, b))) == 2
    # the operators agree with hf_equal: ==, set membership, and repr
    assert HFNode((a, b)) == HFNode((b, a)) and a == HFAtom("a")
    assert a != b and HFNode((a,)) != a and a != "a"
    assert HFNode((a, a, b)) in {HFNode((b, a))} and HFAtom("b") in {b}
    assert len({HFNode((a, b)), HFNode((b, a)), EMPTY}) == 2
    assert repr(a) == "a" and repr(EMPTY) == "{}"
    assert repr(HFNode((b, HFNode((a,)), a))) == "{a, b, {a}}"


def test_hf_nesting():
    a = HFAtom("a")
    assert not hf_equal(HFNode((a,)), HFNode((HFNode((a,)),)))
    assert hf_equal(HFNode((HFNode((a,)),)), HFNode((HFNode((a, a)),)))


def test_wiener_pair_shape():
    a, b = HFAtom("a"), HFAtom("b")
    p = wiener_pair(a, b)
    # {{{a}, {}}, {b}}
    assert len(p) == 2
    left = HFNode((HFNode((a,)), EMPTY))
    assert hf_equal(p, HFNode((left, HFNode((b,)))))
    # the cardinality split that makes the encoding injective
    assert len(left) == 2
    assert len(HFNode((b,))) == 1


def test_wiener_pair_equal_iff_components_equal():
    a, b = HFAtom("a"), HFAtom("b")
    assert hf_equal(wiener_pair(a, b), wiener_pair(a, b))
    assert not hf_equal(wiener_pair(a, b), wiener_pair(b, a))


def test_wiener_pair_injective_three_atoms():
    atoms = [HFAtom(n) for n in "abc"]
    for x, y, u, v in itertools.product(atoms, repeat=4):
        same = hf_equal(wiener_pair(x, y), wiener_pair(u, v))
        assert same == (hf_equal(x, u) and hf_equal(y, v))


def test_wiener_pair_nested():
    atoms = [HFAtom(n) for n in "ab"]
    pairs = [wiener_pair(x, y) for x in atoms for y in atoms]
    for (i, p), (j, q) in itertools.product(enumerate(pairs), repeat=2):
        for (k, r), (m, t) in itertools.product(enumerate(pairs), repeat=2):
            same = hf_equal(wiener_pair(p, r), wiener_pair(q, t))
            assert same == (i == j and k == m)


def test_wiener_pair_identical_components():
    a = HFAtom("a")
    p = wiener_pair(a, a)
    assert hf_equal(p, wiener_pair(a, a))
    assert not hf_equal(p, wiener_pair(a, HFAtom("b")))


@pytest.mark.parametrize("pair", [["1", "1", "2"], ["1"], [], "12", {"1": "2"}, 12, None, True])
def test_number_structure_from_json_needs_two_element_r_pairs(pair):
    blob = {"carrier": ["1", "2"], "one": "1", "R": [["1", "1"], pair]}
    with pytest.raises(ValueError, match="R pair must be a list of two elements"):
        number_structure_from_json(blob)


@pytest.mark.parametrize("carrier", ["12", {"1": 0}, 12, None, True])
def test_number_structure_from_json_needs_a_carrier_list(carrier):
    with pytest.raises(ValueError, match="carrier must be a list"):
        number_structure_from_json({"carrier": carrier, "one": "1", "R": [["1", "1"]]})


@pytest.mark.parametrize("value", [None, True, False, [1], {"1": 1}])
@pytest.mark.parametrize("field", ["one", "carrier element"])
def test_number_structure_from_json_needs_string_or_number_elements(field, value):
    """`None` would read as "no element" to the successor walk of axiom 5."""
    blob = {"carrier": ["1"], "one": "1", "R": [["1", "1"]]}
    if field == "one":
        blob["one"] = value
    else:
        blob["carrier"].append(value)
    message = f"{field} must be a string or number, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        number_structure_from_json(blob)
