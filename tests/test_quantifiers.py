import itertools
import json

import pytest

from illation import errors
from illation.errors import LimitExceededError
from illation.formulas import (
    PI,
    PROPOSITIONAL,
    SIGMA,
    Claw,
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
    free_vars,
    walk,
)
from illation.notations import ParseError
from illation.quantifiers import (
    Structure,
    aeio,
    atom_name,
    eval_in,
    expand,
    extend_model,
    herbrand_scan,
    indiscernible,
    mitchell,
    sat_scan,
    sat_search,
    structure_to_json,
)
from illation.relsyntax import parse_relational

from helpers import expansion_env, ref_eval, ref_expand

LOVES = parse_relational("Pi i . Sum j . l(i,j)")
SOME_LOVES = parse_relational("Sum i . Sum j . l(i,j)")
SELF_LOVE = parse_relational("Sum i . l(i,i)")


def _structure(n, l_pairs, **unary):
    preds = {"l": (2, frozenset(l_pairs))}
    for name, elems in unary.items():
        preds[name] = (1, frozenset((e,) for e in elems))
    return Structure(n, preds)


def test_parse_relational():
    assert LOVES == Quant(PI, "i", Quant(SIGMA, "j", RAtom("l", ("i", "j"))))
    f = parse_relational("Pi i . p(i) > q(i)")
    assert f == Quant(PI, "i", RClaw(RAtom("p", ("i",)), RAtom("q", ("i",))))
    g = parse_relational("Pi i . ~p(i) & (p(i) | p(i))")
    assert g.body == RProd(RNeg(RAtom("p", ("i",))), RSum(RAtom("p", ("i",)), RAtom("p", ("i",))))


def test_parse_relational_quantifier_on_claw_rhs():
    f = parse_relational("(Pi i . p(i)) > Sum j . p(j)")
    assert f == RClaw(Quant(PI, "i", RAtom("p", ("i",))), Quant(SIGMA, "j", RAtom("p", ("j",))))


def test_parse_relational_errors():
    for bad in ("Pi i .", "l(i,)", "Pi i l(i)", "Sum . l(i)", "p(i) &", "Pi i . ~Sum j . l(i,j)"):
        with pytest.raises(ParseError):
            parse_relational(bad)
    # free variables are rejected at the api boundary by expand/eval_in
    free = parse_relational("Sum i . l(i,j)")
    with pytest.raises(ValueError):
        expand(free, 2)


def test_atom_naming():
    assert atom_name("l", (0, 1)) == "l_0_1"
    assert atom_name("p", (3,)) == "p_3"


def test_expand_examples():
    sigma = parse_relational("Sum i . f(i)")
    assert expand(sigma, 2) == Sum(Var("f_0"), Var("f_1"))
    assert expand(parse_relational("Sum i . l(i,i)"), 1) == Var("l_0_0")
    two = expand(LOVES, 2)
    assert two == Prod(
        Sum(Var("l_0_0"), Var("l_0_1")),
        Sum(Var("l_1_0"), Var("l_1_1")),
    )


def test_expand_connectives_and_negation():
    f = parse_relational("Pi i . ~p(i) > p(i)")
    assert expand(f, 2) == Prod(
        Claw(Neg(Var("p_0")), Var("p_0")),
        Claw(Neg(Var("p_1")), Var("p_1")),
    )


def test_expand_atom_limit():
    """The one bound of `expand` is on atom occurrences, not distinct atoms:
    25 atoms expand, and 257^2 occurrences of l are refused."""
    assert len(free_vars(expand(LOVES, 5))) == 25
    with pytest.raises(LimitExceededError, match="^expansion needs more than 65,536 atom occ"):
        expand(parse_relational("Pi i . Pi j . l(i,j)"), 257)


def test_expand_bounds_its_atom_occurrences_before_the_walk(monkeypatch):
    monkeypatch.setattr(errors, "MAX_EXPANSION_LEAVES", 8)
    # the occurrences are summed over the atoms: n^k for k quantifiers above
    expand(parse_relational("Pi i . Pi j . Pi k . p(i)"), 2)  # 2^3 = 8
    expand(parse_relational("Pi i . p(i) | q(i)"), 4)  # 4 + 4
    for text, n in [("Pi i . Pi j . Pi k . Pi l . p(i)", 2), ("Pi i . p(i) | q(i) | r(i)", 3),
                    ("Pi i . Pi j . l(i,j) & (Pi k . p(k))", 2)]:
        with pytest.raises(LimitExceededError, match="more than 8 atom occurrences"):
            expand(parse_relational(text), n)


def test_expand_makes_one_var_per_atom_name():
    expansion = expand(parse_relational("Pi i . p(i) & (Sum j . p(j))"), 3)
    atoms = [f for f in walk(expansion, PROPOSITIONAL) if type(f) is Var]
    assert len(atoms) == 3 + 3 * 3 and len({id(f) for f in atoms}) == 3


def test_expand_rebinds_an_index_that_sibling_quantifiers_share():
    f = parse_relational("(Pi i . p(i)) & (Pi i . q(i)) & (Sum j . Pi i . l(i,j))")
    assert expand(f, 2) == ref_expand(f, 2)
    assert expand(parse_relational("(Pi i . p(i)) & (Pi i . q(i))"), 2) == Prod(
        Prod(Var("p_0"), Var("p_1")), Prod(Var("q_0"), Var("q_1")))


def test_eval_in_examples():
    assert eval_in(LOVES, _structure(2, [(0, 1), (1, 0)])) is True
    assert eval_in(LOVES, _structure(1, [])) is False
    assert eval_in(SOME_LOVES, _structure(1, [(0, 0)])) is True
    assert eval_in(SOME_LOVES, _structure(2, [])) is False


def test_eval_in_validates():
    with pytest.raises(ValueError):
        eval_in(parse_relational("Sum i . l(i,j)"), _structure(1, []))
    # arity clash between formula and structure
    s = Structure(1, {"l": (1, frozenset({(0,)}))})
    with pytest.raises(ValueError):
        eval_in(SOME_LOVES, s)
    # missing predicate
    with pytest.raises(ValueError):
        eval_in(parse_relational("Sum i . q(i)"), _structure(1, []))


def test_expansion_agrees_with_eval_in():
    formulas = [
        LOVES,
        SOME_LOVES,
        SELF_LOVE,
        parse_relational("Pi i . Pi j . l(i,j) > l(j,i)"),
        parse_relational("Sum i . Pi j . l(i,j) & ~l(j,i) | l(i,i)"),
        parse_relational("(Pi i . l(i,i)) > Sum j . l(j,j)"),
    ]
    for f in formulas:
        for n in (1, 2):
            exp = expand(f, n)
            for s in _all_structures(n):
                env = expansion_env(s, free_vars(exp))
                assert ref_eval(exp, env) == eval_in(f, s), (f, n, s)


def _all_structures(n):
    cells = list(itertools.product(range(n), repeat=2))
    for bits in itertools.product((False, True), repeat=len(cells)):
        yield _structure(n, [c for c, b in zip(cells, bits) if b])


def test_sat_search_first_witness():
    w = sat_search(SOME_LOVES, 1)
    assert w == _structure(1, [(0, 0)])
    assert sat_search(parse_relational("Pi i . l(i,i) & ~l(i,i)"), 2) is None
    w2 = sat_search(LOVES, 2)
    assert w2 is not None and eval_in(LOVES, w2) is True


def test_sat_search_enumeration_order_prefers_absent():
    # a formula true of everything gets the all-absent structure first
    w = sat_search(parse_relational("Pi i . l(i,i) > l(i,i)"), 2)
    assert w == _structure(2, [])


def test_extend_model_duplication():
    w = sat_search(SELF_LOVE, 1)
    assert w == _structure(1, [(0, 0)])
    bigger = extend_model(SELF_LOVE, w)
    assert bigger.domain_size == 2
    assert eval_in(SELF_LOVE, bigger) is True
    assert (0, 0) in bigger.predicates["l"][1]
    assert (1, 1) in bigger.predicates["l"][1]


def test_extend_model_chain_up():
    w = sat_search(LOVES, 2)
    for n in (3, 4):
        w = extend_model(LOVES, w)
        assert w.domain_size == n
        assert eval_in(LOVES, w) is True


def test_extension_is_bounded_before_it_is_built(monkeypatch):
    deep = parse_relational("".join(f"Pi x{i} . " for i in range(40)) + "p(x0)")
    message = r"^extension to size 2: expansion needs more than 65,536 atom occurrences$"
    with pytest.raises(LimitExceededError, match=message):
        sat_scan(deep, 1)
    with pytest.raises(LimitExceededError, match=message):
        extend_model(deep, Structure(1, {"p": (1, frozenset({(0,)}))}))
    # the bound is the expansion's at n + 1: 2^3 = 8 occurrences pass, 3^3 do not
    monkeypatch.setattr(errors, "MAX_EXPANSION_LEAVES", 8)
    three = parse_relational("Pi i . Pi j . Pi k . p(i)")
    assert extend_model(three, sat_search(three, 1)).domain_size == 2
    with pytest.raises(LimitExceededError, match="^extension to size 3: .* more than 8 atom"):
        sat_scan(three, 2)


def test_extend_model_rejects_non_witness():
    with pytest.raises(ValueError):
        extend_model(SELF_LOVE, _structure(1, []))


def test_a_propositional_leaf_is_a_type_error_at_every_entry_point():
    f = Quant(PI, "i", Prod(RAtom("p", ("i",)), Var("a")))
    one = Structure(1, {"p": (1, frozenset({(0,)}))})
    for call in (lambda: extend_model(f, one), lambda: eval_in(f, one),
                 lambda: expand(f, 1), lambda: sat_search(f, 1)):
        with pytest.raises(TypeError, match=r"^not a relational formula: Var\(name='a'\)$"):
            call()


def test_sat_scan_report():
    report = sat_scan(SELF_LOVE, 3)
    assert [k for k, _ in report.verdicts] == [1, 2, 3]
    assert all(w is not None for _, w in report.verdicts)
    assert [k for k, _ in report.extensions] == [1, 2, 3]
    for k, ext in report.extensions:
        assert ext.domain_size == k + 1
        assert eval_in(SELF_LOVE, ext) is True


def test_sat_scan_unsat():
    report = sat_scan(parse_relational("Sum i . l(i,i) & ~l(i,i)"), 2)
    assert report.verdicts == ((1, None), (2, None))
    assert report.extensions == ()


def test_herbrand_scan():
    k, exp = herbrand_scan(parse_relational("Sum i . p(i) > p(i)"), 3)
    assert k == 1
    k, exp = herbrand_scan(parse_relational("(Pi i . p(i)) > Sum j . p(j)"), 3)
    assert k == 1
    assert exp == Claw(Var("p_0"), Var("p_0"))
    assert herbrand_scan(parse_relational("Sum i . p(i)"), 4) is None


def test_mitchell():
    f = RAtom("f", ("i",))
    assert mitchell("All", "f") == Quant(PI, "i", f)
    assert mitchell("Some", "f") == Quant(SIGMA, "i", f)
    assert eval_in(mitchell("All", "f"), Structure(1, {"f": (1, frozenset())})) is False
    with pytest.raises(ValueError):
        mitchell("No", "f")


def test_aeio_forms():
    a = aeio("A", "s", "p")
    e = aeio("E", "s", "p")
    i = aeio("I", "s", "p")
    o = aeio("O", "s", "p")
    s_atom, p_atom = RAtom("s", ("i",)), RAtom("p", ("i",))
    assert a == Quant(PI, "i", RClaw(s_atom, p_atom))
    assert e == Quant(PI, "i", RClaw(s_atom, RNeg(p_atom)))
    assert i == Quant(SIGMA, "i", RProd(s_atom, p_atom))
    assert o == Quant(SIGMA, "i", RProd(s_atom, RNeg(p_atom)))
    with pytest.raises(ValueError):
        aeio("X", "s", "p")


def _syllogism_structure(n, s_elems, p_elems, m_elems=()):
    return Structure(
        n,
        {
            "s": (1, frozenset((e,) for e in s_elems)),
            "p": (1, frozenset((e,) for e in p_elems)),
            **({"m": (1, frozenset((e,) for e in m_elems))} if m_elems != () else {}),
        },
    )


def test_aeio_vacuous_truth():
    s = _syllogism_structure(1, [], [])
    assert eval_in(aeio("A", "s", "p"), s) is True
    assert eval_in(aeio("I", "s", "p"), s) is False


def test_barbara_entailment():
    premises = RProd(aeio("A", "s", "m"), aeio("A", "m", "p"))
    against = RProd(premises, RNeg(aeio("A", "s", "p")))
    for n in (1, 2, 3):
        assert sat_search(against, n) is None


def test_a_does_not_entail_i():
    against = RProd(aeio("A", "s", "p"), RNeg(aeio("I", "s", "p")))
    w = sat_search(against, 1)
    assert w is not None
    assert w.predicates["s"][1] == frozenset()


def test_a_plus_existence_entails_i():
    exists = Quant(SIGMA, "i", RAtom("s", ("i",)))
    against = RProd(RProd(aeio("A", "s", "p"), exists), RNeg(aeio("I", "s", "p")))
    for n in (1, 2, 3):
        assert sat_search(against, n) is None


def test_indiscernible():
    s = _structure(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert indiscernible(s, 0, 1) is True
    assert indiscernible(s, 0, 0) is True
    t = _structure(2, [(0, 0)])
    assert indiscernible(t, 0, 1) is False
    u = Structure(2, {"p": (1, frozenset({(0,)}))})
    assert indiscernible(u, 0, 1) is False
    with pytest.raises(ValueError, match="^element 5 is outside the domain$"):
        indiscernible(s, 0, 5)


def test_indiscernible_is_equivalence_relation():
    for s in list(_all_structures(2))[:16]:
        pairs = [(i, j) for i in range(2) for j in range(2)]
        rel = {(i, j) for i, j in pairs if indiscernible(s, i, j)}
        assert all((i, i) in rel for i in range(2))
        assert all((j, i) in rel for (i, j) in rel)


def test_structure_json_round_trip():
    s = _structure(2, [(0, 1)], p=[0])
    blob = structure_to_json(s)
    assert blob == {
        "domain": 2,
        "predicates": {
            "l": {"arity": 2, "true": [[0, 1]]},
            "p": {"arity": 1, "true": [[0]]},
        },
    }
    assert json.loads(json.dumps(blob)) == blob  # lists, not tuples: JSON text keeps it


def test_structure_validation():
    with pytest.raises(ValueError):
        Structure(0, {})
    with pytest.raises(ValueError):
        Structure(1, {"l": (2, frozenset({(0, 1)}))})  # element out of range
    with pytest.raises(ValueError):
        Structure(1, {"l": (2, frozenset({(0,)}))})  # wrong arity tuple
    with pytest.raises(ValueError, match="^l has arity 2, got 1 elements$"):
        Structure(2, {"l": (2, frozenset())}).holds("l", (0,))
