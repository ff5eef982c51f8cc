"""End-to-end acceptance checks.

Each test prints one `criterion NN: ...: PASS/FAIL` line (run pytest with -s
to see them as they go) and then asserts, so a red run names exactly which
guarantees broke.
"""

import itertools

from illation.arithmetic import HFAtom, NumberStructure, chain, check_axioms, hf_equal, wiener_pair
from illation.formulas import (
    CLAW_INDEX,
    PI,
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
    connective_index,
    connective_vector,
    ensure_closed,
    free_vars,
)
from illation.methods import Falsified, Tautology, anf, indirect_falsify, xframe
from illation.notations import Notation, parse
from illation.quantifiers import (
    aeio,
    eval_in,
    expand,
    extend_model,
    sat_search,
    Structure,
)
from illation.trivalent import F, L, V, tri_and, tri_neg, tri_or
from illation.truth import find_counterexample, is_tautology, truth_table

from helpers import expansion_env, formulas_up_to_depth, ref_eval


def _report(number, label, ok):
    print(f"criterion {number}: {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


A, B = Var("a"), Var("b")
PEIRCE_LAW = Claw(Claw(Claw(A, B), A), A)


def test_criterion_01_peirce_law_both_methods():
    by_table = is_tautology(PEIRCE_LAW)
    by_indirect = isinstance(indirect_falsify(PEIRCE_LAW), Tautology)
    _report(1, "Peirce's Law verified by full table and indirect method", by_table and by_indirect)


def test_criterion_02_claw_truth_table():
    t = truth_table(Claw(A, B))
    rows = dict(t.rows)
    ok = (
        rows[(True, True)] is True
        and rows[(True, False)] is False
        and rows[(False, True)] is True
        and rows[(False, False)] is True
    )
    _report(2, "claw table true at vv, fv, ff and false at vf", ok)


def test_criterion_03_trivalent_matrices():
    neg_ok = tri_neg(V) is F and tri_neg(L) is L and tri_neg(F) is V
    or_cells = {
        (V, V): V, (V, L): V, (V, F): V,
        (L, V): V, (L, L): L, (L, F): L,
        (F, V): V, (F, L): L, (F, F): F,
    }
    and_cells = {
        (V, V): V, (V, L): L, (V, F): F,
        (L, V): L, (L, L): L, (L, F): F,
        (F, V): F, (F, L): F, (F, F): F,
    }
    or_ok = all(tri_or(x, y) is want for (x, y), want in or_cells.items())
    and_ok = all(tri_and(x, y) is want for (x, y), want in and_cells.items())
    bi = {True: V, False: F}
    restrict_ok = all(
        tri_or(bi[x], bi[y]) is bi[x or y] and tri_and(bi[x], bi[y]) is bi[x and y]
        for x, y in itertools.product((True, False), repeat=2)
    ) and all(tri_neg(bi[x]) is bi[not x] for x in (True, False))
    _report(3, "trivalent matrices cell-for-cell and bivalent restriction", neg_ok and or_ok and and_ok and restrict_ok)


def test_criterion_04_sixteen_connectives():
    vectors = [connective_vector(k) for k in range(1, 17)]
    anchors = (
        vectors[0] == (False, False, False, False)
        and vectors[15] == (True, True, True, True)
        and vectors[4] == (True, False, False, False)
    )
    distinct = len(set(vectors)) == 16
    round_trips = all(connective_index(v) == k for k, v in enumerate(vectors, start=1))
    closed = xframe(1)
    open_ = xframe(16)
    frames = (
        closed.count("/") + closed.count("\\") == 4
        and open_.count("/") + open_.count("\\") == 0
    )
    _report(4, "16-connective table anchors, distinctness, X-frames", anchors and distinct and round_trips and frames)


def test_criterion_05_table4_cross_notation_identity():
    forms = {
        Notation.POLISH: "CCCNcaCNacCCNcaCCcaa",
        Notation.PEANO_RUSSELL: "((~c>a)>(~a>c))>((~c>a)>((c>a)>a))",
        Notation.PEIRCE: "((-c -< a) -< (-a -< c)) -< ((-c -< a) -< ((c -< a) -< a))",
        Notation.SCHROEDER: "((c' =< a) =< (a' =< c)) =< ((c' =< a) =< ((c =< a) =< a))",
    }
    asts = [parse(text, n) for n, text in forms.items()]
    identical = all(f == asts[0] for f in asts)
    table = truth_table(asts[0])
    brute = len(table.rows) == 4 and all(value for _, value in table.rows)
    _report(5, "one AST from all four notations and a 4-row tautology", identical and brute)


# --- exhaustive relational corpus: depth <= 3, unary p + binary l -------------

_FRESH = ("i", "j", "k")


def _rel_formulas(depth, bound):
    out = []
    for pred, arity in (("p", 1), ("l", 2)):
        if bound:
            for idx in itertools.product(bound, repeat=arity):
                out.append(RAtom(pred, idx))
    if depth > 1:
        inner = _rel_formulas(depth - 1, bound)
        out.extend(RNeg(f) for f in inner)
        var = _FRESH[len(bound)]
        for kind in (PI, SIGMA):
            out.extend(Quant(kind, var, f) for f in _rel_formulas(depth - 1, bound + (var,)))
        for lhs, rhs in itertools.product(inner, repeat=2):
            out.append(RClaw(lhs, rhs))
            out.append(RProd(lhs, rhs))
            out.append(RSum(lhs, rhs))
    return out


def _closed_corpus():
    corpus = []
    for f in _rel_formulas(3, ()):
        try:
            ensure_closed(f)
        except ValueError:
            continue
        corpus.append(f)
    return corpus


def _all_structures(n, signature):
    cells = []
    for name in sorted(signature):
        for tup in itertools.product(range(n), repeat=signature[name]):
            cells.append((name, tup))
    for bits in itertools.product((False, True), repeat=len(cells)):
        preds = {name: (arity, frozenset()) for name, arity in signature.items()}
        chosen = {}
        for (name, tup), bit in zip(cells, bits):
            if bit:
                chosen.setdefault(name, set()).add(tup)
        preds = {
            name: (arity, frozenset(chosen.get(name, set())))
            for name, arity in signature.items()
        }
        yield Structure(n, preds)


def test_criterion_06_expansion_matches_direct_evaluation():
    corpus = _closed_corpus()
    signature = {"p": 1, "l": 2}
    mismatches = 0
    checks = 0
    for f in corpus:
        for n in (1, 2):
            exp = expand(f, n)
            names = free_vars(exp)
            for s in _all_structures(n, signature):
                env = expansion_env(s, names)
                checks += 1
                if ref_eval(exp, env) != eval_in(f, s):
                    mismatches += 1
    ok = mismatches == 0 and len(corpus) > 100 and checks > 5000
    _report(6, f"expansion agrees with direct evaluation on {checks} checks", ok)


def test_criterion_07_satisfiable_models_extend():
    corpus = _closed_corpus()
    failures = 0
    witnessed = 0
    for f in corpus:
        for n in (1, 2, 3):
            witness = sat_search(f, n)
            if witness is None:
                continue
            witnessed += 1
            try:
                bigger = extend_model(f, witness)
            except RuntimeError:
                failures += 1
                continue
            if bigger.domain_size != n + 1 or eval_in(f, bigger) is not True:
                failures += 1
    ok = failures == 0 and witnessed > 200
    _report(7, f"every witness at sizes 1..3 extends ({witnessed} witnesses)", ok)


def test_criterion_08_syllogistic_forms():
    premises = RProd(aeio("A", "s", "m"), aeio("A", "m", "p"))
    barbara_attack = RProd(premises, RNeg(aeio("A", "s", "p")))
    barbara_ok = all(sat_search(barbara_attack, n) is None for n in (1, 2, 3))

    a_without_i = RProd(aeio("A", "s", "p"), RNeg(aeio("I", "s", "p")))
    witness = sat_search(a_without_i, 1)
    import_ok = witness is not None and witness.predicates["s"][1] == frozenset()
    _report(8, "Barbara holds to n=3; A fails to entail I via the empty class", barbara_ok and import_ok)


def test_criterion_09_number_axioms():
    pattern_ok = True
    for n in range(1, 7):
        report = check_axioms(chain(n))
        for key, verdict in report.verdicts.items():
            if verdict.holds != (key != "4b"):
                pattern_ok = False
    no_model = True
    checked = 0
    for n in (1, 2, 3):
        names = tuple(str(i + 1) for i in range(n))
        cells = list(itertools.product(names, repeat=2))
        for bits in itertools.product((False, True), repeat=len(cells)):
            rel = frozenset(c for c, b in zip(cells, bits) if b)
            for one in names:
                checked += 1
                if check_axioms(NumberStructure(names, rel, one)).all_hold():
                    no_model = False
    ok = pattern_ok and no_model and checked == 2 + 32 + 1536
    _report(9, "chains fail only the no-maximum axiom; no model with up to 3 elements", ok)


def test_criterion_10_wiener_pair_injectivity():
    atoms = [HFAtom(name) for name in "abc"]
    pairs = [(x, y) for x in atoms for y in atoms]
    atom_level = 0
    atom_ok = True
    for (x, y), (u, v) in itertools.product(pairs, repeat=2):
        atom_level += 1
        same = hf_equal(wiener_pair(x, y), wiener_pair(u, v))
        if same != (hf_equal(x, u) and hf_equal(y, v)):
            atom_ok = False
    nested = [wiener_pair(x, y) for x, y in pairs]
    nested_level = 0
    nested_ok = True
    nested_pairs = [
        (i * len(nested) + j, wiener_pair(p, q))
        for i, p in enumerate(nested)
        for j, q in enumerate(nested)
    ]
    for (i, p), (j, q) in itertools.product(nested_pairs, repeat=2):
        nested_level += 1
        if hf_equal(p, q) != (i == j):
            nested_ok = False
    order_ok = all(
        not hf_equal(wiener_pair(x, y), wiener_pair(y, x))
        for x, y in pairs
        if not hf_equal(x, y)
    )
    ok = atom_ok and nested_ok and order_ok and atom_level == 81 and nested_level == 81 * 81
    _report(10, "pair encoding injective at atom level (81) and nested level (81x81)", ok)


def test_criterion_11_oracle_equivalence():
    corpus = formulas_up_to_depth(3, "ab")
    verdict_disagreements = 0
    anf_disagreements = 0
    for f in corpus:
        table_taut = find_counterexample(f) is None
        indirect = indirect_falsify(f)
        if isinstance(indirect, Tautology) != table_taut:
            verdict_disagreements += 1
        if isinstance(indirect, Falsified) and ref_eval(f, indirect.counterexample):
            verdict_disagreements += 1
        poly = anf(f)
        names = free_vars(f)
        for bits in itertools.product((True, False), repeat=len(names)):
            env = dict(zip(names, bits))
            value = False
            for monomial in poly.monomials:
                value ^= all(env[name] for name in monomial)
            if value != ref_eval(f, env):
                anf_disagreements += 1
    ok = verdict_disagreements == 0 and anf_disagreements == 0 and len(corpus) > 9000
    _report(11, f"indirect and algebraic forms agree with tables on {len(corpus)} formulas", ok)
